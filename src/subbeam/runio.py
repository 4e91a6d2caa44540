"""Deterministic run-directory output helpers.

Every experiment writes its artifacts under one directory with a manifest
echoing the resolved configuration. Outputs must be byte-identical across
re-runs with the same config and seed, so writers use repr-based float
formatting, sorted JSON keys, and no timestamps.

Every CSV is a ``Table``, filled by the code that produces its rows, which
names and orders its columns, so ``write_table`` needs no column list of its
own and is the one CSV writer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["fmt", "Table", "write_table", "write_json", "write_pgm", "RunDir"]


def fmt(value) -> str:
    """Shortest round-trip text for floats; plain str for the rest."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


@dataclass
class Table:
    """Rows of one output CSV, each a tuple of values in ``columns`` order.

    The columns are fixed before any row is added, so a table with no rows
    still has its header. Column names may repeat (a heatmap over one angle),
    so ``values`` keeps each row as a tuple; ``rows`` gives them as dicts for
    readers that look values up by name. ``line``, when set, formats one row
    for the console.
    """

    columns: list[str]
    line: str = ""
    values: list[tuple] = field(default_factory=list)

    def add(self, *values) -> None:
        """Append one row: ``values`` in column order."""
        if len(values) != len(self.columns):
            raise ValueError(f"{len(values)} values for {len(self.columns)} columns")
        self.values.append(values)

    @property
    def rows(self) -> list[dict]:
        return [dict(zip(self.columns, values)) for values in self.values]


def write_table(path, table: Table) -> None:
    """Write ``table`` as CSV, then print each row's console ``line``."""
    with open(path, "w") as f:
        f.write(",".join(table.columns) + "\n")
        for values in table.values:
            f.write(",".join(map(fmt, values)) + "\n")
    if table.line:
        for row in table.rows:
            print(table.line.format(**row))


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def write_pgm(path, matrix: np.ndarray) -> None:
    """8-bit binary PGM; values scaled so min -> 0 and max -> 255."""
    m = np.asarray(matrix, dtype=float)
    lo, hi = float(np.min(m)), float(np.max(m))
    if hi - lo < 1e-30:
        scaled = np.zeros_like(m, dtype=np.uint8)
    else:
        scaled = np.round(255.0 * (m - lo) / (hi - lo)).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())


class RunDir:
    """Collects output files for one experiment run and writes a manifest.

    The directory is created at the first file path handed out, so a run
    that fails before writing anything leaves no directory behind.
    """

    def __init__(self, path):
        self.path = str(path)
        self._files: list[str] = []

    def _path(self, name: str) -> str:
        os.makedirs(self.path, exist_ok=True)
        return os.path.join(self.path, name)

    def file(self, name: str) -> str:
        self._files.append(name)
        return self._path(name)

    def finish(self, command: str, config: dict) -> None:
        manifest = {
            "command": command,
            "config": config,
            "outputs": sorted(self._files),
        }
        write_json(self._path("manifest.json"), manifest)
