"""Deterministic run-directory output helpers.

Every experiment writes its artifacts under one directory with a manifest
echoing the resolved configuration. Outputs must be byte-identical across
re-runs with the same config and seed, so writers use repr-based float
formatting, sorted JSON keys, and no timestamps.

An experiment that fills an output table returns it as a ``Table``, which
names and orders its columns, so the writer needs no column list of its own.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["fmt", "Table", "write_csv", "write_table", "write_json", "write_pgm", "RunDir"]


def fmt(value) -> str:
    """Shortest round-trip text for floats; plain str for the rest."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


@dataclass
class Table:
    """Rows of one output CSV, each a dict keyed by ``columns`` in order.

    The columns are fixed before any row is added, so a table with no rows
    still has its header. ``line``, when set, formats one row for the console.
    """

    columns: list[str]
    line: str = ""
    rows: list[dict] = field(default_factory=list)

    def add(self, *values) -> None:
        """Append one row: ``values`` in column order."""
        self.rows.append(dict(zip(self.columns, values, strict=True)))


def write_table(path, table: Table) -> None:
    """Write ``table`` as CSV, then print each row's console ``line``."""
    write_csv(path, table.columns, ([row[c] for c in table.columns] for row in table.rows))
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
