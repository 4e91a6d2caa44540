"""Span tracing of ``subbeam`` from outside the package.

The benchmark records spans around the public functions of each layer
module without editing the package: every module binding of a function is
replaced by a wrapper (``subbeam.experiments.link.build_codebook`` as well
as ``subbeam.codebook.build_codebook``), so calls are recorded however the
caller reached the function. ``Patch.restore`` puts the original objects
back.

A span records its name, layer, start, end and parent. Spans stay in
memory; the caller writes them out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# Layer -> modules whose public functions belong to it.
LAYER_MODULES = {
    "arrays": ("subbeam.arrays",),
    "codebook": ("subbeam.codebook",),
    "waveform": ("subbeam.waveform",),
    "channel": ("subbeam.channel",),
    "sensing": ("subbeam.sensing",),
    "experiments": (
        "subbeam.experiments.link",
        "subbeam.experiments.localization",
        "subbeam.experiments.mobility",
        "subbeam.experiments.imaging",
        "subbeam.experiments.baselines",
        "subbeam.experiments.tradeoff",
    ),
    "runio": ("subbeam.runio",),
}
LAYERS = ("cli", "experiments", "codebook", "sensing", "channel", "waveform", "arrays", "runio")

# File readers and writers that live in a computational module but do output
# work; they are counted in the output layer.
OUTPUT_FUNCTIONS = {
    "save_codebook", "load_codebook", "save_scene", "load_scene", "write_iq", "read_iq",
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span closed out of order")

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "layer": s.layer, "start": s.start, "end": s.end,
             "parent": s.parent, "info": s.info}
            for s in self.spans
        ]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append(s.duration - covered((a, b) for a, b in inside if b > a))
    return out


def outermost(spans: list[Span], key) -> list[Span]:
    """Spans with no ancestor sharing ``key(span)``; their durations do not overlap."""
    keep = []
    for s in spans:
        k = key(s)
        p = s.parent
        while p >= 0 and key(spans[p]) != k:
            p = spans[p].parent
        if p < 0:
            keep.append(s)
    return keep


def busy_by(spans: list[Span], key) -> dict[str, float]:
    """Time inside at least one span of each ``key`` value, nested repeats counted once."""
    out: dict[str, float] = {}
    for s in outermost(spans, key):
        out[key(s)] = out.get(key(s), 0.0) + s.duration
    return out


def public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    return {
        n: getattr(module, n)
        for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    }


def layer_functions() -> dict[object, tuple[str, str]]:
    """Function object -> (layer, span name) for every layer module."""
    out = {}
    for layer, modules in LAYER_MODULES.items():
        for mod_name in modules:
            module = importlib.import_module(mod_name)
            for name, fn in public_functions(module).items():
                lay = "runio" if name in OUTPUT_FUNCTIONS else layer
                out[fn] = (lay, f"{lay}.{name}")
    return out


class Patch:
    """Replaces functions at every ``subbeam`` module binding until restored."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets: dict, make_wrapper) -> None:
        """``targets`` maps function -> label; ``make_wrapper(fn, label)`` builds the wrapper."""
        wrappers = {fn: make_wrapper(fn, label) for fn, label in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "subbeam" or mod_name.startswith("subbeam.")):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


def span_wrapper(tracer: Tracer, annotate=None):
    """Wrapper factory recording one span per call; ``annotate(name, args, kwargs, result, info)``."""

    def make(fn, label):
        layer, name = label

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if annotate is not None:
                annotate(name, args, kwargs, result, tracer.spans[idx].info)
            return result

        return wrapper

    return make
