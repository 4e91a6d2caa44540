"""Per-layer metrics computed from the spans of one traced run.

The metric names and units here are the ``per_layer`` list of
``BENCHMARK.json``; every traced run reports all of them, with zero counts
for layers a workload never enters.
"""

from __future__ import annotations

import math

import numpy as np

from spans import LAYERS, Span, busy_by, self_times

CALL_STATS = ("calls", "busy_s", "ms_p50", "ms_p90")
WAVEFORM_FUNCTIONS = (
    "generate_slot", "predistort_dmrs", "build_predistortion_plan",
    "slot_user_csi", "demodulate_and_score",
)

UNITS = {"calls": "count", "busy_s": "s", "ms_p50": "ms", "ms_p90": "ms"}


def _names() -> list[tuple[str, str]]:
    out = []
    for mode in ("cold", "warm"):
        out += [(f"codebook.optimize_max_min.{mode}.{s}", UNITS[s]) for s in CALL_STATS]
    out += [
        ("codebook.update_codebook.calls", "count"),
        ("codebook.update_codebook.busy_s", "s"),
        ("codebook.update_codebook.reused", "count"),
        ("codebook.update_codebook.reoptimized", "count"),
        ("codebook.build_codebook.busy_s", "s"),
        ("codebook.design_data_beam.busy_s", "s"),
        ("codebook.converged_frac", "ratio"),
    ]
    out += [(f"sensing.estimate_symbol_csi.{s}", UNITS[s]) for s in CALL_STATS]
    out += [
        ("sensing.beams", "count"),
        ("sensing.fits", "count"),
        ("sensing.ops_fft", "ops.computed"),
        ("sensing.ops_slide", "ops.computed"),
        ("sensing.edge_delay_frac", "ratio"),
    ]
    for fn in ("channel.apply_monostatic", "channel.apply_downlink"):
        out += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s")]
    for fn in WAVEFORM_FUNCTIONS:
        out += [(f"waveform.{fn}.calls", "count"), (f"waveform.{fn}.busy_s", "s")]
    for fn in ("steering_vector", "beamforming_gain"):
        out += [(f"arrays.{fn}.calls", "count"), (f"arrays.{fn}.busy_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    out += [
        ("runio.busy_s", "s"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.ref_ms", "ms"),
    ]
    return out


PER_LAYER = _names()


def computed_ops(sub_len: int, num_beams: int, num_candidates: int) -> tuple[int, int]:
    """(fft, slide) operations of one symbol's delay search under the OpCounter model.

    One length-L FFT per beam for the first candidate (L*ceil(log2 L) each)
    and one sliding-DFT update (2L) per beam for every further candidate.
    """
    fft = num_beams * sub_len * max(1, math.ceil(math.log2(sub_len)))
    slide = num_beams * (num_candidates - 1) * 2 * sub_len
    return fft, slide


def search_shape(args, kwargs) -> tuple[int, int, int]:
    """(sub_len, num_beams, num_candidates) of an ``estimate_symbol_csi`` call."""
    schedule = kwargs["schedule"] if "schedule" in kwargs else args[2]
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return schedule.sub_len, schedule.num_beams, cfg.num_candidates


def annotate(name: str, args, kwargs, result, info: dict) -> None:
    """Record what a traced call did, next to its span."""
    if name == "codebook.optimize_max_min":
        warm = kwargs.get("warm_start", args[4] if len(args) > 4 else None)
        info["mode"] = "cold" if warm is None else "warm"
        info["converged"] = bool(result.converged)
    elif name == "codebook.update_codebook":
        stats = result[1]
        info["reused"] = stats.reused
        info["reoptimized"] = stats.reoptimized
    elif name == "sensing.estimate_symbol_csi":
        sub_len, num_beams, candidates = search_shape(args, kwargs)
        fft, slide = computed_ops(sub_len, num_beams, candidates)
        info["beams"] = len(result)
        info["candidates"] = candidates
        info["ops_fft"] = fft
        info["ops_slide"] = slide
        info["edge"] = sum(1 for r in result if r.best_delay == candidates - 1)


def _pct(values_ms: list[float], q: float) -> float:
    return float(np.percentile(values_ms, q)) if values_ms else 0.0


def _call_stats(spans: list[Span]) -> dict:
    # Only for functions that never call themselves, so durations do not overlap.
    ms = [s.duration * 1e3 for s in spans]
    return {
        "calls": len(spans),
        "busy_s": sum(s.duration for s in spans),
        "ms_p50": _pct(ms, 50),
        "ms_p90": _pct(ms, 90),
    }


def layer_metrics(spans: list[Span], traced_wall: float, overhead: float) -> dict:
    """Every ``PER_LAYER`` metric but ``trace.ref_ms`` from one traced run's spans.

    ``traced_wall`` is the traced run's wall time, ``overhead`` its excess
    over the same case run untraced.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    name_busy = busy_by(spans, lambda s: s.name)

    def busy(name: str) -> float:
        return name_busy.get(name, 0.0)

    m = {}
    solves = by_name.get("codebook.optimize_max_min", [])
    for mode in ("cold", "warm"):
        stats = _call_stats([s for s in solves if s.info.get("mode") == mode])
        for key, value in stats.items():
            m[f"codebook.optimize_max_min.{mode}.{key}"] = value
    updates = by_name.get("codebook.update_codebook", [])
    m["codebook.update_codebook.calls"] = len(updates)
    m["codebook.update_codebook.busy_s"] = busy("codebook.update_codebook")
    m["codebook.update_codebook.reused"] = sum(s.info["reused"] for s in updates)
    m["codebook.update_codebook.reoptimized"] = sum(s.info["reoptimized"] for s in updates)
    m["codebook.build_codebook.busy_s"] = busy("codebook.build_codebook")
    m["codebook.design_data_beam.busy_s"] = busy("codebook.design_data_beam")
    m["codebook.converged_frac"] = (
        sum(s.info["converged"] for s in solves) / len(solves) if solves else 0.0
    )

    searches = by_name.get("sensing.estimate_symbol_csi", [])
    for key, value in _call_stats(searches).items():
        m[f"sensing.estimate_symbol_csi.{key}"] = value
    beams = sum(s.info["beams"] for s in searches)
    m["sensing.beams"] = beams
    m["sensing.fits"] = sum(s.info["beams"] * s.info["candidates"] for s in searches)
    m["sensing.ops_fft"] = sum(s.info["ops_fft"] for s in searches)
    m["sensing.ops_slide"] = sum(s.info["ops_slide"] for s in searches)
    m["sensing.edge_delay_frac"] = sum(s.info["edge"] for s in searches) / beams if beams else 0.0

    for fn in (
        ["channel.apply_monostatic", "channel.apply_downlink"]
        + [f"waveform.{f}" for f in WAVEFORM_FUNCTIONS]
        + ["arrays.steering_vector", "arrays.beamforming_gain"]
    ):
        m[f"{fn}.calls"] = len(by_name.get(fn, []))
        m[f"{fn}.busy_s"] = busy(fn)

    own = self_times(spans)
    for layer in LAYERS:
        total = sum(t for s, t in zip(spans, own) if s.layer == layer)
        m[f"{layer}.self_s"] = total
        m[f"{layer}.self_share"] = total / traced_wall if traced_wall > 0 else 0.0
    m["runio.busy_s"] = busy_by(spans, lambda s: s.layer).get("runio", 0.0)
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = overhead
    return m
