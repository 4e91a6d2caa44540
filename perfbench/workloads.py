"""Seeded inputs for the three benchmark workloads.

Each workload is one ``subbeam`` CLI experiment. ``make_inputs`` turns a
workload name and a seed into a short list of CLI config dicts (cases); the
library receives only those configs. The same seed always gives the same
cases. A run measures every case once, so its quality metrics average over
several independent draws instead of hinging on one.

* ``link`` (``simulate``): 16-element ULA, two users near +/-30 degrees, one
  reflector with 20 dB TX leakage, the paper's 34-beam sweep over
  +/-16.5 degrees. Dominated by the cold codebook build (34 independent
  max-min solves).
* ``localize``: reduced localization grid, 15 conjugate beams. No codebook
  work; dominated by the per-DMRS-symbol delay search.
* ``mobility``: 32-element ULA, four users (one sweeping), one codebook
  entry at broadside maintained tick by tick. Dominated by warm-started
  single-entry re-optimizations and reuse decisions.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("link", "localize", "mobility")
COMMANDS = {"link": "simulate", "localize": "localize", "mobility": "mobility"}
# Cases per seed, sized so that one pass over them takes about 30 s on a
# 2-core Xeon VM.
CASES = {"link": 3, "localize": 6, "mobility": 3}

# Delay-search candidates; ceil(log2(fft_size)) for the default numerology.
NUM_CANDIDATES = 10

LINK_BEAMS = 34
LINK_SWEEP_DEG = 16.5
LINK_SLOTS = 2
# Small on purpose: whether a max-min ascent converges or runs to max_iters
# flips with the user angles, so wide jitter makes the per-entry solve time
# of a case, and its median, jump between seeds.
LINK_USER_JITTER_DEG = 0.25

LOC_DISTANCES_M = np.linspace(1.0, 8.0, 15)
LOC_ANGLES_DEG = np.linspace(-15.0, 15.0, 11)
LOC_SWEEP_DEG = np.linspace(-14.0, 14.0, 15)
LOC_SLOTS_PER_POSITION = 4

MOB_ELEMENTS = 32
MOB_TICKS = 45
MOB_TICK_S = 5e-3
MOB_VALIDATE_TICKS = 2
MOB_EPSILON = 0.5
MOB_SNR_MATCH_TOL = 2.0


def _lib_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def link_config(rng: np.random.Generator) -> dict:
    users = []
    for center in (-30.0, 30.0):
        users.append(
            {
                "angle_deg": center + float(rng.uniform(-LINK_USER_JITTER_DEG, LINK_USER_JITTER_DEG)),
                "path": {
                    "attenuation_db": 0.0,
                    "phase_deg": float(rng.uniform(-180.0, 180.0)),
                    "delay_samples": int(rng.integers(2, 7)),
                },
            }
        )
    reflector = {
        "label": "target",
        "azimuth_deg": float(rng.uniform(-12.0, 12.0)),
        "path": {
            "attenuation_db": -6.0,
            "phase_deg": float(rng.uniform(-180.0, 180.0)),
            "delay_samples": int(rng.integers(2, NUM_CANDIDATES - 1)),
        },
    }
    return {
        "geometry": {"layout": "ula", "num_elements": 16},
        "scene": {
            "users": users,
            "reflectors": [reflector],
            "noise_power_db": -80.0,
            "self_interference_inr_db": 20.0,
        },
        "sweep_deg": {"start": -LINK_SWEEP_DEG, "stop": LINK_SWEEP_DEG, "count": LINK_BEAMS},
        "search": {"num_candidates": NUM_CANDIDATES},
        "snr_db": 30.0,
        "modulation": "64QAM",
        "num_slots": LINK_SLOTS,
        "seed": _lib_seed(rng),
    }


def localize_training_rows(num_positions: int, slots_per_position: int, dmrs_per_slot: int) -> int:
    """Calibration rows of one localization task (half of each position's captures)."""
    return num_positions * ((slots_per_position * dmrs_per_slot) // 2)


def check_localize_rank(loc: dict, dmrs_per_slot: int) -> None:
    """Fail before any simulation when a task has too few training rows.

    Each task's least-squares design matrix has 3 features per beam plus a
    bias column, so it needs at least 3*beams + 1 rows to be full rank.
    """
    columns = 3 * len(loc["sweep_deg"]) + 1
    for task in ("distances_m", "angles_deg"):
        rows = localize_training_rows(len(loc[task]), loc["slots_per_position"], dmrs_per_slot)
        if rows < columns:
            raise ValueError(
                f"localize {task}: {rows} training rows < {columns} columns "
                f"(3*beams+1); the calibration would be rank-deficient"
            )


def localize_config(rng: np.random.Generator) -> dict:
    return {
        "geometry": {"layout": "ula", "num_elements": 16},
        "search": {"num_candidates": NUM_CANDIDATES},
        "localization": {
            "distances_m": [round(float(d), 6) for d in LOC_DISTANCES_M],
            "angles_deg": [round(float(a), 6) for a in LOC_ANGLES_DEG],
            "slots_per_position": LOC_SLOTS_PER_POSITION,
            "sweep_deg": [round(float(a), 6) for a in LOC_SWEEP_DEG],
        },
        "seed": _lib_seed(rng),
    }


def mobility_config(rng: np.random.Generator) -> dict:
    duration = MOB_TICKS * MOB_TICK_S
    span = float(rng.uniform(25.0, 35.0))
    parked = [center + float(rng.uniform(-3.0, 3.0)) for center in (-10.0, 10.0, 30.0)]
    waypoints = [[[0.0, -span], [duration, span]]] + [[[0.0, a]] for a in parked]
    return {
        "geometry": {"layout": "ula", "num_elements": MOB_ELEMENTS},
        "optimizer": {"epsilon": MOB_EPSILON, "snr_match_tol": MOB_SNR_MATCH_TOL},
        "sweep_deg": [0.0],
        "mobility": {
            "waypoints": waypoints,
            "tick_interval": MOB_TICK_S,
            "duration": duration,
            "validate_ticks": MOB_VALIDATE_TICKS,
        },
        "seed": _lib_seed(rng),
    }


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The CLI configs of ``workload``'s cases, generated from ``seed``."""
    makers = {"link": link_config, "localize": localize_config, "mobility": mobility_config}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return [makers[workload](rng) for _ in range(CASES[workload])]


def sweep_angles_deg(cfg: dict) -> list[float]:
    s = cfg["sweep_deg"]
    if isinstance(s, list):
        return [float(a) for a in s]
    return np.linspace(s["start"], s["stop"], s["count"]).tolist()


def steering(num_elements: int, angle_rad: float, spacing: float = 0.5) -> np.ndarray:
    """ULA response exp(j*2*pi*d*n*sin(angle)), written out independently of the library."""
    n = np.arange(num_elements)
    return np.exp(1j * 2.0 * math.pi * spacing * n * math.sin(angle_rad))
