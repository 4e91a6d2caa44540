"""Correctness checks and quality metrics read from a run's output files.

Each ``check_<workload>`` takes the generated config, the run directory the
CLI wrote and what the benchmark captured during the run, and returns
``(quality, failures)``: the workload's quality metrics and a list of
failed-check messages (empty when the run is correct). The checks hold on
any seed; a failure means the program produced a wrong result.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import sweep_angles_deg, steering

FEASIBILITY_SLACK = 1e-9
SNR_RECOMPUTE_TOL_DB = 1e-6
LOC_MAX_DIST_ERR_M = 0.5
LOC_MAX_ANGLE_ERR_DEG = 2.0
MOB_MAX_SENSING_BAND_DB = 1.5


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _json(path: str):
    with open(path) as f:
        return json.load(f)


def codebook_failures(entries: list[dict], user_angles_deg, base_snrs, epsilon: float) -> list[str]:
    """Feasibility and stored-min-SNR checks for saved codebook entries."""
    failures = []
    for i, e in enumerate(entries):
        w = np.array([re + 1j * im for re, im in e["weights"]])
        anchor = np.conj(steering(len(w), math.radians(e["sensing_angle_deg"])))
        dev = float(np.max(np.abs(w - anchor)))
        amp = float(np.max(np.abs(w)))
        if dev > epsilon + FEASIBILITY_SLACK or amp > 1.0 + FEASIBILITY_SLACK:
            failures.append(f"entry {i} infeasible: max |w-anchor| {dev:.6g}, max |w| {amp:.6g}")
        snrs = [
            snr * abs(steering(len(w), math.radians(a)) @ w) ** 2
            for a, snr in zip(user_angles_deg, base_snrs)
        ]
        recomputed_db = 10.0 * math.log10(max(min(snrs), 1e-300))
        stored_db = e["min_snr_db"]
        if stored_db is None or abs(recomputed_db - stored_db) > SNR_RECOMPUTE_TOL_DB:
            failures.append(
                f"entry {i} stored min SNR {stored_db} dB != recomputed {recomputed_db:.9f} dB"
            )
    return failures


def facing_beam(sweep_deg: list[float], azimuth_deg: float) -> int:
    """Index of the sweep beam pointing closest to the reflector."""
    return int(np.argmin([abs(a - azimuth_deg) for a in sweep_deg]))


def check_link(cfg: dict, run_dir: str, captured: dict) -> tuple[dict, list[str]]:
    failures = []
    book = _json(os.path.join(run_dir, "codebook.json"))
    users = cfg["scene"]["users"]
    eps = cfg.get("optimizer", {}).get("epsilon", 0.5)
    failures += codebook_failures(
        book["entries"],
        [u["angle_deg"] for u in users],
        [u.get("base_snr", 1.0) for u in users],
        eps,
    )

    sweep = sweep_angles_deg(cfg)
    refl = cfg["scene"]["reflectors"][0]
    facing = facing_beam(sweep, refl["azimuth_deg"])
    true_delay = refl["path"]["delay_samples"]
    picks = 0
    for r in _rows(os.path.join(run_dir, "sensing.csv")):
        if int(r["beam_index"]) == facing:
            picks += 1
            if int(r["best_delay"]) != true_delay:
                failures.append(
                    f"slot {r['slot']} symbol {r['symbol']} beam {r['beam_index']}: "
                    f"best delay {r['best_delay']} != reflector delay {true_delay}"
                )
    if picks == 0:
        failures.append("no sensing rows for the beam facing the reflector")

    per_user = _rows(os.path.join(run_dir, "users.csv"))
    evm = [float(u["evm_percent"]) for u in per_user]
    if len(evm) != len(users) or not all(math.isfinite(v) for v in evm):
        failures.append(f"user EVM missing or not finite: {evm}")

    n = cfg["geometry"]["num_elements"]
    gains_db = []
    min_snrs_db = []
    for e in book["entries"]:
        w = np.array([re + 1j * im for re, im in e["weights"]])
        gain = abs(steering(n, math.radians(e["sensing_angle_deg"])) @ w) ** 2
        gains_db.append(10.0 * math.log10(gain))
        min_snrs_db.append(e["min_snr_db"] if e["min_snr_db"] is not None else math.nan)
    quality = {
        "min_user_snr_db": float(np.mean(min_snrs_db)),
        "sensing_gain_db": float(np.mean(gains_db)),
        "evm_pct": max(evm) if evm else math.nan,
    }
    return quality, failures


def picks_failures(picks: list[list[int]], golden: list[list[int]] | None, num_candidates: int) -> list[str]:
    """Best-delay picks must be in range and, when a golden set is given, identical to it."""
    failures = []
    for call, row in enumerate(picks):
        bad = [d for d in row if not 0 <= d < num_candidates]
        if bad:
            failures.append(f"symbol {call}: best delays out of range {bad}")
    if golden is not None:
        if len(golden) != len(picks):
            failures.append(f"{len(picks)} delay searches, golden has {len(golden)}")
        else:
            changed = [i for i, (a, b) in enumerate(zip(picks, golden)) if a != b]
            if changed:
                failures.append(
                    f"best-delay picks differ from golden on {len(changed)} symbols "
                    f"(first at symbol {changed[0]}: {picks[changed[0]]} vs {golden[changed[0]]})"
                )
    return failures


def check_localize(cfg: dict, run_dir: str, captured: dict) -> tuple[dict, list[str]]:
    res = _json(os.path.join(run_dir, "localization.json"))
    dist = res["median_distance_error_m"]
    ang = res["median_angle_error_deg"]
    failures = []
    if not dist <= LOC_MAX_DIST_ERR_M:
        failures.append(f"median distance error {dist} m > {LOC_MAX_DIST_ERR_M} m")
    if not ang <= LOC_MAX_ANGLE_ERR_DEG:
        failures.append(f"median angle error {ang} deg > {LOC_MAX_ANGLE_ERR_DEG} deg")
    failures += picks_failures(
        captured["picks"], captured.get("golden_picks"), cfg["search"]["num_candidates"]
    )
    return {"dist_err_m": dist, "angle_err_deg": ang}, failures


def check_mobility(cfg: dict, run_dir: str, captured: dict) -> tuple[dict, list[str]]:
    failures = []
    series = _rows(os.path.join(run_dir, "timeseries.csv"))
    gains = [float(r["sensing_gain_db"]) for r in series]
    band = max(gains) - min(gains)
    if not band <= MOB_MAX_SENSING_BAND_DB:
        failures.append(f"sensing band {band:.4f} dB > {MOB_MAX_SENSING_BAND_DB} dB")
    path = os.path.join(run_dir, "reuse_validation.json")
    validation = _json(path) if os.path.exists(path) else []
    if not validation:
        failures.append("no reuse ticks were validated")
    for c in validation:
        if not c["sound"]:
            failures.append(f"reuse at tick {c['tick']} is not sound: {c}")
    stats = _json(os.path.join(run_dir, "mobility_stats.json"))
    min_snrs = [float(r["min_snr"]) for r in series]
    quality = {
        "min_user_snr_db": float(np.mean([10.0 * math.log10(max(s, 1e-300)) for s in min_snrs])),
        "sensing_gain_db": float(np.mean(gains)),
        "reopt_frac": float(stats["reoptimized_tick_fraction"]),
    }
    return quality, failures


CHECKS = {"link": check_link, "localize": check_localize, "mobility": check_mobility}
