"""Linear (signal-processing) localization from per-beam sensing features.

A reflector is swept over a distance grid and an angle grid; per DMRS
symbol the beam sweep yields three features per beam, and two linear
regressors (calibrated by least squares on a disjoint training split) map
the stacked features to distance and angle.

The features read only the DMRS symbols, so every capture sends a
sensing-only slot (``waveform.sensing_slot``: no data payload, data
symbols zero) and takes each position's reflector gains once
(``channel.monostatic_echoes``); the capture applies the echoes only on the
slot's signal spans, the DMRS symbols and the echo delay after them. Its
DMRS bodies equal those of a full data slot bit for bit as long as every
round-trip delay is at most the numerology's ``cp_length``, which
``run_localization`` checks up front.

The feature stack reads each beam's result as the delay search finished it:
the power (``SensingCsi.power``) in dB, the fit MSE, and the *total* phase
slope (fit slope minus 2*pi*best_delay/window), which folds the integer
window alignment back into the slope so one linear feature carries the full
propagation delay.
"""

from __future__ import annotations

import math

import numpy as np

from ..arrays import ArrayGeometry, conjugate_beam, in_field_of_view
from ..channel import (
    PathModel,
    Reflector,
    Scene,
    SlotBeamPlan,
    meters_to_samples,
    monostatic_echoes,
)
from ..runio import Table
from ..sensing import DelaySearchConfig, SensingCsi
from ..waveform import Numerology, sensing_slot
from .link import sense_dmrs

__all__ = ["feature_stack", "calibrate_sp", "run_localization"]

# Reflector distance of the angle task.
ANGLE_TASK_DISTANCE_M = 3.0


def feature_stack(results: list[SensingCsi], sub_len: int) -> np.ndarray:
    """Per beam, power (dB), total phase slope and fit MSE in one regression row.

    The power is each beam's ``SensingCsi.power``, as the search returns it.
    """
    return np.array([
        (
            10.0 * math.log10(r.power + 1e-30),
            r.slope - 2.0 * math.pi * r.best_delay / sub_len,
            r.mse,
        )
        for r in results
    ]).ravel()


def calibrate_sp(training_runs: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Least-squares weights (bias appended) mapping feature stacks to truth."""
    truths = {t for _, t in training_runs}
    if len(truths) < 2:
        raise ValueError("need at least 2 distinct truth values")
    x = np.array([np.append(feats, 1.0) for feats, _ in training_runs])
    y = np.array([t for _, t in training_runs])
    sol, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1]:
        raise ValueError(f"rank-deficient design matrix (rank {rank} < {x.shape[1]})")
    return sol


def _distance_attenuation(distance_m: float) -> float:
    # Inverse-square amplitude decay, unit reflectivity at 1 m.
    return min(1.0, 1.0 / distance_m**2)


def run_localization(
    geometry: ArrayGeometry,
    numerology: Numerology,
    cfg_search: DelaySearchConfig,
    seed: int,
    distances_m=None,
    angles_deg=None,
    slots_per_position: int = 25,
    sweep_deg=None,
    noise_power: float = 1e-7,
) -> dict:
    """Calibrate and evaluate both regressors on disjoint seeded splits.

    Distance task: reflector broadside on a 1..8 m grid. Angle task:
    reflector at ``ANGLE_TASK_DISTANCE_M`` across +/-15 degrees. Returns
    medians of absolute test errors and the calibrated weights as one
    ``Table``, ``weights``: a distance and an angle weight per row, 3 rows
    per beam, bias last. Raises ValueError before any simulation when a
    distance is not positive, a task has fewer than 2 distinct truth values
    or fewer training rows than regression columns, or a distance's
    round-trip delay falls outside the delay search (it would land on the
    last candidate) or exceeds ``numerology.cp_length`` (a DMRS body of a
    sensing-only slot would then miss the data samples a full slot delays
    into it).
    """
    distances_m = np.round(np.arange(1.0, 8.0 + 1e-9, 0.1), 3) if distances_m is None else np.asarray(distances_m)
    angles_deg = np.arange(-15.0, 15.0 + 1e-9, 1.0) if angles_deg is None else np.asarray(angles_deg)
    sweep_deg = np.linspace(-15.0, 15.0, 31) if sweep_deg is None else np.asarray(sweep_deg)

    # Fail before simulating anything. Each task calibrates on half of every
    # position's captures, and its design matrix has 3 features per beam
    # plus a bias column.
    if not len(sweep_deg):
        raise ValueError("sweep_deg [] names no beam")
    for distance_m in distances_m:  # _distance_attenuation divides by it
        if distance_m <= 0:
            raise ValueError(f"distances_m {float(distance_m)} must be > 0")
    for angle_deg in angles_deg:  # the bound the angle task's Reflector applies
        if not in_field_of_view(math.radians(angle_deg)):
            raise ValueError(f"angles_deg {float(angle_deg)} outside the field of view")
    columns = 3 * len(sweep_deg) + 1
    captures = slots_per_position * len(numerology.dmrs_positions())
    for task, positions in (("distance", distances_m), ("angle", angles_deg)):
        if len(set(positions)) < 2:
            raise ValueError(f"{task} task: need 2 distinct truth values, got {positions.tolist()}")
        rows = len(positions) * (captures // 2)
        if rows < columns:
            raise ValueError(
                f"rank-deficient design matrix for the {task} task: "
                f"{rows} training rows < {columns} columns (3*beams+1)"
            )
    for distance_m in (*distances_m, ANGLE_TASK_DISTANCE_M):
        delay = meters_to_samples(distance_m, numerology.sample_rate, 2.0)
        cfg_search.check_delay(delay, f"distance {float(distance_m)} m")
        if delay > numerology.cp_length:
            raise ValueError(
                f"distance {float(distance_m)} m has round-trip delay {delay} samples, "
                f"beyond the cp_length of {numerology.cp_length} samples that keeps "
                "each DMRS body free of the data symbols"
            )

    beams = [conjugate_beam(geometry, math.radians(a)) for a in sweep_deg]
    bplan = SlotBeamPlan.uniform(numerology, beams, beams[0])
    rng = np.random.default_rng(seed)

    def scene_for(distance_m: float, angle_deg: float) -> Scene:
        delay = meters_to_samples(distance_m, numerology.sample_rate, 2.0)
        return Scene(
            reflectors=(
                Reflector(
                    azimuth=math.radians(angle_deg),
                    path=PathModel(_distance_attenuation(distance_m), 0.0, delay),
                    label="target",
                ),
            ),
            noise_power=noise_power,
            self_interference_inr_db=None,
        )

    def gather(task_values, make_scene, truth_of):
        # One feature stack per DMRS symbol of every slot at every position.
        samples = []
        for idx, value in enumerate(task_values):
            scene, truth = make_scene(value), truth_of(value)
            echoes = monostatic_echoes(bplan, scene, geometry)
            position_seed = seed + 100_003 * (idx + 1)
            stacks = []
            for slot_idx in range(slots_per_position):
                slot = sensing_slot(numerology, dmrs_seed=position_seed + 613 * slot_idx)
                captures = sense_dmrs(
                    slot, slot, bplan, echoes, scene, cfg_search, position_seed + 7919 * slot_idx
                )
                stacks.extend((feature_stack(r, bplan.schedule.sub_len), truth) for r in captures)
            samples.append(stacks)
        return samples

    def split_eval(samples):
        # Disjoint sample split: every grid position contributes half of its
        # captures to calibration and the other half to evaluation.
        train, test = [], []
        for per_position in samples:
            order = rng.permutation(len(per_position))
            cut = len(per_position) // 2
            train.extend(per_position[i] for i in order[:cut])
            test.extend(per_position[i] for i in order[cut:])
        weights = calibrate_sp(train)
        errors = [abs(float(np.append(s, 1.0) @ weights) - t) for s, t in test]
        return weights, float(np.median(errors))

    dist_samples = gather(
        distances_m, lambda d: scene_for(d, 0.0), lambda d: float(d)
    )
    w_dist, median_dist = split_eval(dist_samples)

    angle_samples = gather(
        angles_deg, lambda a: scene_for(ANGLE_TASK_DISTANCE_M, a), lambda a: float(a)
    )
    w_angle, median_angle = split_eval(angle_samples)

    weights = Table(["index", "distance_weight", "angle_weight"])
    for i, (d, a) in enumerate(zip(w_dist, w_angle)):
        weights.add(i, float(d), float(a))
    return {
        "median_distance_error_m": median_dist,
        "median_angle_error_deg": median_angle,
        "weights": weights,
    }
