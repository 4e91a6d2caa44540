"""Sensing/communication trade-off versus the perturbation radius, and the
beam patterns of a codebook."""

from __future__ import annotations

import math
from dataclasses import replace

from ..arrays import ArrayGeometry, beamforming_gain
from ..codebook import Codebook, OptimizerConfig, UserLink, optimize_max_min
from ..runio import Table

__all__ = ["epsilon_sweep", "beam_patterns"]


def _gain_db(weights, geometry: ArrayGeometry, angle: float) -> float:
    return 10.0 * math.log10(beamforming_gain(weights, geometry, angle) + 1e-30)


def epsilon_sweep(
    users: list[UserLink],
    sensing_angle: float,
    geometry: ArrayGeometry,
    epsilons,
    cfg: OptimizerConfig,
) -> Table:
    """Solve the codebook entry across a radius grid, warm-starting upward.

    Solutions nest (a feasible point for one radius stays feasible for any
    larger one), so each radius also tries the previous solution as a warm
    start and keeps the better result; the achieved minimum user SNR is then
    non-decreasing in the radius up to float noise. Every radius is checked
    before the first solve.
    """
    configs = [replace(cfg, epsilon=float(eps)) for eps in epsilons]
    table = Table(
        ["epsilon", "sensing_gain_db", "min_snr_db",
         *(f"user{i}_gain_db" for i in range(len(users)))],
        line="eps={epsilon:.2f} sensing {sensing_gain_db:6.2f} dB "
        "min-user {min_snr_db:6.2f} dB",
    )
    prev = None
    for cfg_eps in configs:
        entry = optimize_max_min(users, sensing_angle, geometry, cfg_eps)
        if prev is not None and prev.min_snr > entry.min_snr:
            warm = optimize_max_min(
                users, sensing_angle, geometry, cfg_eps, warm_start=prev.weights
            )
            if warm.min_snr > entry.min_snr:
                entry = warm
        prev = entry
        table.add(
            cfg_eps.epsilon,
            _gain_db(entry.weights, geometry, sensing_angle),
            10.0 * math.log10(entry.min_snr + 1e-30) if not math.isinf(entry.min_snr) else math.inf,
            *(_gain_db(entry.weights, geometry, u.angle) for u in users),
        )
    return table


def beam_patterns(codebook: Codebook, geometry: ArrayGeometry, angles_deg) -> Table:
    """Each entry's radiated gain (dB) at every azimuth of ``angles_deg``, one row per angle."""
    beams = codebook.beams()
    table = Table(["angle_deg", *(f"entry{i}_gain_db" for i in range(len(beams)))])
    for deg in angles_deg:
        angle = math.radians(float(deg))
        table.add(float(deg), *(_gain_db(b, geometry, angle) for b in beams))
    return table
