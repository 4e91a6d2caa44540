"""Online codebook maintenance under user mobility.

Every tick the user angles advance along their trajectories and the
codebook update rule decides per entry whether the stored beamformer is
still optimal (reuse) or needs a warm-started re-optimization.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..arrays import (
    ArrayGeometry,
    beamforming_gain,
    effective_snr,
    in_field_of_view,
    steering_vector,
)
from ..codebook import (
    OptimizerConfig,
    UpdateStats,
    UserLink,
    build_codebook,
    optimize_max_min,
    update_codebook,
)
from ..runio import Table

__all__ = ["MobilityScenario", "run_mobility", "default_sweep_scenario"]


@dataclass(frozen=True)
class MobilityScenario:
    """Per-user piecewise-linear angle trajectories (degrees vs seconds)."""

    waypoints: tuple  # tuple per user: ((t0, deg0), (t1, deg1), ...)
    tick_interval: float = 5e-3
    duration: float = 10.0

    def __post_init__(self):
        if self.tick_interval <= 0 or self.duration <= 0:
            raise ValueError("tick_interval and duration must be > 0")
        if self.num_ticks < 1:
            raise ValueError(f"duration {self.duration} s is under half a tick_interval of "
                             f"{self.tick_interval} s: no ticks")
        for user_wp in self.waypoints:
            times = [t for t, _ in user_wp]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError(f"waypoint times {times} must strictly increase")
            for _, deg in user_wp:
                if not in_field_of_view(math.radians(deg)):
                    raise ValueError("trajectory leaves the field of view")

    @property
    def num_ticks(self) -> int:
        return int(round(self.duration / self.tick_interval))

    def angles_at(self, t: float) -> list[float]:
        """Interpolated user angles (radians) at time t."""
        out = []
        for wp in self.waypoints:
            times = np.array([p[0] for p in wp])
            degs = np.array([p[1] for p in wp])
            out.append(math.radians(float(np.interp(t, times, degs))))
        return out


def default_sweep_scenario(duration: float = 10.0, tick_interval: float = 5e-3) -> MobilityScenario:
    """Four users: one sweeping -30 to +30 degrees, three parked."""
    return MobilityScenario(
        waypoints=(
            ((0.0, -30.0), (duration, 30.0)),
            ((0.0, -10.0),),
            ((0.0, 10.0),),
            ((0.0, 30.0),),
        ),
        tick_interval=tick_interval,
        duration=duration,
    )


@contextmanager
def _quiet_proximity_warnings():
    # Trajectories legitimately cross other users; the per-solve proximity
    # hint would fire thousands of times here.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*within one HPBW.*")
        yield


def run_mobility(
    scenario: MobilityScenario,
    base_snrs: list[float],
    sweep: list[float],
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
    validate_ticks: int = 0,
) -> dict:
    """Tick through the scenario, updating the codebook each interval.

    Returns the per-tick time series (user angles, reuse decisions, minimum
    user SNR and sensing gain of the first entry), aggregate statistics, the
    wall time of each tick's update, and, when ``validate_ticks`` > 0, a
    reuse validation on that many sampled reuse ticks. A reused entry is
    confirmed by (a) independently recomputing the reuse premise (its stored
    minimum SNR is still achieved at the current angles within the match
    tolerance), (b) rechecking feasibility of its weights (within
    ``epsilon`` of the anchor and within the unit disk), and (c) a
    from-scratch solve that must reach at least the stored value minus 1 dB
    (cold restarts on crossing-user configurations land within ~0.7 dB of a
    warm-tracked solution). A fresh solve may legitimately exceed the stored
    value when the bottleneck user moved somewhere better: skipping that
    headroom is exactly the latency the update rule trades away.
    """
    if len(base_snrs) != len(scenario.waypoints):
        raise ValueError(
            f"base_snrs has {len(base_snrs)} values for {len(scenario.waypoints)} trajectories"
        )
    if validate_ticks < 0:
        raise ValueError(f"validate_ticks {validate_ticks} must be >= 0")

    def users_at(t: float) -> list[UserLink]:
        return [
            UserLink(angle, snr)
            for angle, snr in zip(scenario.angles_at(t), base_snrs)
        ]

    with _quiet_proximity_warnings():
        codebook = build_codebook(users_at(0.0), sweep, geometry, cfg)
    records = Table([
        "tick", "t", *(f"user{i}_deg" for i in range(len(scenario.waypoints))),
        "reused", "reoptimized", "min_snr", "sensing_gain_db",
    ])
    timing = Table(["tick", "update_seconds"])
    reuse_ticks = []
    per_tick = []
    for tick in range(1, scenario.num_ticks + 1):
        t = tick * scenario.tick_interval
        moved = users_at(t)
        with _quiet_proximity_warnings():
            codebook, stats = update_codebook(codebook, moved, geometry, cfg)
        per_tick.append(stats)
        timing.add(tick, stats.seconds)
        entry = codebook.entries[0]
        records.add(
            tick, t, *(math.degrees(u.angle) for u in moved),
            stats.reused, stats.reoptimized, entry.min_snr,
            10.0 * math.log10(beamforming_gain(entry.weights, geometry, entry.sensing_angle)),
        )
        if stats.reoptimized == 0:
            reuse_ticks.append((tick, t, codebook))

    validation = None
    if validate_ticks and reuse_ticks:
        step = max(1, len(reuse_ticks) // validate_ticks)
        sampled = reuse_ticks[::step][:validate_ticks]
        slack = 10.0 ** (-1.0 / 10.0)  # cold-restart solver variance allowance
        checks = []
        for tick, t, cb in sampled:
            entry = cb.entries[0]
            users_now = users_at(t)
            achieved = min(
                effective_snr(u.base_snr, entry.weights, geometry, u.angle)
                for u in users_now
            )
            anchor = np.conj(steering_vector(geometry, entry.sensing_angle))
            deviation = np.abs(entry.weights.weights - anchor)
            with _quiet_proximity_warnings():
                fresh = optimize_max_min(users_now, entry.sensing_angle, geometry, cfg)
            checks.append(
                {
                    "tick": tick,
                    "stored_min_snr": entry.min_snr,
                    "achieved_min_snr": achieved,
                    "fresh_min_snr": fresh.min_snr,
                    "premise_holds": abs(achieved - entry.min_snr) <= cfg.snr_match_tol,
                    "feasible": bool(
                        np.all(deviation <= cfg.epsilon + 1e-9)
                        and np.all(np.abs(entry.weights.weights) <= 1.0 + 1e-9)
                    ),
                    "fresh_not_worse": fresh.min_snr >= entry.min_snr * slack
                    - cfg.snr_match_tol,
                }
            )
            checks[-1]["sound"] = (
                checks[-1]["premise_holds"]
                and checks[-1]["feasible"]
                and checks[-1]["fresh_not_worse"]
            )
        validation = checks

    total = sum(per_tick, UpdateStats())
    return {
        "records": records,
        "stats": {
            "ticks": scenario.num_ticks,
            "entries_reused": total.reused,
            "entries_reoptimized": total.reoptimized,
            "reoptimized_stop_reasons": dict(total.stop_reasons),
            "reoptimized_iterations": total.iterations,
            "reoptimized_tick_fraction": sum(s.reoptimized > 0 for s in per_tick)
            / scenario.num_ticks,
        },
        "timing": timing,
        "validation": validation,
    }
