"""Reference operating modes sharing one scene for comparisons.

* ``subf``: conjugate beam to a single user on every symbol (classic
  single-user beamforming); sensing rides on whatever that beam reflects.
* ``fixed``: one sensing angle per DMRS symbol, whole-symbol conjugate beam
  (SSB-style sweeping baseline), full-bandwidth sensing CSI.
* ``switched``: the full sub-symbol switching pipeline with pre-distortion.
"""

from __future__ import annotations

import math

import numpy as np

from ..arrays import ArrayGeometry, conjugate_beam
from ..channel import Scene, SlotBeamPlan, downlink_echo, monostatic_echoes, round_trip_gain
from ..codebook import OptimizerConfig, build_codebook, design_data_beam
from ..runio import Table
from ..sensing import DelaySearchConfig
from ..waveform import Numerology, SubSymbolSchedule, build_predistortion_plan, generate_slot
from .link import (
    check_reflector_delays, genie_csi, noise_power_for_user_snr, score_user, sense_dmrs,
)

__all__ = ["run_baseline", "BASELINE_MODES"]

BASELINE_MODES = ("subf", "fixed", "switched")


def _sensing_profile(res, beam, geometry, angle):
    """Mean normalized CSI amplitude (dB) over usable bins at one angle.

    The round-trip gain divisor is floored at isotropic so a mode whose beam
    does not illuminate the angle reports its noise level rather than an
    unbounded number.
    """
    g = max(round_trip_gain(beam, geometry, angle), 1.0)
    amps = np.abs(res.csi[res.valid]) / math.sqrt(g)
    return 20.0 * math.log10(float(np.mean(amps)) + 1e-30)


def run_baseline(
    modes,
    scene: Scene,
    sensing_angle: float,
    sweep: list[float],
    geometry: ArrayGeometry,
    numerology: Numerology,
    cfg: OptimizerConfig,
    search: DelaySearchConfig,
    snr_db: float,
    modulation: str,
    seed: int,
) -> Table:
    """Run each of ``modes`` over the scene; one row per mode and user.

    All modes transmit the same slot and are scored identically: EVM per
    user from estimated and from genie CSI, and the gain-normalized sensing
    CSI amplitude toward ``sensing_angle``. Every mode and the scene are
    checked before the first mode runs.
    """
    for mode in modes:
        if mode not in BASELINE_MODES:
            raise ValueError(f"unknown baseline mode {mode!r}")
    users = [su.link for su in scene.users]
    if not users:
        raise ValueError("baselines need at least one user")
    check_reflector_delays(scene, search)
    if "switched" in modes:  # its plan's schedule, built to fail before solving
        SubSymbolSchedule.for_numerology(numerology, len(sweep))

    table = Table(
        ["mode", "user", "evm_percent", "evm_percent_genie", "ber",
         "sensing_amplitude_db", "beam_switches_per_dmrs"],
        line="{mode} user {user}: EVM {evm_percent:.2f}%; sensing level "
        "{sensing_amplitude_db:.2f} dB; {beam_switches_per_dmrs} switch(es)/DMRS",
    )
    for mode in modes:
        amplitude = None
        if mode == "subf":
            beam = conjugate_beam(geometry, users[0].angle)
            dmrs_beams = [beam]
            data_beam = beam
        elif mode == "fixed":
            dmrs_beams = [conjugate_beam(geometry, sensing_angle)]
            data_beam = design_data_beam(users, geometry, cfg)
        else:
            codebook = build_codebook(users, sweep, geometry, cfg)
            dmrs_beams = codebook.beams()
            data_beam = design_data_beam(users, geometry, cfg)
            amplitude = build_predistortion_plan(dmrs_beams, data_beam, users, geometry)

        plan = SlotBeamPlan.uniform(numerology, dmrs_beams, data_beam, amplitude)
        reference = generate_slot(numerology, modulation, seed=seed)
        tx = plan.send(reference)

        # Sensing: estimate at the DMRS beam matching the requested angle,
        # on the slot's first DMRS symbol.
        echoes = monostatic_echoes(plan, scene, geometry)
        results = sense_dmrs(tx, reference, plan, echoes, scene, search, seed + 97)[0]
        if mode == "switched":
            beam_idx = int(np.argmin([abs(a - sensing_angle) for a in sweep]))
        else:
            beam_idx = 0
        level_db = _sensing_profile(
            results[beam_idx], dmrs_beams[beam_idx], geometry, sensing_angle
        )

        for u_idx, su in enumerate(scene.users):
            # snr_db under dedicated conjugate beamforming (gain N^2), the same
            # floor in every mode so beamformer quality differences show up.
            noise = noise_power_for_user_snr(snr_db, geometry.num_elements**2, su, numerology)
            echo = downlink_echo(plan, su, geometry)
            genie = genie_csi(data_beam, geometry, su, numerology)
            est, gen = score_user(tx, reference, echo, genie, noise, seed + u_idx)
            table.add(
                mode, u_idx, est["evm_percent"], gen["evm_percent"], est["ber"],
                level_db, len(dmrs_beams),
            )
    return table
