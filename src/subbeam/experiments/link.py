"""End-to-end single-scene simulation: codebook, slot, channel, both receivers.

This is the piece the `simulate` command and the baseline comparisons build
on: optimize the codebook for the scene's users, transmit one or more
pre-distorted slots, estimate the communication CSI at each user and the
sensing CSI at the base station, and score both sides. One beam plan
(``channel.SlotBeamPlan``) sends every slot, DMRS pre-distortion included,
and each user's path (``channel.downlink_echo``), genie CSI and noise power
are taken once per plan. Users capture through the sensing receiver's echo
sum, and each user slot is transformed once (``symbol_spectra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arrays import ArrayGeometry, Beamformer, beamforming_gain
from ..channel import (
    Echo,
    Scene,
    SceneUser,
    SlotBeamPlan,
    apply_downlink,
    apply_monostatic,
    downlink_echo,
    monostatic_echoes,
    round_trip_gain,
)
from ..codebook import Codebook, OptimizerConfig, build_codebook, design_data_beam
from ..runio import Table
from ..sensing import DelaySearchConfig, SensingCsi, estimate_symbol_csi
from ..waveform import (
    Numerology,
    SlotWaveform,
    SubSymbolSchedule,
    build_predistortion_plan,
    demodulate_and_score,
    generate_slot,
    slot_user_csi,
    symbol_spectra,
)

__all__ = ["LinkResult", "noise_power_for_user_snr", "genie_csi", "check_reflector_delays",
           "score_user", "sense_dmrs", "run_link"]


@dataclass
class LinkResult:
    per_user: Table
    sensing_rows: Table
    codebook: Codebook
    tx: SlotWaveform  # slot 0 as transmitted


def noise_power_for_user_snr(
    snr_db: float,
    gain: float,
    user: SceneUser,
    numerology: Numerology,
) -> float:
    """Noise power giving the requested per-subcarrier data SNR at a user served with ``gain``.

    Occupied-bin signal power is gain * attenuation^2 (unit-power
    constellations); an FFT bin collects fft_size times the per-sample
    noise power.
    """
    snr = 10.0 ** (snr_db / 10.0)
    return gain * user.path.attenuation**2 / (numerology.fft_size * snr)


def genie_csi(
    data_beam: Beamformer,
    geometry: ArrayGeometry,
    user: SceneUser,
    numerology: Numerology,
) -> np.ndarray:
    """Exact data-symbol channel at the occupied bins (no estimation error)."""
    g = beamforming_gain(data_beam, geometry, user.link.angle)
    bins = numerology.occupied_bins()
    ramp = np.exp(
        -2j * np.pi * np.fft.fftfreq(numerology.fft_size)[bins] * user.path.delay_samples
    )
    return math.sqrt(g) * user.path.coefficient * ramp


def check_reflector_delays(scene: Scene, search: DelaySearchConfig) -> None:
    """Raise ValueError when a reflector's delay lies outside the delay search."""
    for i, r in enumerate(scene.reflectors):
        search.check_delay(r.path.delay_samples, f"reflector {r.label or i}")


def score_user(
    tx: SlotWaveform,
    reference: SlotWaveform,
    echo: Echo,
    genie: np.ndarray,
    noise_power: float,
    seed: int,
) -> tuple[dict, dict]:
    """Receive one slot at one user and score its data symbols.

    The user's ``echo`` (``downlink_echo``) and ``genie`` CSI (``genie_csi``)
    are taken once per beam plan; the downlink adds AWGN of ``noise_power``
    drawn from ``seed``. Returns the ``demodulate_and_score`` results with
    the CSI estimated from the slot's DMRS and with the genie CSI, both from
    one call on the same received spectra.
    """
    rx = apply_downlink(tx, echo, noise_power, seed)
    spectra = symbol_spectra(rx, reference.numerology)
    est, gen = demodulate_and_score(spectra, reference, [slot_user_csi(spectra, reference), genie])
    return est, gen


def sense_dmrs(
    tx: SlotWaveform,
    reference: SlotWaveform,
    plan: SlotBeamPlan,
    echoes: tuple[Echo, ...],
    scene: Scene,
    search: DelaySearchConfig,
    seed: int,
) -> list[list[SensingCsi]]:
    """Capture one slot at the sensing receiver and search each DMRS symbol.

    ``tx`` is ``plan.send(reference)``. The monostatic capture applies the
    scene's ``echoes`` under ``plan`` (``monostatic_echoes``, computed once
    per scene and plan) and adds the scene's noise drawn from ``seed``.
    Returns, per DMRS symbol in slot order, the delay-search result of every
    beam window of ``plan.schedule``, searched on the CP-stripped body
    against ``reference``'s body with the plan's ``dmrs_amplitude`` divided
    out. A body reads only its own symbol's samples while every echo delay
    is at most ``cp_length``, so ``tx`` may then be a ``sensing_slot``.
    """
    numerology = reference.numerology
    rx = apply_monostatic(tx, echoes, scene, seed=seed)
    return [
        estimate_symbol_csi(
            rx[numerology.symbol_slice(pos, include_cp=False)],
            reference.symbol_body(pos),
            plan.schedule,
            search,
            plan.dmrs_amplitude,
        )
        for pos in numerology.dmrs_positions()
    ]


def run_link(
    scene: Scene,
    geometry: ArrayGeometry,
    sweep: list[float],
    numerology: Numerology,
    cfg: OptimizerConfig,
    search: DelaySearchConfig,
    snr_db: float,
    modulation: str,
    seed: int,
    num_slots: int = 1,
    predistort: bool = True,
) -> LinkResult:
    """Simulate ``num_slots`` slots over one scene and score both functions.

    User-side noise is set per user from ``snr_db`` (data-symbol,
    per-subcarrier); the sensing receiver uses the scene's own noise power.
    EVM is reported for the estimated CSI and for genie CSI on the same
    received samples.
    """
    check_reflector_delays(scene, search)
    SubSymbolSchedule.for_numerology(numerology, len(sweep))  # bplan's, checked before solving
    users = [su.link for su in scene.users]
    codebook = build_codebook(users, sweep, geometry, cfg)
    beams = codebook.beams()
    data_beam = design_data_beam(users, geometry, cfg) if users else beams[0]
    amplitude = build_predistortion_plan(beams, data_beam, users, geometry) if predistort else None
    plan = SlotBeamPlan.uniform(numerology, beams, data_beam, amplitude)
    echoes = monostatic_echoes(plan, scene, geometry)
    g_norm = [  # each beam's round-trip gain toward its sensing angle
        round_trip_gain(beam, geometry, entry.sensing_angle)
        for beam, entry in zip(beams, codebook.entries)
    ]
    downlinks = [  # each user's echo, genie CSI and noise power
        (downlink_echo(plan, su, geometry), genie_csi(data_beam, geometry, su, numerology),
         noise_power_for_user_snr(snr_db, beamforming_gain(data_beam, geometry, su.link.angle),
                                  su, numerology))
        for su in scene.users
    ]

    per_user_acc = [
        {"evm_sq_est": 0.0, "evm_sq_genie": 0.0, "bit_errors": 0, "bits": 0}
        for _ in scene.users
    ]
    sensing_rows = Table([
        "slot", "symbol", "beam_index", "angle_deg", "best_delay",
        "power_db", "power_db_normalized", "slope", "loss",
    ])

    for slot_idx in range(num_slots):
        reference = generate_slot(numerology, modulation, seed=seed + 1000 * slot_idx)
        tx = plan.send(reference)
        if slot_idx == 0:
            first_tx = tx

        # Sensing side (monostatic, scene noise)
        captures = sense_dmrs(tx, reference, plan, echoes, scene, search, seed + 7919 * slot_idx)
        for sym_row, results in enumerate(captures):
            for m, res in enumerate(results):
                power = res.power
                sensing_rows.add(
                    slot_idx, sym_row, m, math.degrees(codebook.entries[m].sensing_angle),
                    res.best_delay, 10.0 * math.log10(power + 1e-30),
                    10.0 * math.log10(power / g_norm[m] + 1e-30),
                    res.slope, res.mse,
                )

        # Communication side (per-user noise)
        for u_idx, (echo, genie, noise) in enumerate(downlinks):
            est, gen = score_user(
                tx, reference, echo, genie, noise, seed + 104729 * slot_idx + u_idx
            )
            acc = per_user_acc[u_idx]
            acc["evm_sq_est"] += (est["evm_percent"] / 100.0) ** 2
            acc["evm_sq_genie"] += (gen["evm_percent"] / 100.0) ** 2
            acc["bit_errors"] += round(est["ber"] * est["bits"])
            acc["bits"] += est["bits"]

    per_user = Table(
        ["user", "angle_deg", "evm_percent", "evm_percent_genie", "ber"],
        line="user {user} @ {angle_deg:+.1f} deg: EVM {evm_percent:.2f}% "
        "(genie {evm_percent_genie:.2f}%), BER {ber:.2e}",
    )
    for u_idx, acc in enumerate(per_user_acc):
        per_user.add(
            u_idx,
            math.degrees(scene.users[u_idx].link.angle),
            100.0 * math.sqrt(acc["evm_sq_est"] / num_slots),
            100.0 * math.sqrt(acc["evm_sq_genie"] / num_slots),
            acc["bit_errors"] / acc["bits"] if acc["bits"] else 0.0,
        )
    return LinkResult(
        per_user=per_user,
        sensing_rows=sensing_rows,
        codebook=codebook,
        tx=first_tx,
    )
