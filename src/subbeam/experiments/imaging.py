"""2D reflection imaging by sweeping pixel beams across azimuth and elevation.

Each DMRS symbol carries one chunk of pixel beams (one per sub-symbol
window); the received power of every pixel's sensing CSI fills the heatmap.
Pixel values are gain-normalized so brightness tracks reflectivity rather
than beam-gain variation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..arrays import ArrayGeometry, Beamformer, conjugate_beam, steering_vector
from ..channel import Scene, SlotBeamPlan, monostatic_echoes, round_trip_gain
from ..codebook import OptimizerConfig, build_codebook
from ..runio import Table, fmt
from ..sensing import DelaySearchConfig
from ..waveform import SLOT_DURATION_S, Numerology, SubSymbolSchedule, generate_slot
from .link import check_reflector_delays, sense_dmrs

__all__ = ["ImagingGrid", "air_time", "run_imaging"]


@dataclass
class ImagingGrid:
    az_angles: np.ndarray  # radians
    el_angles: np.ndarray  # radians
    power_db: np.ndarray  # (n_el, n_az), gain-normalized
    slots_used: int
    air_time_ms: float  # whole-slot accounting
    air_time_ms_dmrs: float  # partial slot counted by DMRS symbols used

    def heatmap(self) -> Table:
        """``power_db`` with one row per elevation and one column per azimuth, in degrees."""
        table = Table(["el_deg\\az_deg", *(fmt(float(a)) for a in np.degrees(self.az_angles))])
        for el, row in zip(np.degrees(self.el_angles), self.power_db):
            table.add(float(el), *row)
        return table


def air_time(num_pixels: int, beams_per_symbol: int, numerology: Numerology):
    """Both air-time accountings for a sweep of ``num_pixels`` directions.

    Whole-slot: ceil(pixels / (beams * DMRS symbols per slot)) slots.
    DMRS-counted: each fully-used DMRS symbol costs 1/D of a slot, with the
    partially-filled final symbol dropped from the tally.
    """
    d = len(numerology.dmrs_positions())
    per_slot = beams_per_symbol * d
    slots = math.ceil(num_pixels / per_slot)
    slot_ms = SLOT_DURATION_S * 1e3
    dmrs_ms = (num_pixels // beams_per_symbol) * slot_ms / d
    return slots, slots * slot_ms, dmrs_ms


def _pixel_beam(
    geometry: ArrayGeometry,
    azimuth: float,
    elevation: float,
    w_az: np.ndarray | None,
) -> Beamformer:
    """Conjugate pixel beam; with users, ``w_az`` are the codebook's azimuth weights.

    The planar weights are the separable product of the azimuth row weights
    and the conjugate elevation column taper.
    """
    n_az, n_el = geometry.planar_shape
    if w_az is None:
        return conjugate_beam(geometry, azimuth, elevation)
    row_geo = ArrayGeometry.ula(n_el, geometry.spacing)
    w_el = np.conj(steering_vector(row_geo, elevation))
    return Beamformer(np.kron(w_el, w_az))


def run_imaging(
    scene: Scene,
    az_angles,
    el_angles,
    numerology: Numerology,
    geometry: ArrayGeometry,
    beams_per_symbol: int,
    cfg: OptimizerConfig,
    search: DelaySearchConfig,
    seed: int,
    repeats: int = 1,
) -> ImagingGrid:
    """Sweep all (azimuth, elevation) pixels and map received sensing power.

    With users in the scene the azimuth weights of each pixel column are
    the ``build_codebook`` entry for that azimuth (max-min user SNR around
    that sensing angle, on one row of the array) and are combined with a
    conjugate elevation taper; otherwise pixels use plain planar conjugate
    beams. ``repeats`` re-runs the sweep on fresh slots and averages
    per-pixel power, suppressing the per-window fading ripple of a single
    snapshot; the air-time figures always describe one sweep.
    """
    if geometry.layout != "planar":
        raise ValueError("imaging requires a planar geometry")
    check_reflector_delays(scene, search)
    # Each slot's plan derives this schedule; build it once to fail before solving.
    SubSymbolSchedule.for_numerology(numerology, beams_per_symbol)
    az_angles = np.asarray(az_angles, dtype=float)
    el_angles = np.asarray(el_angles, dtype=float)
    users = [su.link for su in scene.users]

    az_weights = [None] * len(az_angles)
    if users:
        row_geo = ArrayGeometry.ula(geometry.planar_shape[0], geometry.spacing)
        codebook = build_codebook(users, list(az_angles), row_geo, cfg)
        az_weights = [w.weights for w in codebook.beams()]

    pixels = [(az, el) for el in el_angles for az in az_angles]
    beams = [
        _pixel_beam(geometry, az, el, w_az)
        for el in el_angles
        for az, w_az in zip(az_angles, az_weights)
    ]

    # Pad the final symbol with its last beam and the final slot with copies
    # of its last symbol; the padding's powers come last and are dropped.
    num_dmrs = len(numerology.dmrs_positions())
    chunks = [beams[i : i + beams_per_symbol] for i in range(0, len(beams), beams_per_symbol)]
    chunks[-1] += [chunks[-1][-1]] * (beams_per_symbol - len(chunks[-1]))
    chunks += [chunks[-1]] * (-len(chunks) % num_dmrs)

    raw_power = np.zeros(len(pixels))
    for sweep_idx in range(repeats):
        powers = []
        for slot_idx, first in enumerate(range(0, len(chunks), num_dmrs)):
            slot_chunks = chunks[first : first + num_dmrs]
            bplan = SlotBeamPlan(numerology, slot_chunks, slot_chunks[0][0])
            # Fresh reference sequence per slot: frozen DMRS would freeze the
            # per-window bin weights and bias pixels relative to each other.
            slot_seed = seed + 31 * slot_idx + 1_000_003 * sweep_idx
            slot = generate_slot(numerology, "QPSK", seed=slot_seed, dmrs_seed=slot_seed)
            echoes = monostatic_echoes(bplan, scene, geometry)
            captures = sense_dmrs(slot, slot, bplan, echoes, scene, search, slot_seed + 7919)
            powers += [r.power for results in captures for r in results]
        raw_power += powers[: len(pixels)]
    raw_power /= repeats

    norm = np.array([round_trip_gain(b, geometry, az, el) for b, (az, el) in zip(beams, pixels)])
    shape = (len(el_angles), len(az_angles))
    norm_db = 10.0 * np.log10(raw_power / norm + 1e-30).reshape(shape)
    slots, air_ms, air_ms_dmrs = air_time(len(pixels), beams_per_symbol, numerology)
    return ImagingGrid(
        az_angles=az_angles,
        el_angles=el_angles,
        power_db=norm_db,
        slots_used=slots,
        air_time_ms=air_ms,
        air_time_ms_dmrs=air_ms_dmrs,
    )
