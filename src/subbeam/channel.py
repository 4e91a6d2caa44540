"""Dominant-path channel simulation with sub-symbol beam switching.

Each link is a single path: amplitude attenuation, constant phase shift,
and an integer sample delay. The transmit gain seen by a delayed sample is
the gain of the beamformer that was active when that sample left the array,
so reflections straddling a beam switch are modeled faithfully.

A ``SlotBeamPlan`` says how a slot is sent: the beam of every sample and,
optionally, each DMRS window's pre-distortion amplitude (``send``). The
co-located sensing receiver is a fixed 4x4 half-wavelength planar array
with a broadside conjugate beam; ``rx_gain`` is its power gain toward a
direction and ``round_trip_gain`` a beam's transmit gain times it. Every
path is an ``Echo`` taken once per beam plan: ``monostatic_echoes`` gives
each reflector's, ``downlink_echo`` a user's (unit receive gain, the plan's
transmit amplitude toward the user). Both receivers capture through one
code path: ``apply_monostatic`` and ``apply_downlink`` sum their echoes
only on the slot's signal spans (its runs of non-zero symbols, each
extended by the largest echo delay) over a whole-slot noise draw;
elsewhere the capture is the noise alone.

This module holds only the physics; scene configs are read and converted
to these types in ``subbeam.cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arrays import (
    ArrayGeometry,
    Beamformer,
    beamforming_gain,
    conjugate_beam,
    in_field_of_view,
)
from .codebook import UserLink
from .waveform import Numerology, SlotWaveform, SubSymbolSchedule

__all__ = [
    "SPEED_OF_LIGHT",
    "PathModel",
    "Reflector",
    "SceneUser",
    "Scene",
    "SlotBeamPlan",
    "Echo",
    "downlink_echo",
    "apply_downlink",
    "monostatic_echoes",
    "apply_monostatic",
    "rx_gain",
    "round_trip_gain",
]

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class PathModel:
    """One propagation path: amplitude attenuation, phase shift, sample delay."""

    attenuation: float
    phase_shift: float = 0.0
    delay_samples: int = 0

    def __post_init__(self):
        if not 0.0 <= self.attenuation <= 1.0:
            raise ValueError("attenuation must be in [0, 1]")
        if self.delay_samples < 0:
            raise ValueError("delay_samples must be >= 0")

    @property
    def coefficient(self) -> complex:
        return self.attenuation * np.exp(1j * self.phase_shift)


@dataclass(frozen=True)
class Reflector:
    azimuth: float
    path: PathModel
    elevation: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not in_field_of_view(self.azimuth):
            raise ValueError("reflector azimuth outside the field of view")
        if not in_field_of_view(self.elevation):
            raise ValueError("reflector elevation outside the field of view")


@dataclass(frozen=True)
class SceneUser:
    link: UserLink
    path: PathModel


@dataclass(frozen=True)
class Scene:
    users: tuple[SceneUser, ...] = ()
    reflectors: tuple[Reflector, ...] = ()
    noise_power: float = 1e-3
    self_interference_inr_db: float | None = 20.0

    def __post_init__(self):
        if self.noise_power <= 0:
            raise ValueError("noise_power must be > 0")
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "reflectors", tuple(self.reflectors))


@dataclass(frozen=True)
class SlotBeamPlan:
    """How a slot is sent: the active beamformer of every sample, and the DMRS pre-distortion.

    ``dmrs_beams`` holds one beam list per DMRS symbol (in ascending symbol
    order), all of one length; data symbols use the fixed ``data_beam``. The
    plan derives its ``schedule`` from the numerology and that length
    (``SubSymbolSchedule.for_numerology``): one window per beam of a list.
    CP samples inherit the beam of the body sample they duplicate, and
    samples in the schedule's unused tail keep the last window's beam.
    ``dmrs_amplitude``, when given, holds one positive amplitude per window
    (``waveform.build_predistortion_plan``): ``send`` scales each window of
    every DMRS symbol by it, and the sensing receiver divides it back out.
    """

    numerology: Numerology
    dmrs_beams: tuple  # tuple[tuple[Beamformer, ...], ...]
    data_beam: Beamformer
    dmrs_amplitude: np.ndarray | None = None
    schedule: SubSymbolSchedule = field(init=False)

    def __post_init__(self):
        per_symbol = tuple(tuple(beams) for beams in self.dmrs_beams)
        if len(per_symbol) != len(self.numerology.dmrs_positions()):
            raise ValueError("need one beam list per DMRS symbol")
        if len({len(beams) for beams in per_symbol}) != 1:
            raise ValueError("every DMRS symbol needs the same number of beams")
        object.__setattr__(self, "dmrs_beams", per_symbol)
        schedule = SubSymbolSchedule.for_numerology(self.numerology, len(per_symbol[0]))
        object.__setattr__(self, "schedule", schedule)
        if self.dmrs_amplitude is not None:
            amp = np.asarray(self.dmrs_amplitude, dtype=float)
            if amp.shape != (schedule.num_beams,) or not np.all(amp > 0):
                raise ValueError(f"dmrs_amplitude {amp.tolist()} needs one value > 0 "
                                 f"for each of the {schedule.num_beams} windows")
            object.__setattr__(self, "dmrs_amplitude", amp)

    @classmethod
    def uniform(cls, numerology, beams, data_beam, dmrs_amplitude=None) -> "SlotBeamPlan":
        """Same beam sweep on every DMRS symbol of the slot."""
        reps = len(numerology.dmrs_positions())
        return cls(numerology, (tuple(beams),) * reps, data_beam, dmrs_amplitude)

    def send(self, reference: SlotWaveform) -> SlotWaveform:
        """``reference`` as transmitted: each DMRS window scaled by its ``dmrs_amplitude``.

        Data symbols, the schedule's unused tail and a plan without amplitudes
        leave the samples bit-exact; each scaled body's CP is rebuilt from it.
        """
        if self.dmrs_amplitude is None:
            return reference
        num = self.numerology
        samples = reference.samples.copy()
        grids = reference.grids.copy()
        factors = self.dmrs_amplitude.astype(complex)
        for pos in num.dmrs_positions():
            body = reference.symbol_body(pos).copy()
            for m in range(self.schedule.num_beams):
                body[self.schedule.window(m)] *= factors[m]
            samples[num.symbol_slice(pos)] = num.with_cp(body)
            grids[pos] = np.fft.fft(body)
        return replace(reference, samples=samples, grids=grids)

    def tx_amplitude(self, geometry: ArrayGeometry, azimuth: float,
                     elevation: float | None = None) -> np.ndarray:
        """sqrt(tx gain) toward one direction for every slot sample.

        Each distinct beam object's gain is computed once per call; the rows
        of a uniform plan share their beams.
        """
        by_beam = {}

        def beam_amp(beam):
            if id(beam) not in by_beam:
                by_beam[id(beam)] = math.sqrt(beamforming_gain(beam, geometry, azimuth, elevation))
            return by_beam[id(beam)]

        num = self.numerology
        amp = np.empty(num.slot_len)
        amp[:] = beam_amp(self.data_beam)
        dmrs_positions = num.dmrs_positions()
        body_amp = np.empty(num.fft_size)
        for row, pos in enumerate(dmrs_positions):
            gains = [beam_amp(b) for b in self.dmrs_beams[row]]
            for m in range(self.schedule.num_beams):
                body_amp[self.schedule.window(m)] = gains[m]
            if self.schedule.unused_tail:
                body_amp[self.schedule.num_beams * self.schedule.sub_len:] = gains[-1]
            amp[num.symbol_slice(pos)] = num.with_cp(body_amp)
        return amp


def _complex_noise(rng, n, power):
    """n complex AWGN samples of total ``power``: real parts drawn first, then imaginary."""
    noise = np.empty(n, dtype=complex)
    noise.real = rng.standard_normal(n)
    noise.imag = rng.standard_normal(n)
    noise *= math.sqrt(power / 2.0)
    return noise


# The sensing receiver: a broadside conjugate beam on a 4x4 planar array.
_RX_GEOMETRY = ArrayGeometry.planar(4, 4, 0.5)
_RX_BEAM = conjugate_beam(_RX_GEOMETRY, 0.0, 0.0)


def rx_gain(azimuth: float, elevation: float = 0.0) -> float:
    """Power gain of the fixed sensing receive beam toward one direction."""
    return beamforming_gain(_RX_BEAM, _RX_GEOMETRY, azimuth, elevation)


def round_trip_gain(beam, geometry: ArrayGeometry, azimuth: float, elevation=None) -> float:
    """``beam``'s transmit power gain toward a direction times ``rx_gain`` (elevation 0 if None)."""
    rx = rx_gain(azimuth, 0.0 if elevation is None else elevation)
    return beamforming_gain(beam, geometry, azimuth, elevation) * rx


@dataclass(frozen=True)
class Echo:
    """One path under a beam plan, as its receiver sees it.

    A reflector's round trip to the sensing receiver (``monostatic_echoes``)
    or a user's downlink path (``downlink_echo``, with ``rx_amp`` 1).
    ``tx_amp`` is sqrt(tx gain) toward the far end for every slot sample
    (``SlotBeamPlan.tx_amplitude``), ``rx_amp`` sqrt(``rx_gain``) from it.
    """

    coefficient: complex
    rx_amp: float
    tx_amp: np.ndarray
    delay: int


def monostatic_echoes(
    plan: SlotBeamPlan, scene: Scene, geometry: ArrayGeometry
) -> tuple[Echo, ...]:
    """Each reflector's ``Echo``: the gains every capture of ``scene`` under ``plan`` shares."""
    elevation_aware = geometry.layout == "planar"
    return tuple(
        Echo(
            coefficient=refl.path.coefficient,
            rx_amp=math.sqrt(rx_gain(refl.azimuth, refl.elevation)),
            tx_amp=plan.tx_amplitude(
                geometry, refl.azimuth, refl.elevation if elevation_aware else None
            ),
            delay=refl.path.delay_samples,
        )
        for refl in scene.reflectors
    )


def _signal_spans(slot: SlotWaveform, reach: int) -> list[slice]:
    """The sample runs of ``slot`` that an echo reaching ``reach`` samples late can touch.

    Each run of consecutive symbols with a non-zero sample is extended by
    ``reach`` samples (up to the slot end); runs whose extensions touch are
    merged. Read from the samples themselves, so no signal goes unseen.
    """
    num = slot.numerology
    busy = slot.samples.reshape(num.symbols_per_slot, num.symbol_len).any(axis=1)
    spans = []
    for pos in np.flatnonzero(busy).tolist():
        start = pos * num.symbol_len
        stop = min(start + num.symbol_len + reach, num.slot_len)
        if spans and spans[-1][1] >= start:
            spans[-1][1] = stop
        else:
            spans.append([start, stop])
    return [slice(start, stop) for start, stop in spans]


def _capture(
    slot: SlotWaveform, echoes: tuple[Echo, ...], noise_power: float, leak: float, seed: int
) -> np.ndarray:
    """The whole-slot noise draw from ``seed`` plus, on the signal spans, the echoes and leakage."""
    samples = slot.samples
    rx = _complex_noise(np.random.default_rng(seed), len(samples), noise_power)
    for span in _signal_spans(slot, max((echo.delay for echo in echoes), default=0)):
        out = np.zeros(span.stop - span.start, dtype=complex)
        for echo in echoes:
            if echo.delay < len(out):
                src = slice(span.start, span.stop - echo.delay)
                sent = echo.tx_amp[src] * samples[src]
                out[echo.delay:] += echo.coefficient * echo.rx_amp * sent
        if leak:
            out += leak * samples[span]
        rx[span] += out
    return rx


def downlink_echo(plan: SlotBeamPlan, user: SceneUser, geometry: ArrayGeometry) -> Echo:
    """A user's dominant path as the ``Echo`` every slot sent under ``plan`` shares."""
    amp = plan.tx_amplitude(geometry, user.link.angle)
    return Echo(user.path.coefficient, 1.0, amp, user.path.delay_samples)


def apply_downlink(slot: SlotWaveform, echo: Echo, noise_power: float, seed: int) -> np.ndarray:
    """Received samples at one user: its ``downlink_echo`` plus AWGN from ``seed``, no leakage."""
    return _capture(slot, (echo,), noise_power, 0.0, seed)


def apply_monostatic(
    slot: SlotWaveform,
    echoes: tuple[Echo, ...],
    scene: Scene,
    seed: int = 0,
) -> np.ndarray:
    """Round-trip reflections captured at the co-located sensing receiver.

    Sums the ``echoes`` of the scene's reflectors (``monostatic_echoes``),
    adds AWGN at the scene noise power, and, when configured, direct TX
    leakage at the scene's interference-to-noise ratio with zero delay.
    The noise covers the whole slot, so a capture's noise depends only on
    ``seed`` and the slot length. The echoes and the leakage are applied
    only on the signal spans: each run of symbols that carry a non-zero
    sample, extended by the largest echo delay. Everywhere else they would
    add exact zeros, so the capture there is the noise alone, bit for bit.
    """
    leak = 0.0
    if scene.self_interference_inr_db is not None:
        mean_power = float(np.mean(np.abs(slot.samples) ** 2))
        if mean_power > 0:
            leak_power = scene.noise_power * 10.0 ** (scene.self_interference_inr_db / 10.0)
            leak = math.sqrt(leak_power / mean_power)
    return _capture(slot, echoes, scene.noise_power, leak, seed)
