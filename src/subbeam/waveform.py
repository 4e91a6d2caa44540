"""Slot waveform generation, DMRS pre-distortion amplitudes, and user-side demodulation.

A slot holds 14 OFDM symbols (CP + body each); four of them carry known
reference (DMRS) grids used for channel estimation and sensing, the rest
carry random QAM data (zeros in a sensing-only slot). Only the middle block
of subcarriers is occupied. Frequency grids use the natural FFT bin order;
"occupied" bins are the centered block around DC after fftshift.
``build_predistortion_plan`` gives each DMRS window's amplitude; the beam
plan that carries them (``channel.SlotBeamPlan``) applies them to a slot.
A user receiver transforms each slot once (``symbol_spectra``, one batched
FFT of the bodies); ``slot_user_csi`` and ``demodulate_and_score`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, Beamformer, steering_vector

__all__ = [
    "SLOT_DURATION_S",
    "Numerology",
    "SubSymbolSchedule",
    "SlotWaveform",
    "MODULATIONS",
    "generate_slot",
    "sensing_slot",
    "build_predistortion_plan",
    "symbol_spectra",
    "slot_user_csi",
    "demodulate_and_score",
    "write_iq",
    "read_iq",
]

# Default seed for the reference-signal sequence; shared by transmitter and
# receivers so the DMRS grids are pre-defined and identical across users.
DEFAULT_DMRS_SEED = 0x5103
# The DMRS QPSK points exp(j*(pi/4 + pi/2*q)), q = 0..3, looked up by q.
_DMRS_QPSK = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))

# Nominal over-the-air slot duration of numerology 3. A Numerology's
# uniform-CP sample budget is a hair shorter (the real frame pads the first
# CP); air-time accounting uses this figure.
SLOT_DURATION_S = 125e-6

MODULATIONS = {
    "QPSK": 2,
    "16QAM": 4,
    "64QAM": 6,
    "256QAM": 8,
}


@dataclass(frozen=True)
class Numerology:
    """OFDM slot parameters (defaults follow 5G FR2 numerology 3)."""

    fft_size: int = 1024
    occupied_subcarriers: int = 768
    cp_length: int = 72
    sample_rate: float = 122.88e6
    symbols_per_slot: int = 14
    dmrs_symbol_indices: frozenset = frozenset({3, 4, 11, 12})  # 1-based

    def __post_init__(self):
        if self.fft_size < 1 or self.occupied_subcarriers < 1:
            raise ValueError("fft_size and occupied_subcarriers must be positive")
        if self.occupied_subcarriers > self.fft_size:
            raise ValueError("occupied_subcarriers exceeds fft_size")
        if not 0 <= self.cp_length <= self.fft_size:
            raise ValueError(f"cp_length {self.cp_length} outside 0..fft_size {self.fft_size}")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if not self.dmrs_symbol_indices:
            raise ValueError("dmrs_symbol_indices must name at least one DMRS symbol")
        bad = [i for i in self.dmrs_symbol_indices if not 1 <= i <= self.symbols_per_slot]
        if bad:
            raise ValueError(f"DMRS symbol indices out of range: {bad}")

    @property
    def symbol_len(self) -> int:
        return self.cp_length + self.fft_size

    @property
    def slot_len(self) -> int:
        return self.symbols_per_slot * self.symbol_len

    def with_cp(self, body: np.ndarray) -> np.ndarray:
        """One symbol's samples: the body's last ``cp_length`` samples, then the body."""
        cp = self.cp_length
        return np.concatenate([body[-cp:] if cp else body[:0], body])

    def occupied_bins(self) -> np.ndarray:
        """FFT bin indices (natural order) of the centered occupied block."""
        half = self.occupied_subcarriers // 2
        upper = np.arange(0, self.occupied_subcarriers - half)
        lower = np.arange(self.fft_size - half, self.fft_size)
        return np.concatenate([lower, upper])

    def dmrs_positions(self) -> list[int]:
        """0-based symbol positions of the DMRS symbols, ascending."""
        return sorted(i - 1 for i in self.dmrs_symbol_indices)

    def data_positions(self) -> list[int]:
        dmrs = set(self.dmrs_positions())
        return [i for i in range(self.symbols_per_slot) if i not in dmrs]

    def symbol_slice(self, position: int, include_cp: bool = True) -> slice:
        start = position * self.symbol_len
        if include_cp:
            return slice(start, start + self.symbol_len)
        return slice(start + self.cp_length, start + self.symbol_len)


@dataclass(frozen=True)
class SubSymbolSchedule:
    """Beam-per-window mapping inside one DMRS symbol body.

    The body is split into ``num_beams`` windows of ``sub_len`` samples;
    the trailing fft_size - num_beams*sub_len samples belong to no window
    (the estimator ignores them).
    """

    num_beams: int
    sub_len: int
    fft_size: int

    def __post_init__(self):
        if self.num_beams < 1 or self.sub_len < 1:
            raise ValueError("num_beams and sub_len must be positive")
        if self.num_beams * self.sub_len > self.fft_size:
            raise ValueError("schedule does not fit in the symbol body")

    @classmethod
    def for_numerology(cls, numerology: Numerology, num_beams: int) -> "SubSymbolSchedule":
        if not 1 <= num_beams <= numerology.fft_size:
            raise ValueError(f"num_beams {num_beams} outside 1..{numerology.fft_size}")
        return cls(
            num_beams=num_beams,
            sub_len=numerology.fft_size // num_beams,
            fft_size=numerology.fft_size,
        )

    @property
    def unused_tail(self) -> int:
        return self.fft_size - self.num_beams * self.sub_len

    def window(self, m: int) -> slice:
        if not 0 <= m < self.num_beams:
            raise IndexError("beam index out of range")
        return slice(m * self.sub_len, (m + 1) * self.sub_len)


def _axis_levels(bits_per_axis: int) -> np.ndarray:
    n = 1 << bits_per_axis
    return 2.0 * np.arange(n) - (n - 1)


def constellation(modulation: str) -> tuple[np.ndarray, float]:
    """(per-axis levels, normalization) for a square Gray-mapped QAM."""
    if modulation not in MODULATIONS:
        raise ValueError(f"unknown modulation {modulation!r}")
    bits = MODULATIONS[modulation]
    levels = _axis_levels(bits // 2)
    norm = math.sqrt(2.0 * (len(levels) ** 2 - 1) / 3.0)
    return levels, norm


def _symbols_from_indices(i_idx, q_idx, levels, norm):
    return (levels[i_idx] + 1j * levels[q_idx]) / norm


def _slice_axis(values: np.ndarray, levels: np.ndarray, norm: float) -> np.ndarray:
    idx = np.round((values * norm + len(levels) - 1) / 2.0).astype(int)
    return np.clip(idx, 0, len(levels) - 1)


@dataclass(frozen=True)
class SlotWaveform:
    """One slot: concatenated (CP + body) samples plus per-symbol grids."""

    numerology: Numerology
    modulation: str | None  # None for a sensing-only slot
    grids: np.ndarray  # (symbols_per_slot, fft_size) complex
    samples: np.ndarray  # (slot_len,) complex

    def symbol_body(self, position: int) -> np.ndarray:
        return self.samples[self.numerology.symbol_slice(position, include_cp=False)]


def _assemble_samples(numerology: Numerology, grids: np.ndarray, positions) -> np.ndarray:
    """Slot samples of the symbols at ``positions``; every other symbol stays zero."""
    bodies = np.fft.ifft(grids[positions], axis=1)
    out = np.zeros(numerology.slot_len, dtype=np.complex128)
    for pos, body in zip(positions, bodies):
        out[numerology.symbol_slice(pos)] = numerology.with_cp(body)
    return out


def _dmrs_grids(numerology: Numerology, dmrs_seed: int | None) -> np.ndarray:
    """Slot grids holding the DMRS rows, unit modulus on every occupied bin; data rows zero.

    Each DMRS symbol draws its own sequence from ``dmrs_seed`` (a fixed
    default when ``None``) plus its position.
    """
    bins = numerology.occupied_bins()
    base = DEFAULT_DMRS_SEED if dmrs_seed is None else dmrs_seed
    grids = np.zeros((numerology.symbols_per_slot, numerology.fft_size), dtype=complex)
    for pos in numerology.dmrs_positions():
        quad = np.random.default_rng(base + pos).integers(0, 4, size=len(bins))
        grids[pos, bins] = _DMRS_QPSK[quad]
    return grids


def generate_slot(
    numerology: Numerology,
    modulation: str,
    seed: int,
    dmrs_seed: int | None = None,
) -> SlotWaveform:
    """Build a slot: random QAM data symbols plus known unit-modulus DMRS.

    ``seed`` drives the data payload only. The DMRS rows are those of
    ``sensing_slot(numerology, dmrs_seed)``, so waveforms generated for
    different users share identical reference symbols. Unoccupied bins are
    exactly zero.
    """
    levels, norm = constellation(modulation)
    bins = numerology.occupied_bins()
    rng = np.random.default_rng(seed)
    grids = _dmrs_grids(numerology, dmrs_seed)
    for pos in numerology.data_positions():
        i_idx = rng.integers(0, len(levels), size=len(bins))
        q_idx = rng.integers(0, len(levels), size=len(bins))
        grids[pos, bins] = _symbols_from_indices(i_idx, q_idx, levels, norm)
    return SlotWaveform(
        numerology=numerology,
        modulation=modulation,
        grids=grids,
        samples=_assemble_samples(numerology, grids, list(range(numerology.symbols_per_slot))),
    )


def sensing_slot(numerology: Numerology, dmrs_seed: int | None = None) -> SlotWaveform:
    """A sensing-only slot: ``generate_slot``'s DMRS symbols and all-zero data symbols.

    No payload is drawn and only the DMRS rows are transformed; each DMRS
    symbol's samples equal those of any ``generate_slot`` with the same
    ``dmrs_seed`` bit for bit. The slot has no modulation to demodulate.
    """
    grids = _dmrs_grids(numerology, dmrs_seed)
    return SlotWaveform(
        numerology=numerology,
        modulation=None,
        grids=grids,
        samples=_assemble_samples(numerology, grids, numerology.dmrs_positions()),
    )


def build_predistortion_plan(
    dmrs_beams: list[Beamformer],
    data_beam: Beamformer,
    users,
    geometry: ArrayGeometry,
) -> np.ndarray | None:
    """Gain-ratio amplitude of each sub-symbol beam, the beam plan's ``dmrs_amplitude``.

    ``amplitude[m]`` is sqrt(sum_u g_data_u / sum_u g_dmrs_mu), which
    equalizes the received DMRS power with the data symbols: the simulated
    channel applies magnitude beam gains, so amplitude-only factors make the
    received DMRS level match the data symbols exactly. With no users there
    is nothing to compensate and ``None`` is returned.
    """
    if not users:
        return None
    m_beams = len(dmrs_beams)
    s_users = np.array([steering_vector(geometry, u.angle) for u in users])
    inner_data = s_users @ data_beam.weights
    g_data = np.abs(inner_data) ** 2
    amplitude = np.empty(m_beams)
    for m, beam in enumerate(dmrs_beams):
        inner = s_users @ beam.weights
        g_sum = float(np.sum(np.abs(inner) ** 2))
        if g_sum <= 1e-30:
            raise ValueError(
                f"sub-symbol beam {m} has no gain toward any user; "
                "cannot form the pre-distortion ratio"
            )
        amplitude[m] = math.sqrt(float(np.sum(g_data)) / g_sum)
    return amplitude


def symbol_spectra(samples: np.ndarray, numerology: Numerology) -> np.ndarray:
    """FFT of every CP-stripped symbol body of one slot, shape (symbols_per_slot, fft_size)."""
    num = numerology
    if len(samples) != num.slot_len:
        raise ValueError(f"got {len(samples)} samples, a slot holds {num.slot_len}")
    bodies = samples.reshape(num.symbols_per_slot, num.symbol_len)[:, num.cp_length:]
    return np.fft.fft(bodies, axis=1)


def slot_user_csi(rx_spectra: np.ndarray, reference: SlotWaveform) -> np.ndarray:
    """Per-subcarrier channel estimate Y[k]/X[k] on the occupied bins, averaged over the DMRS.

    ``rx_spectra`` is ``symbol_spectra`` of whatever the channel delivered;
    the reference is the undistorted slot (the sequence users know).
    """
    num = reference.numerology
    rows = num.dmrs_positions()
    bins = num.occupied_bins()
    # np.take keeps the rows C-ordered, so the mean adds them one after another.
    h = np.take(rx_spectra[rows], bins, axis=1) / np.take(
        symbol_spectra(reference.samples, num)[rows], bins, axis=1
    )
    return np.add.reduce(h, axis=0) / len(rows)


def demodulate_and_score(
    rx_spectra: np.ndarray,
    tx_slot: SlotWaveform,
    csis: list[np.ndarray],
) -> list[dict]:
    """Equalize the data symbols by each of ``csis``, slice, and report EVM (%) and uncoded BER.

    ``rx_spectra`` holds the received frequency grid of every symbol of the
    slot (``symbol_spectra``); only the data rows are read. EVM is the RMS
    error vector relative to the transmitted constellation points, in
    percent, sliced with the slot's own modulation. The transmitted points
    are sliced once for all of ``csis``; returns one result per CSI, in order.
    """
    levels, norm = constellation(tx_slot.modulation)
    bits_axis = MODULATIONS[tx_slot.modulation] // 2
    num = tx_slot.numerology
    bins = num.occupied_bins()
    rows = num.data_positions()
    rx = np.take(rx_spectra[rows], bins, axis=1)
    ref = np.take(tx_slot.grids[rows], bins, axis=1)
    # Each row's power sums pairwise, and the rows add in slot order.
    ref_power = sum(np.sum(np.abs(ref) ** 2, axis=1).tolist())
    ref_idx = _slice_axis(np.stack([ref.real, ref.imag]), levels, norm)
    ref_gray = ref_idx ^ (ref_idx >> 1)
    bit_total = ref_gray.size * bits_axis
    scores = []
    for csi in csis:
        eq = rx / csi
        err_power = sum(np.sum(np.abs(eq - ref) ** 2, axis=1).tolist())
        idx = _slice_axis(np.stack([eq.real, eq.imag]), levels, norm)
        flips = ref_gray ^ idx ^ (idx >> 1)
        bit_errors = sum(int(np.count_nonzero((flips >> b) & 1)) for b in range(bits_axis))
        scores.append({"evm_percent": 100.0 * math.sqrt(err_power / ref_power),
                       "ber": bit_errors / bit_total, "bits": bit_total})
    return scores


# ---------------------------------------------------------------------------
# I/Q file exchange: text header + interleaved float32 little-endian payload
# ---------------------------------------------------------------------------


def write_iq(path, samples: np.ndarray, numerology: Numerology, extra: dict | None = None):
    starts = [numerology.symbol_slice(i).start for i in range(numerology.symbols_per_slot)]
    header = [
        "IQ32F v1",
        f"sample_rate_hz {numerology.sample_rate!r}",
        f"fft_size {numerology.fft_size}",
        f"cp_length {numerology.cp_length}",
        f"symbols_per_slot {numerology.symbols_per_slot}",
        f"num_samples {len(samples)}",
        "symbol_starts " + ",".join(str(s) for s in starts),
    ]
    for key, value in (extra or {}).items():
        header.append(f"{key} {value}")
    header.append("end_header")
    interleaved = np.empty(2 * len(samples), dtype="<f4")
    interleaved[0::2] = np.real(samples)
    interleaved[1::2] = np.imag(samples)
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(interleaved.tobytes())


def read_iq(path) -> tuple[np.ndarray, dict]:
    meta = {}
    with open(path, "rb") as f:
        magic = f.readline().decode("ascii").strip()
        if magic != "IQ32F v1":
            raise ValueError(f"not an IQ32F v1 file: {magic!r}")
        while True:
            line = f.readline().decode("ascii").strip()
            if line == "end_header":
                break
            if not line:
                raise ValueError("truncated I/Q header")
            key, _, value = line.partition(" ")
            meta[key] = value
        payload = np.frombuffer(f.read(), dtype="<f4")
    samples = payload[0::2].astype(np.float64) + 1j * payload[1::2].astype(np.float64)
    expected = int(meta.get("num_samples", len(samples)))
    if len(samples) != expected:
        raise ValueError("payload length does not match the header")
    return samples, meta
