"""Sub-symbol sensing CSI recovery with a queue-accelerated delay search.

For each beam window the propagation delay is unknown; candidate delays are
enumerated and the one whose CSI phase profile is most nearly linear
(weighted least squares across subcarriers) wins. Advancing the candidate
window by one sample updates its spectrum in O(N') via the sliding DFT
(Jacobsen & Lyons, "The sliding DFT", IEEE SP Magazine 2003) instead of
recomputing an O(N' log N') FFT.

One kernel runs the search for every beam window of a DMRS symbol as
(candidate x beam x bin) arrays: the spectra of all beams advance together,
each beam's usable bins are compacted to the front and padded to the widest
beam by repeating its last usable bin at zero weight, and a single unwrap
plus array reductions fit every candidate of every beam.
``estimate_symbol_csi`` is its one entry point; a single window is searched
through a one-window schedule. The spectra of all candidates come from one
``sliding_dft`` run, and the unwrap computes numpy's correction only at the
steps that wrap (|jump| >= pi), so its phases equal ``np.unwrap``'s bit for
bit. The unwrapped phases keep the memory order of the gathered CSI,
because the least-squares sums round by memory layout: the phase sums run
over the bins in order (the CSI is gathered bin-major), and the residual
sums pairwise over each contiguous row.

A window sent pre-distorted has its ``SlotBeamPlan.dmrs_amplitude`` divided
out of the CSI and folded into the fit weights.

Each beam's result is one ``SensingCsi``, finished once by the search: the
CSI at the best delay, that delay, the phase line's slope and weighted MSE,
the usable-bin mask, and the received power over the usable bins. Imaging,
localization, the link's sensing rows and the baselines read these fields
directly.

DFT convention: forward transform uses exp(-j*2*pi*k*n/N), so advancing the
window one sample multiplies each bin by exp(+j*2*pi*k/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .waveform import SubSymbolSchedule

__all__ = [
    "DelaySearchConfig",
    "SensingCsi",
    "OpCounter",
    "sliding_dft",
    "estimate_symbol_csi",
]

# Tx bins with magnitude at or below this floor are excluded from CSI fits.
TX_MAGNITUDE_FLOOR = 1e-12
# Bins whose transmit magnitude falls below this fraction of the window's RMS
# are unusable: dividing by a deeply faded bin amplifies whatever is not
# aligned with it, which would otherwise splatter spikes across power maps.
MIN_TX_FRACTION = 0.3


@dataclass(frozen=True)
class DelaySearchConfig:
    """Number of delay candidates of the search.

    The default follows ceil(log2(fft_size)) for the standard 1024-bin
    numerology.
    """

    num_candidates: int = 10

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError(f"num_candidates {self.num_candidates} must be >= 1")

    def check_delay(self, delay: int, what: str) -> None:
        """Raise ValueError when a round-trip ``delay`` (samples) lies outside
        the candidates: the search would report the last candidate instead."""
        if delay >= self.num_candidates:
            raise ValueError(
                f"{what} has round-trip delay {delay} samples, "
                f"beyond the {self.num_candidates} delay candidates"
            )


class SensingCsi(NamedTuple):
    """Recovered CSI for one beam window at its best-fitting delay.

    The phase of ``csi`` over the usable bins is fit by a line of ``slope``
    radians per bin, each residual weighted by its bin's transmitted
    magnitude |c*X[k]| (c the window's DMRS amplitude,
    ``SlotBeamPlan.dmrs_amplitude``, or 1 without one); ``mse`` is the
    weighted mean squared residual. ``power`` is the received power, |H|^2
    summed over the usable bins, linear.
    """

    csi: np.ndarray  # zero on unusable bins
    best_delay: int
    slope: float
    mse: float
    valid: np.ndarray  # per-bin usability mask
    power: float


class OpCounter:
    """Complex multiply-add model for spectrum acquisition.

    A length-L FFT is charged L*ceil(log2 L) operations; one sliding-DFT
    update is charged 2L (one add and one twiddle multiply per bin).
    """

    def __init__(self):
        self.fft_ops = 0
        self.slide_ops = 0

    def count_fft(self, length: int, times: int = 1):
        self.fft_ops += times * length * max(1, math.ceil(math.log2(length)))

    def count_slide(self, length: int, times: int = 1):
        self.slide_ops += times * 2 * length

    @property
    def total(self) -> int:
        return self.fft_ops + self.slide_ops


def sliding_dft(spectrum: np.ndarray, entering, leaving) -> np.ndarray:
    """Spectra of a stack of windows advanced through a run of one-sample steps.

    ``spectrum`` (..., L) is the DFT of each window along its last axis.
    Step s takes ``leaving[s]`` out at the front of each window and
    ``entering[s]`` in at the back, both of shape (S, ...) for a run of S
    steps. Returns the (S + 1, ..., L) spectra: the starting one, then the
    one after each step.
    """
    n = spectrum.shape[-1]
    twiddle = np.exp(2j * np.pi * np.arange(n) / n)
    jumps = np.asarray(entering) - np.asarray(leaving)
    spectra = np.empty((len(jumps) + 1, *spectrum.shape), dtype=complex)
    spectra[0] = spectrum
    for s, jump in enumerate(jumps, 1):
        np.add(spectra[s - 1], jump[..., None], out=spectra[s])
        spectra[s] *= twiddle
    return spectra


def _unwrap(p: np.ndarray) -> np.ndarray:
    """``np.unwrap(p, axis=-1)`` bit for bit, its correction computed only where a step wraps.

    The copy keeps ``p``'s memory order, as ``np.unwrap``'s does.
    """
    dd = p[..., 1:] - p[..., :-1]
    wraps = ~(np.abs(dd) < np.pi)
    jump = dd[wraps]
    fix = np.mod(jump + np.pi, 2 * np.pi) - np.pi
    fix[(fix == -np.pi) & (jump > 0)] = np.pi
    correction = np.zeros_like(dd)
    correction[wraps] = fix - jump
    up = np.array(p, copy=True)
    up[..., 1:] += np.cumsum(correction, axis=-1)
    return up


class _CandidateFits(NamedTuple):
    """Phase-line fits of every (candidate delay, beam) pair of one search."""

    csi: np.ndarray  # (C, B, L), zero on invalid bins
    valid: np.ndarray  # (B, L) per-bin usability mask
    slope: np.ndarray  # (C, B)
    mse: np.ndarray  # (C, B)

    def best(self) -> list[SensingCsi]:
        """Per beam, the least-MSE candidate; argmin ties go to the smaller delay.

        Each beam's power sums its usable |H|^2 pairwise, in bin order: one
        ``abs()**2`` over the usable values of every beam, beam-major, then
        one reduction per beam's contiguous segment (a masked or padded sum
        over all beams, or ``np.add.reduceat``, which sums each segment
        sequentially, would round differently).
        """
        picks = np.argmin(self.mse, axis=0)
        cols = np.arange(len(picks))
        csi = self.csi[picks, cols]
        squares = np.abs(csi[self.valid]) ** 2
        ends = np.cumsum(self.valid.sum(axis=1)).tolist()
        power = [np.add.reduce(squares[start:end]).item() for start, end in zip([0, *ends], ends)]
        slope = self.slope[picks, cols].tolist()
        mse = self.mse[picks, cols].tolist()
        return list(map(SensingCsi, csi, picks.tolist(), slope, mse, self.valid, power))


def _delay_search(
    rx_symbol: np.ndarray,
    tx_symbol: np.ndarray,
    schedule: SubSymbolSchedule,
    cfg: DelaySearchConfig,
    amplitude: np.ndarray | None,
    counter: OpCounter | None,
    accelerated: bool = True,
) -> _CandidateFits:
    """The (candidate x beam x bin) delay-search kernel over every window of ``schedule``.

    Receive windows running past the end of the buffer are zero-filled.
    Each beam's usable bins (valid and of positive weight) are compacted to
    the front and padded to the widest beam by repeating the last usable
    bin at zero weight: the pad adds no phase jump to the unwrap and
    nothing to the least-squares sums, so one unwrap and one set of
    reductions fit every candidate of every beam.
    """
    length = schedule.sub_len
    n_cand = cfg.num_candidates
    n_beams = schedule.num_beams
    offsets = np.arange(length)
    starts = np.arange(n_beams) * length
    x_f = np.fft.fft(tx_symbol[starts[:, None] + offsets], axis=1)
    amplitude = np.ones(schedule.num_beams) if amplitude is None else amplitude
    factors = np.asarray(amplitude, dtype=complex)
    weights = np.abs(factors[:, None] * x_f)
    mag = np.abs(x_f)
    rms = np.sqrt(np.add.reduce(mag**2, axis=1, keepdims=True) / length)  # np.mean's arithmetic
    valid = mag > np.maximum(TX_MAGNITUDE_FLOOR, MIN_TX_FRACTION * rms)
    usable = valid & (weights > 0)
    counts = usable.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("no usable subcarriers")

    rxp = np.zeros(int(starts.max()) + n_cand + length, dtype=complex)
    rxp[: min(len(rx_symbol), len(rxp))] = rx_symbol[: len(rxp)]
    if accelerated:
        leaving = starts + np.arange(n_cand - 1)[:, None]
        y_f = sliding_dft(
            np.fft.fft(rxp[starts[:, None] + offsets], axis=1),
            rxp[leaving + length],
            rxp[leaving],
        )
        if counter is not None:
            counter.count_fft(length, times=n_beams)
            counter.count_slide(length, times=n_beams * (n_cand - 1))
    else:
        windows = starts[None, :, None] + np.arange(n_cand)[:, None, None] + offsets
        y_f = np.fft.fft(rxp[windows], axis=-1)
        if counter is not None:
            counter.count_fft(length, times=n_beams * n_cand)
    csi = np.zeros_like(y_f)
    np.divide(y_f, factors[:, None] * x_f, out=csi, where=valid)

    rows = np.arange(n_beams)[:, None]
    width = int(counts.max())
    packed = np.argsort(~usable, axis=1, kind="stable")
    bins = packed[rows, np.minimum(np.arange(width), counts[:, None] - 1)]
    w2 = weights[rows, bins]
    w2[np.arange(width) >= counts[:, None]] = 0.0
    np.square(w2, out=w2)
    k = bins.astype(float)
    if n_cand > 1:
        # Bin-major (bin, candidate, beam) memory: the phase sums below then
        # add one contiguous plane per bin, in bin order, which is how they
        # round over the candidate-minor layout of csi[:, rows, bins] too.
        # With one candidate that layout has the bins innermost (pairwise
        # sums), so it is kept.
        at = (rows * length + bins).T
        gathered = np.take(csi, at[:, None] + np.arange(n_cand)[:, None] * (n_beams * length))
        gathered = gathered.transpose(1, 2, 0)
    else:
        gathered = csi[:, rows, bins]
    phases = _unwrap(np.angle(gathered))

    # Closed-form weighted least squares of phase = slope*k + intercept; the
    # weights multiply the residuals, so w2 are the least-squares weights.
    w2k = w2 * k
    s_w = np.add.reduce(w2, axis=-1)
    s_k = np.add.reduce(w2k, axis=-1)
    s_kk = np.add.reduce(w2k * k, axis=-1)
    # Both phase sums share one buffer in the phases' memory order; each
    # weight row is laid out bin-major to match.
    buf = np.empty_like(phases)
    s_y, s_ky = (
        np.add.reduce(np.multiply(np.ascontiguousarray(w.T).T, phases, out=buf), axis=-1)
        for w in (w2, w2k)
    )
    denom = s_w * s_kk - s_k * s_k
    flat = denom <= 1e-30 * np.maximum(s_w * s_kk, 1e-300)
    slope = np.where(flat, 0.0, (s_w * s_ky - s_k * s_y) / np.where(flat, 1.0, denom))
    # All-zero weights (underflowed squares) fit 0 with zero loss.
    norm = np.where(s_w > 0, s_w, np.inf)
    intercept = (s_y - slope * s_k) / norm
    # The residual is C-ordered: mse's sums round by its memory layout.
    resid = slope[..., None] * k
    resid += intercept[..., None]
    np.subtract(phases, resid, out=resid)
    np.square(resid, out=resid)
    resid *= w2
    mse = np.add.reduce(resid, axis=-1) / norm
    return _CandidateFits(csi, valid, slope, mse)


def estimate_symbol_csi(
    rx_symbol: np.ndarray,
    tx_symbol: np.ndarray,
    schedule: SubSymbolSchedule,
    cfg: DelaySearchConfig,
    amplitude: np.ndarray | None = None,
    counter: OpCounter | None = None,
    accelerated: bool = True,
) -> list[SensingCsi]:
    """Delay search for every beam window of one DMRS symbol: best linear-phase fit wins.

    Candidate delays 0..num_candidates-1 are scanned; the first window's
    spectrum comes from a full FFT, each subsequent one from a sliding-DFT
    update (unless ``accelerated`` is off, which recomputes the FFT per
    candidate; useful for benchmarking). Ties break toward the smaller
    delay. Receive windows running past the end of the buffer are
    zero-filled. ``amplitude`` is the DMRS amplitude of every window of
    ``schedule`` (``SlotBeamPlan.dmrs_amplitude``), ``None`` for a DMRS sent
    unscaled. The per-beam searches are independent, so window m alone is
    searched as ``estimate_symbol_csi(rx[m*L:], tx[m*L:],
    SubSymbolSchedule(1, L, fft_size), cfg, amplitude[m:m+1])[0]`` for a
    window of L samples. Results come in schedule order, so a result's beam
    is its position in the list.
    """
    fits = _delay_search(rx_symbol, tx_symbol, schedule, cfg, amplitude, counter, accelerated)
    return fits.best()
