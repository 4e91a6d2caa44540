"""Sliding-DFT, delay search, and per-beam result tests."""

import math
from collections import namedtuple

import numpy as np
import pytest

from subbeam import sensing
from subbeam.sensing import (
    TX_MAGNITUDE_FLOOR,
    DelaySearchConfig,
    OpCounter,
    _CandidateFits,
    _delay_search,
    estimate_symbol_csi,
    sliding_dft,
)
from subbeam.arrays import ArrayGeometry, conjugate_beam
from subbeam.channel import (
    PathModel,
    Reflector,
    Scene,
    SlotBeamPlan,
    apply_monostatic,
    monostatic_echoes,
)
from subbeam.waveform import Numerology, SubSymbolSchedule, generate_slot

from reference import brute_force_delay_search, stepwise_delay_search

NUM = Numerology()


def random_window_signal(length, extra, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(length + extra) + 1j * rng.standard_normal(length + extra)


def one_window(rx, tx, sched, beam, amplitude=None):
    """``(rx, tx, schedule, amplitude)`` that search window ``beam`` of ``sched``
    alone: both buffers from the window's start, under a one-window schedule."""
    start = beam * sched.sub_len
    window = SubSymbolSchedule(1, sched.sub_len, sched.fft_size)
    return rx[start:], tx[start:], window, None if amplitude is None else amplitude[beam : beam + 1]


def search_window(rx, tx, sched, beam, cfg, amplitude=None, **kwargs):
    """The delay-search result of window ``beam`` of ``sched`` alone."""
    rx, tx, window, amplitude = one_window(rx, tx, sched, beam, amplitude)
    return estimate_symbol_csi(rx, tx, window, cfg, amplitude, **kwargs)[0]


def candidate_csi(rx, tx, sched, beam, delay, amplitude=None):
    """CSI and validity of one beam window under one assumed delay.

    Read from the search kernel's per-candidate output. A zero
    ``MIN_TX_FRACTION`` leaves only the numerical floor, so every bin with
    transmit energy is valid.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sensing, "MIN_TX_FRACTION", 0.0)
        cfg = DelaySearchConfig(delay + 1)
        rx, tx, window, amplitude = one_window(rx, tx, sched, beam, amplitude)
        fits = _delay_search(rx, tx, window, cfg, amplitude, None)
    return fits.csi[delay, 0], fits.valid[0]


class TestSlidingDft:
    def test_constant_window_only_dc(self):
        buf = np.full(40, 2.0 + 1.0j)
        spec = np.fft.fft(buf[:30])
        spectra = sliding_dft(spec, buf[30:31], buf[:1])
        assert np.array_equal(spectra[0], spec)
        assert spectra[1, 0] == pytest.approx(spec[0])
        assert np.allclose(spectra[1, 1:], 0.0, atol=1e-12)

    def test_single_step_matches_direct(self):
        buf = random_window_signal(30, 1, seed=1)
        spec = sliding_dft(np.fft.fft(buf[:30]), buf[30:31], buf[:1])[-1]
        direct = np.fft.fft(buf[1:31])
        err = np.max(np.abs(spec - direct)) / np.max(np.abs(direct))
        assert err < 1e-12

    @pytest.mark.parametrize("length", [16, 30, 64])
    def test_many_steps_low_drift(self, length):
        buf = random_window_signal(length, 30, seed=length)
        spectra = sliding_dft(np.fft.fft(buf[:length]), buf[length : length + 30], buf[:30])
        assert spectra.shape == (31, length)
        worst = 0.0
        for step, spec in enumerate(spectra[1:], 1):
            direct = np.fft.fft(buf[step : step + length])
            worst = max(worst, np.max(np.abs(spec - direct)) / np.max(np.abs(direct)))
        assert worst < 1e-7

    def test_run_equals_single_steps(self):
        # A run of S steps gives, bit for bit, the spectra of S runs of one.
        buf = random_window_signal(30, 12, seed=3)
        spectra = sliding_dft(np.fft.fft(buf[:30]), buf[30:40], buf[:10])
        spec = spectra[0]
        for step in range(10):
            spec = sliding_dft(spec, buf[30 + step : 31 + step], buf[step : step + 1])[-1]
            assert np.array_equal(spec, spectra[step + 1])

    def test_stack_of_windows_steps_each_window(self):
        buf = random_window_signal(30, 40, seed=2)
        starts = np.array([0, 7, 19])
        spec = np.fft.fft(buf[starts[:, None] + np.arange(30)], axis=1)
        stepped = sliding_dft(spec, buf[starts + 30][None], buf[starts][None])[-1]
        for row, start in zip(stepped, starts):
            single = np.fft.fft(buf[start : start + 30])
            assert np.array_equal(row, sliding_dft(single, [buf[start + 30]], [buf[start]])[-1])


class TestUnwrap:
    """``_unwrap`` against ``np.unwrap``, values and memory order."""

    @staticmethod
    def assert_same(got, want):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(7,), (4, 55), (10, 15, 55)])
    @pytest.mark.parametrize("step", [1.0, 5.0], ids=["no_wraps", "wraps"])
    def test_c_ordered_stacks(self, shape, step):
        rng = np.random.default_rng(len(shape))
        p = np.cumsum(rng.uniform(-step, step, shape), axis=-1)
        self.assert_same(sensing._unwrap(p), np.unwrap(p, axis=-1))

    def test_advanced_indexed_stack(self):
        # The kernel's gather: (candidate, beam, packed bin), not C-contiguous.
        rng = np.random.default_rng(4)
        csi = rng.standard_normal((10, 15, 60)) + 1j * rng.standard_normal((10, 15, 60))
        rows = np.arange(15)[:, None]
        bins = np.sort(rng.choice(60, (15, 40)), axis=1)
        p = np.angle(csi[:, rows, bins])
        assert not p.flags.c_contiguous
        self.assert_same(sensing._unwrap(p), np.unwrap(p, axis=-1))

    def test_exact_pi_steps(self):
        p = np.array([[0.0, np.pi, 0.0, -np.pi, 0.0, 3 * np.pi, -np.pi, 2 * np.pi - 1e-3]])
        self.assert_same(sensing._unwrap(p), np.unwrap(p, axis=-1))
        self.assert_same(sensing._unwrap(p.T.copy().T), np.unwrap(p.T.copy().T, axis=-1))


class TestSubSymbolCsi:
    SCHED = SubSymbolSchedule(num_beams=4, sub_len=30, fft_size=1024)

    def _tx(self, seed=0):
        return generate_slot(NUM, "QPSK", seed=seed).symbol_body(NUM.dmrs_positions()[0])

    def test_identity(self):
        tx = self._tx()
        csi, valid = candidate_csi(tx, tx, self.SCHED, 1, 0)
        assert np.array_equal(valid, np.abs(np.fft.fft(tx[30:60])) > TX_MAGNITUDE_FLOOR)
        assert np.allclose(csi[valid], 1.0, atol=1e-9)
        res = search_window(tx, tx, self.SCHED, 1, DelaySearchConfig(10))
        assert res.best_delay == 0
        assert np.allclose(res.csi[res.valid], 1.0, atol=1e-9)

    def test_scaled_shift_recovered_flat(self):
        tx = self._tx(1)
        c = 0.5 * np.exp(0.9j)
        rx = np.zeros(len(tx) + 16, dtype=complex)
        rx[7 : 7 + len(tx)] = c * tx
        csi, valid = candidate_csi(rx, tx, self.SCHED, 2, 7)
        assert np.allclose(csi[valid], c, atol=1e-9)
        res = search_window(rx, tx, self.SCHED, 2, DelaySearchConfig(10))
        assert res.best_delay == 7
        assert np.allclose(res.csi[res.valid], c, atol=1e-9)

    def test_misaligned_by_one_has_ramp(self):
        tx = self._tx(2)
        d = 5
        rx = np.zeros(len(tx) + 16, dtype=complex)
        rx[d : d + len(tx)] = tx
        csi, valid = candidate_csi(rx, tx, self.SCHED, 1, d - 1)
        # dominant component is exp(-j*2*pi*k/L) plus an edge residual
        k = np.flatnonzero(valid)
        ramp = np.exp(-2j * np.pi * k / 30)
        corr = abs(np.vdot(ramp, csi[k])) / len(k)
        assert corr > 0.8

    def test_plan_factor_removed(self):
        tx = self._tx(3)
        amplitude = np.array([1.0, 2.0, 1.5, 3.0])
        rx = np.zeros_like(tx)
        sl = self.SCHED.window(1)
        rx[sl] = 2.0 * tx[sl]  # the transmitter scaled this window by 2
        csi, valid = candidate_csi(rx, tx, self.SCHED, 1, 0, amplitude)
        assert np.allclose(csi[valid], 1.0, atol=1e-9)
        res = search_window(rx, tx, self.SCHED, 1, DelaySearchConfig(10), amplitude)
        assert np.allclose(res.csi[res.valid], 1.0, atol=1e-9)


class TestDelaySearch:
    SCHED = SubSymbolSchedule(num_beams=8, sub_len=30, fft_size=1024)

    def _symbol(self, seed=0):
        return generate_slot(NUM, "QPSK", seed=seed).symbol_body(NUM.dmrs_positions()[0])

    def test_noiseless_exact_for_all_delays(self):
        tx = self._symbol(4)
        for true_delay in range(10):
            rx = np.zeros(len(tx) + 32, dtype=complex)
            rx[true_delay : true_delay + len(tx)] = 0.8 * np.exp(0.4j) * tx
            res = search_window(rx, tx, self.SCHED, 2, DelaySearchConfig(10))
            assert res.best_delay == true_delay
            assert res.mse < 1e-12

    def test_pure_rotation_recovers_intercept(self):
        tx = self._symbol(5)
        theta = math.pi / 4
        rx = np.exp(1j * theta) * tx
        res = search_window(rx, tx, self.SCHED, 1, DelaySearchConfig(10))
        assert res.best_delay == 0
        assert np.angle(res.csi[res.valid]) == pytest.approx(theta, abs=1e-6)
        assert res.slope == pytest.approx(0.0, abs=1e-6)

    def test_loss_profile_has_unique_minimum(self):
        tx = self._symbol(6)
        d = 4
        rx = np.zeros(len(tx) + 32, dtype=complex)
        rx[d : d + len(tx)] = tx
        rx3, tx3, window, _ = one_window(rx, tx, self.SCHED, 3)
        fits = _delay_search(rx3, tx3, window, DelaySearchConfig(10), None, None)
        losses = fits.mse[:, 0]
        assert int(np.argmin(losses)) == d
        # loss grows monotonically-ish away from the minimum
        assert losses[d] < min(losses[d - 1], losses[d + 1]) / 10
        res = search_window(rx, tx, self.SCHED, 3, DelaySearchConfig(10))
        assert res.mse == losses[d]

    def test_matches_brute_force_oracle(self):
        tx = self._symbol(7)
        rng = np.random.default_rng(3)
        for trial in range(5):
            d = int(rng.integers(0, 10))
            rx = np.zeros(len(tx) + 32, dtype=complex)
            rx[d : d + len(tx)] = 0.7 * np.exp(1j * rng.uniform(-3, 3)) * tx
            rx += 0.02 * (rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx)))
            m = int(rng.integers(0, 8))
            res = search_window(rx, tx, self.SCHED, m, DelaySearchConfig(10))
            ref_dn, ref_mse, _ = brute_force_delay_search(
                {"rx": rx, "tx": tx}, m * 30, 30, 10
            )
            assert res.best_delay == ref_dn
            assert res.mse == pytest.approx(ref_mse, rel=1e-6)

    def test_tie_breaks_toward_smaller_delay(self):
        # an all-zero receive buffer fits every delay equally (MSE 0 on the
        # weighted fit of zeros -> phases of zeros are zeros); delay 0 wins
        tx = self._symbol(8)
        rx = np.zeros(len(tx), dtype=complex)
        res = search_window(rx, tx, self.SCHED, 0, DelaySearchConfig(10))
        assert res.best_delay == 0

    def test_zero_weight_bins_excluded_exactly(self):
        tx = self._symbol(9)
        d = 2
        rx = np.zeros(len(tx) + 16, dtype=complex)
        rx[d : d + len(tx)] = tx
        # zero three bins of window 1's transmit spectrum: the received
        # samples still carry them, so any use of them would corrupt the fit
        sl = self.SCHED.window(1)
        x_f = np.fft.fft(tx[sl])
        corrupted = [3, 11, 20]
        x_f[corrupted] = 0.0
        notched = tx.copy()
        notched[sl] = np.fft.ifft(x_f)
        res = search_window(rx, notched, self.SCHED, 1, DelaySearchConfig(10))
        assert not res.valid[corrupted].any()
        assert np.all(res.csi[corrupted] == 0)
        # closed-form weighted fit on the clean bins only
        k = np.flatnonzero(res.valid)
        phases = np.unwrap(np.angle(res.csi[k]))
        w2 = np.abs(x_f[k]) ** 2
        a = np.vstack([k, np.ones_like(k)]).T
        wls = np.linalg.solve(a.T @ (w2[:, None] * a), a.T @ (w2 * phases))
        assert res.slope == pytest.approx(wls[0], abs=1e-12)

    def test_all_invalid_raises(self):
        tx = np.zeros(1024, dtype=complex)
        rx = np.zeros(1024, dtype=complex)
        with pytest.raises(ValueError, match="no usable subcarriers"):
            search_window(rx, tx, self.SCHED, 0, DelaySearchConfig(10))


class TestSymbolBatch:
    def test_batch_equals_per_beam(self):
        tx = generate_slot(NUM, "QPSK", seed=10).symbol_body(NUM.dmrs_positions()[0])
        rng = np.random.default_rng(5)
        rx = np.zeros(len(tx) + 32, dtype=complex)
        rx[3 : 3 + len(tx)] = 0.6 * tx
        rx += 0.05 * (rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx)))
        sched = SubSymbolSchedule.for_numerology(NUM, 34)
        cfg = DelaySearchConfig(10)
        batch = estimate_symbol_csi(rx, tx, sched, cfg)
        assert len(batch) == 34
        for m, res in enumerate(batch):
            single = search_window(rx, tx, sched, m, cfg)
            assert res.best_delay == single.best_delay
            assert np.allclose(res.csi, single.csi, atol=1e-12)
            assert res.mse == pytest.approx(single.mse, rel=1e-12)

    def test_single_beam_covers_whole_symbol(self):
        tx = generate_slot(NUM, "QPSK", seed=11).symbol_body(NUM.dmrs_positions()[0])
        rx = np.zeros(len(tx) + 16, dtype=complex)
        rx[2 : 2 + len(tx)] = tx
        sched = SubSymbolSchedule.for_numerology(NUM, 1)
        assert sched.sub_len == 1024
        res = estimate_symbol_csi(rx, tx, sched, DelaySearchConfig(10))[0]
        assert res.best_delay == 2


class TestFeatures:
    def test_flat_unit_csi(self):
        fits = _CandidateFits(
            csi=np.ones((1, 1, 30), dtype=complex),
            valid=np.ones((1, 30), dtype=bool),
            slope=np.zeros((1, 1)),
            mse=np.zeros((1, 1)),
        )
        assert fits.best()[0].power == pytest.approx(30.0)
        # only usable bins carry power
        assert fits._replace(valid=(np.arange(30) < 12)[None]).best()[0].power == pytest.approx(12.0)

    def test_single_path_zero_loss(self):
        tx = generate_slot(NUM, "QPSK", seed=12).symbol_body(NUM.dmrs_positions()[0])
        sched = SubSymbolSchedule(num_beams=8, sub_len=30, fft_size=1024)
        rx = np.zeros(len(tx) + 16, dtype=complex)
        rx[6 : 6 + len(tx)] = 0.4 * np.exp(-1.2j) * tx
        res = search_window(rx, tx, sched, 4, DelaySearchConfig(10))
        assert res.mse < 1e-9

    def test_two_paths_increase_loss(self):
        tx = generate_slot(NUM, "QPSK", seed=13).symbol_body(NUM.dmrs_positions()[0])
        sched = SubSymbolSchedule(num_beams=8, sub_len=30, fft_size=1024)
        one = np.zeros(len(tx) + 16, dtype=complex)
        one[2 : 2 + len(tx)] = tx
        two = one.copy()
        two[7 : 7 + len(tx)] += tx  # equal-power path 5 samples later
        cfg = DelaySearchConfig(10)
        loss_one = search_window(one, tx, sched, 3, cfg).mse
        loss_two = search_window(two, tx, sched, 3, cfg).mse
        assert loss_two > loss_one * 100


class TestOpCounting:
    def test_accelerated_halves_the_ops(self):
        tx = generate_slot(NUM, "QPSK", seed=14).symbol_body(NUM.dmrs_positions()[0])
        rx = np.roll(tx, 3)
        sched = SubSymbolSchedule.for_numerology(NUM, 34)
        fast, slow = OpCounter(), OpCounter()
        search_window(rx, tx, sched, 0, DelaySearchConfig(10), counter=fast)
        search_window(
            rx, tx, sched, 0, DelaySearchConfig(10), counter=slow, accelerated=False
        )
        assert fast.total * 2 <= slow.total
        # model: one FFT plus (n-1) linear updates vs n FFTs
        assert fast.total == 30 * 5 + 9 * 60
        assert slow.total == 10 * 30 * 5

    def test_batch_counter_scales_with_beams(self):
        tx = generate_slot(NUM, "QPSK", seed=15).symbol_body(NUM.dmrs_positions()[0])
        rx = np.roll(tx, 1)
        sched = SubSymbolSchedule.for_numerology(NUM, 34)
        counter = OpCounter()
        estimate_symbol_csi(rx, tx, sched, DelaySearchConfig(10), counter=counter)
        assert counter.total == 34 * (30 * 5 + 9 * 60)


# The per-beam search as it stood before the batched kernel, copied verbatim
# (validity rule, recurrence, fit and tie rule included) as the reference the
# kernel must reproduce.


SeedFit = namedtuple("SeedFit", "slope intercept mse")


def _seed_valid_bins(tx_spectrum):
    rms = math.sqrt(float(np.mean(np.abs(tx_spectrum) ** 2)))
    floor = max(TX_MAGNITUDE_FLOOR, sensing.MIN_TX_FRACTION * rms)
    return np.abs(tx_spectrum) > floor


def _seed_padded_window(rx, start, length):
    out = np.zeros(length, dtype=complex)
    lo = max(start, 0)
    hi = min(start + length, len(rx))
    if hi > lo:
        out[lo - start : hi - start] = rx[lo:hi]
    return out


def _seed_sample_or_zero(rx, idx):
    return rx[idx] if 0 <= idx < len(rx) else 0.0


def _seed_weighted_line_fit(k, y, weights):
    w2 = weights**2
    s_w = float(np.sum(w2))
    s_k = float(np.sum(w2 * k))
    s_kk = float(np.sum(w2 * k * k))
    s_y = float(np.sum(w2 * y))
    s_ky = float(np.sum(w2 * k * y))
    denom = s_w * s_kk - s_k * s_k
    if denom <= 1e-30 * max(s_w * s_kk, 1e-300):
        slope = 0.0
        intercept = s_y / s_w if s_w > 0 else 0.0
    else:
        slope = (s_w * s_ky - s_k * s_y) / denom
        intercept = (s_y - slope * s_k) / s_w
    resid = y - (slope * k + intercept)
    mse = float(np.sum(w2 * resid**2) / s_w) if s_w > 0 else 0.0
    return SeedFit(slope=slope, intercept=intercept, mse=mse)


def _seed_fit_csi_phase(csi, valid, weights):
    usable = valid & (weights > 0)
    k = np.flatnonzero(usable)
    if len(k) == 0:
        raise ValueError("no usable subcarriers")
    phases = np.unwrap(np.angle(csi[k]))
    return _seed_weighted_line_fit(k.astype(float), phases, weights[k])


def _seed_beam_search(rx_symbol, tx_symbol, schedule, beam_index, cfg, amplitude=None,
                      accelerated=True):
    """(best_delay, fit, csi, valid) of the seed's per-beam candidate loop."""
    length = schedule.sub_len
    start = beam_index * length
    x_f = np.fft.fft(tx_symbol[schedule.window(beam_index)])
    factor = complex(amplitude[beam_index]) if amplitude is not None else 1.0
    weights = np.abs(factor * x_f)
    valid = _seed_valid_bins(x_f)
    if not np.any(valid & (weights > 0)):
        raise ValueError("no usable subcarriers")

    twiddle = np.exp(2j * np.pi * np.arange(length) / length)
    best = None
    y_f = None
    for dn in range(cfg.num_candidates):
        if dn == 0 or not accelerated:
            y_f = np.fft.fft(_seed_padded_window(rx_symbol, start + dn, length))
        else:
            y_out = _seed_sample_or_zero(rx_symbol, start + dn - 1)
            y_in = _seed_sample_or_zero(rx_symbol, start + dn - 1 + length)
            y_f = (y_f + (y_in - y_out)) * twiddle
        csi = np.zeros(length, dtype=complex)
        csi[valid] = y_f[valid] / (factor * x_f[valid])
        fit = _seed_fit_csi_phase(csi, valid, weights)
        if best is None or fit.mse < best[1].mse:
            best = (dn, fit, csi, valid.copy())
    return best


class TestKernelEquivalence:
    """The batched kernel against the seed's per-beam loop and the oracle.

    Variants: ``plain``; ``plan``, random DMRS amplitudes; ``weights``,
    uneven fit weights |X[k]| from a transmit spectrum scaled bin by bin in
    every window, with a quarter of each window's bins zeroed (unusable).
    """

    def _capture(self, num_beams, variant, seed):
        rng = np.random.default_rng([num_beams, seed])
        sched = SubSymbolSchedule.for_numerology(NUM, num_beams)
        tx = generate_slot(NUM, "QPSK", seed=20 + seed).symbol_body(NUM.dmrs_positions()[0])
        if variant == "weights":
            shape_rng = np.random.default_rng([num_beams, seed, 1])
            tx = tx.copy()
            for m in range(num_beams):
                sl = sched.window(m)
                x_f = np.fft.fft(tx[sl]) * shape_rng.uniform(0.5, 2.0, sched.sub_len)
                x_f[shape_rng.choice(sched.sub_len, sched.sub_len // 4, replace=False)] = 0.0
                tx[sl] = np.fft.ifft(x_f)
        d = int(rng.integers(0, 10))
        rx = np.zeros(len(tx) + 32, dtype=complex)
        rx[d : d + len(tx)] = 0.6 * np.exp(1j * rng.uniform(-np.pi, np.pi)) * tx
        rx += 0.1 * (rng.standard_normal(len(rx)) + 1j * rng.standard_normal(len(rx)))
        amplitude = None
        if variant == "plan":
            amplitude = rng.uniform(0.5, 2.0, num_beams)
        return rx, tx, sched, amplitude, DelaySearchConfig(10)

    @staticmethod
    def _assert_same(res, ref):
        ref_delay, ref_fit, ref_csi, ref_valid = ref
        assert res.best_delay == ref_delay
        assert res.slope == pytest.approx(ref_fit.slope, rel=1e-9)
        assert res.mse == pytest.approx(ref_fit.mse, rel=1e-9)
        assert np.allclose(res.csi, ref_csi, rtol=0, atol=1e-12)
        assert np.array_equal(res.valid, ref_valid)

    @pytest.mark.parametrize("variant", ["plain", "plan", "weights"])
    @pytest.mark.parametrize("num_beams", [1, 8, 15, 34])
    def test_symbol_matches_seed_loop_and_oracle(self, num_beams, variant):
        for seed in range(3):
            rx, tx, sched, amplitude, cfg = self._capture(num_beams, variant, seed)
            batch = estimate_symbol_csi(rx, tx, sched, cfg, amplitude)
            assert len(batch) == num_beams
            for m, res in enumerate(batch):
                self._assert_same(res, _seed_beam_search(rx, tx, sched, m, cfg, amplitude))
                factor = complex(amplitude[m]) if amplitude is not None else 1.0
                ref_dn, ref_mse, _ = brute_force_delay_search(
                    {"rx": rx, "tx": tx}, m * sched.sub_len, sched.sub_len, 10, factor
                )
                assert res.best_delay == ref_dn
                assert res.mse == pytest.approx(ref_mse, rel=1e-6, abs=1e-12)

    def test_unequal_usable_counts_are_padded(self):
        # The equivalence tests above take the padded path: beams differ in
        # their usable-bin counts even on a plain capture.
        rx, tx, sched, amplitude, cfg = self._capture(15, "plain", 0)
        usable = _delay_search(rx, tx, sched, cfg, amplitude, None).valid.sum(axis=1)
        assert usable.min() < usable.max()

    @pytest.mark.parametrize("accelerated", [True, False])
    @pytest.mark.parametrize("variant", ["plain", "plan", "weights"])
    @pytest.mark.parametrize("num_beams", [1, 8, 15, 34])
    def test_beam_matches_seed_loop(self, num_beams, variant, accelerated):
        rx, tx, sched, amplitude, cfg = self._capture(num_beams, variant, 7)
        for m in sorted({0, num_beams // 2, num_beams - 1}):
            res = search_window(rx, tx, sched, m, cfg, amplitude, accelerated=accelerated)
            self._assert_same(
                res, _seed_beam_search(rx, tx, sched, m, cfg, amplitude, accelerated=accelerated)
            )

    def test_single_usable_bin_takes_the_flat_fit(self):
        rx, tx, sched, _, cfg = self._capture(8, "plain", 1)
        # window 2 transmits a single tone: one bin above the threshold
        tone = np.zeros(sched.sub_len, dtype=complex)
        tone[5] = 1.0
        tx = tx.copy()
        tx[sched.window(2)] = np.fft.ifft(tone)
        res = search_window(rx, tx, sched, 2, cfg)
        assert np.flatnonzero(res.valid).tolist() == [5]
        ref = _seed_beam_search(rx, tx, sched, 2, cfg)
        self._assert_same(res, ref)
        assert res.slope == 0.0 and res.mse == 0.0 and res.best_delay == 0


class TestKernelMatchesStepwise:
    """``_delay_search`` against ``reference.stepwise_delay_search``, byte for byte.

    Captures go through the monostatic channel as in ``sense_dmrs``: a
    conjugate-beam sweep on a 16-element ULA, two reflectors inside the
    delay search, noise and TX leakage drawn from the seed. With a plan the
    beam plan carries random per-window DMRS amplitudes and sends the slot
    pre-distorted by them.
    """

    GEO = ArrayGeometry.ula(16)
    SCENE = Scene(
        reflectors=(
            Reflector(math.radians(4), PathModel(0.5, 0.3, 3)),
            Reflector(math.radians(-9), PathModel(0.2, -1.1, 7)),
        ),
        noise_power=1e-4,
        self_interference_inr_db=20.0,
    )

    def _captures(self, num_beams, with_plan, seed):
        rng = np.random.default_rng([num_beams, seed])
        sched = SubSymbolSchedule.for_numerology(NUM, num_beams)
        beams = [conjugate_beam(self.GEO, a) for a in np.radians(np.linspace(-14, 14, num_beams))]
        amplitude = rng.uniform(0.5, 2.0, num_beams) if with_plan else None
        bplan = SlotBeamPlan.uniform(NUM, beams, beams[0], amplitude)
        reference = generate_slot(NUM, "QPSK", seed=30 + seed)
        tx = bplan.send(reference)
        echoes = monostatic_echoes(bplan, self.SCENE, self.GEO)
        rx = apply_monostatic(tx, echoes, self.SCENE, seed=seed)
        for pos in NUM.dmrs_positions():
            body = rx[NUM.symbol_slice(pos, include_cp=False)]
            yield body, reference.symbol_body(pos), sched, bplan.dmrs_amplitude

    @pytest.mark.parametrize("with_plan", [False, True], ids=["no_plan", "plan"])
    @pytest.mark.parametrize("num_beams", [15, 34])
    def test_byte_equal(self, num_beams, with_plan):
        self.assert_byte_equal(num_beams, with_plan, DelaySearchConfig(10))

    @pytest.mark.parametrize("num_candidates", [1, 2])
    @pytest.mark.parametrize("num_beams", [1, 15])
    def test_byte_equal_few_candidates(self, num_beams, num_candidates):
        # One candidate gathers bins innermost, more gather bin-major.
        self.assert_byte_equal(num_beams, True, DelaySearchConfig(num_candidates))

    def assert_byte_equal(self, num_beams, with_plan, cfg):
        for seed in range(3):
            for rx, tx, sched, amplitude in self._captures(num_beams, with_plan, seed):
                got = _delay_search(rx, tx, sched, cfg, amplitude, None)
                want = dict(zip(("csi", "valid", "slope", "intercept", "mse"), stepwise_delay_search(
                    rx, tx, sched.sub_len, num_beams, cfg.num_candidates,
                    amplitude.astype(complex) if amplitude is not None else None,
                )))
                for name, a in got._asdict().items():
                    b = want[name]
                    assert a.dtype == b.dtype and a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), name
