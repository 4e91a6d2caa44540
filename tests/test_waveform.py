"""Slot generation, pre-distortion, user CSI, and scoring tests."""

import math

import numpy as np
import pytest

from subbeam.arrays import ArrayGeometry, Beamformer, beamforming_gain, conjugate_beam
from subbeam.channel import SlotBeamPlan
from subbeam.codebook import UserLink
from subbeam.waveform import (
    MODULATIONS,
    Numerology,
    _dmrs_grids,
    build_predistortion_plan,
    constellation,
    demodulate_and_score,
    generate_slot,
    read_iq,
    sensing_slot,
    slot_user_csi,
    symbol_spectra,
    write_iq,
)

from reference import per_symbol_scores, per_symbol_user_csi, whole_slot_downlink

NUM = Numerology()


def amplitude_plan(amplitude):
    """A beam plan carrying only DMRS amplitudes: one unit beam per window."""
    beam = Beamformer(np.ones(1))
    return SlotBeamPlan.uniform(NUM, [beam] * len(amplitude), beam, np.array(amplitude))


def test_same_seed_bit_identical():
    a = generate_slot(NUM, "64QAM", seed=42)
    b = generate_slot(NUM, "64QAM", seed=42)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.grids, b.grids)


def test_dmrs_shared_across_data_seeds():
    a = generate_slot(NUM, "64QAM", seed=1)
    b = generate_slot(NUM, "16QAM", seed=2)
    for pos in NUM.dmrs_positions():
        assert np.array_equal(a.grids[pos], b.grids[pos])


def test_sensing_slot_is_the_dmrs_of_a_data_slot():
    for dmrs_seed in (None, 7):
        full = generate_slot(NUM, "64QAM", seed=3, dmrs_seed=dmrs_seed)
        sensing = sensing_slot(NUM, dmrs_seed=dmrs_seed)
        assert sensing.samples.shape == full.samples.shape
        for pos in NUM.dmrs_positions():
            sl = NUM.symbol_slice(pos)
            assert sensing.samples[sl].tobytes() == full.samples[sl].tobytes()
            assert sensing.grids[pos].tobytes() == full.grids[pos].tobytes()
        for pos in NUM.data_positions():
            assert not np.any(sensing.samples[NUM.symbol_slice(pos)])
            assert not np.any(sensing.grids[pos])


def test_dmrs_table_matches_exp():
    bins = NUM.occupied_bins()
    for dmrs_seed in range(300):
        grids = _dmrs_grids(NUM, dmrs_seed)
        for pos in NUM.dmrs_positions():
            quad = np.random.default_rng(dmrs_seed + pos).integers(0, 4, size=len(bins))
            want = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quad))
            assert grids[pos, bins].tobytes() == want.tobytes()


def test_occupied_bin_count():
    slot = generate_slot(NUM, "QPSK", seed=0)
    for pos in range(NUM.symbols_per_slot):
        assert int(np.sum(slot.grids[pos] == 0)) == 1024 - 768


def test_dmrs_unit_modulus():
    slot = generate_slot(NUM, "QPSK", seed=0)
    bins = NUM.occupied_bins()
    for pos in NUM.dmrs_positions():
        assert np.allclose(np.abs(slot.grids[pos][bins]), 1.0, atol=1e-12)


def test_fft_roundtrip_reproduces_grid():
    slot = generate_slot(NUM, "256QAM", seed=5)
    for pos in range(NUM.symbols_per_slot):
        assert np.allclose(np.fft.fft(slot.symbol_body(pos)), slot.grids[pos], atol=1e-9)


def test_cp_is_cyclic_prefix():
    slot = generate_slot(NUM, "QPSK", seed=3)
    sym = slot.samples[NUM.symbol_slice(0)]
    assert np.array_equal(sym[: NUM.cp_length], sym[-NUM.cp_length :])


def test_time_power_matches_occupancy():
    # Parseval: mean time power is occupied/fft_size of a full grid's
    slot = generate_slot(NUM, "64QAM", seed=7)
    ratios = []
    for pos in range(NUM.symbols_per_slot):
        body = slot.symbol_body(pos)
        ratios.append(float(np.mean(np.abs(body) ** 2)) * NUM.fft_size)
    assert np.mean(ratios) == pytest.approx(768 / 1024, rel=0.02)


def test_constellations_unit_power():
    rng = np.random.default_rng(0)
    for name, bits in MODULATIONS.items():
        levels, norm = constellation(name)
        i = rng.integers(0, len(levels), 20000)
        q = rng.integers(0, len(levels), 20000)
        pts = (levels[i] + 1j * levels[q]) / norm
        assert float(np.mean(np.abs(pts) ** 2)) == pytest.approx(1.0, rel=0.02)
        assert len(levels) ** 2 == 2**bits


class TestPredistortion:
    GEO = ArrayGeometry.ula(16)
    USERS = [UserLink(math.radians(-30), 1.0), UserLink(math.radians(30), 1.0)]

    def _plan(self, num_beams=4):
        beams = [conjugate_beam(self.GEO, math.radians(a)) for a in (0, 5, 10, 15)]
        data = conjugate_beam(self.GEO, math.radians(-30))
        return beams, data

    def test_equal_gains_give_unit_factor(self):
        beams, _ = self._plan()
        # With no users there is nothing to equalize: no plan at all.
        assert build_predistortion_plan(beams, beams[0], [], self.GEO) is None

    def test_single_user_factor_is_sqrt_ratio(self):
        # g_data = 4, g_dmrs = 1 -> factor 2, built from explicit weights
        geo = ArrayGeometry.ula(2)
        users = [UserLink(0.0, 1.0)]
        data = Beamformer(np.array([1.0, 1.0]))  # gain 4 at broadside
        dmrs = Beamformer(np.array([1.0, 0.0]))  # gain 1 at broadside
        amplitude = build_predistortion_plan([dmrs], data, users, geo)
        assert amplitude[0] == pytest.approx(2.0, rel=1e-12)

    def test_two_user_average_form(self):
        # data gains (4,4), dmrs gains (1,1) -> sqrt(8/2) = 2
        geo = ArrayGeometry.ula(2)
        users = [UserLink(0.0, 1.0), UserLink(math.radians(0.001), 1.0)]
        data = Beamformer(np.array([1.0, 1.0]))
        dmrs = Beamformer(np.array([1.0, 0.0]))
        amplitude = build_predistortion_plan([dmrs], data, users, geo)
        assert amplitude[0] == pytest.approx(2.0, rel=1e-6)

    def test_amplitude_recomputable_from_gains(self):
        from subbeam.codebook import OptimizerConfig, build_codebook, design_data_beam

        cfg = OptimizerConfig(epsilon=0.5)
        cb = build_codebook(self.USERS, [0.0, math.radians(8)], self.GEO, cfg)
        data = design_data_beam(self.USERS, self.GEO, cfg)
        amplitude = build_predistortion_plan(cb.beams(), data, self.USERS, self.GEO)
        g_data = sum(beamforming_gain(data, self.GEO, u.angle) for u in self.USERS)
        for m, beam in enumerate(cb.beams()):
            g_dmrs = sum(beamforming_gain(beam, self.GEO, u.angle) for u in self.USERS)
            assert amplitude[m] == pytest.approx(math.sqrt(g_data / g_dmrs), rel=1e-9)

    def test_null_gain_raises_with_entry_name(self):
        geo = ArrayGeometry.ula(2)
        users = [UserLink(math.pi / 2 * 0.6547, 1.0)]  # arbitrary
        null_beam = Beamformer(np.zeros(2))
        data = Beamformer(np.ones(2))
        with pytest.raises(ValueError, match="beam 0"):
            build_predistortion_plan([null_beam], data, users, geo)

    def test_data_symbols_bit_exact_and_windows_scaled(self):
        slot = generate_slot(NUM, "64QAM", seed=9)
        plan = amplitude_plan([1.0, 2.0, 0.5, 3.0])
        sched = plan.schedule
        out = plan.send(slot)
        for pos in NUM.data_positions():
            assert np.array_equal(
                out.samples[NUM.symbol_slice(pos)], slot.samples[NUM.symbol_slice(pos)]
            )
        pos = NUM.dmrs_positions()[0]
        body_in = slot.symbol_body(pos)
        body_out = out.symbol_body(pos)
        for m in range(4):
            sl = sched.window(m)
            assert np.allclose(body_out[sl], plan.dmrs_amplitude[m] * body_in[sl])
        # grid invariant still holds after scaling
        assert np.allclose(np.fft.fft(body_out), out.grids[pos], atol=1e-9)

    def test_received_dmrs_power_ratio(self):
        # after pre-distortion the received DMRS power per window equals the
        # data power scaled by (g_mu / mean g_m) * (mean g_d / g_du)
        from subbeam.channel import PathModel, Scene, SceneUser, apply_downlink, downlink_echo
        from subbeam.codebook import OptimizerConfig, build_codebook, design_data_beam

        cfg = OptimizerConfig(epsilon=0.5)
        sweep = [0.0, math.radians(6), math.radians(12)]
        cb = build_codebook(self.USERS, sweep, self.GEO, cfg)
        data = design_data_beam(self.USERS, self.GEO, cfg)
        amplitude = build_predistortion_plan(cb.beams(), data, self.USERS, self.GEO)
        bplan = SlotBeamPlan.uniform(NUM, cb.beams(), data, amplitude)
        sched = bplan.schedule
        slot = generate_slot(NUM, "64QAM", seed=4)
        tx = bplan.send(slot)
        su = SceneUser(self.USERS[0], PathModel(1.0, 0.0, 0))
        scene = Scene(users=(su,), noise_power=1e-30, self_interference_inr_db=None)
        rx = apply_downlink(tx, downlink_echo(bplan, su, self.GEO), scene.noise_power, seed=0)

        g_du = beamforming_gain(data, self.GEO, su.link.angle)
        mean_gd = np.mean([beamforming_gain(data, self.GEO, u.angle) for u in self.USERS])
        data_pos = NUM.data_positions()[0]
        p_data = np.mean(np.abs(rx[NUM.symbol_slice(data_pos, include_cp=False)]) ** 2)
        p_data_tx = np.mean(np.abs(slot.symbol_body(data_pos)) ** 2)
        dm_pos = NUM.dmrs_positions()[0]
        body = rx[NUM.symbol_slice(dm_pos, include_cp=False)]
        tx_body = slot.symbol_body(dm_pos)
        for m, beam in enumerate(cb.beams()):
            g_mu = beamforming_gain(beam, self.GEO, su.link.angle)
            mean_gm = np.mean(
                [beamforming_gain(beam, self.GEO, u.angle) for u in self.USERS]
            )
            sl = sched.window(m)
            p_win = np.mean(np.abs(body[sl]) ** 2)
            p_win_tx = np.mean(np.abs(tx_body[sl]) ** 2)
            expected = (g_mu / mean_gm) * (mean_gd / g_du)
            measured = (p_win / p_win_tx) / (p_data / p_data_tx)
            assert measured == pytest.approx(expected, rel=1e-9)


class TestUserCsi:
    def test_identity_channel(self):
        slot = generate_slot(NUM, "QPSK", seed=0)
        h = slot_user_csi(symbol_spectra(slot.samples, NUM), slot)
        assert np.allclose(h, 1.0, atol=1e-12)

    def test_scalar_channel(self):
        slot = generate_slot(NUM, "QPSK", seed=1)
        c = 0.5 * np.exp(1j * np.pi / 3)
        h = slot_user_csi(symbol_spectra(c * slot.samples, NUM), slot)
        assert np.allclose(h, c, atol=1e-12)

    def test_delay_gives_phase_slope(self):
        slot = generate_slot(NUM, "QPSK", seed=2)
        delayed = slot.samples.copy()
        for pos in NUM.dmrs_positions():  # circular: exact phase ramp
            delayed[NUM.symbol_slice(pos, include_cp=False)] = np.roll(slot.symbol_body(pos), 3)
        h = slot_user_csi(symbol_spectra(delayed, NUM), slot)
        bins = NUM.occupied_bins()
        expected = np.exp(-2j * np.pi * 3 * np.fft.fftfreq(NUM.fft_size)[bins])
        assert np.allclose(h, expected, atol=1e-9)
        # fitted slope across ascending bin frequency matches -2*pi*3/N
        freqs = np.fft.fftfreq(NUM.fft_size)[bins]
        order = np.argsort(freqs)
        phases = np.unwrap(np.angle(h[order]))
        slope = np.polyfit(freqs[order] * NUM.fft_size, phases, 1)[0]
        assert slope == pytest.approx(-2 * np.pi * 3 / NUM.fft_size, rel=1e-6)


class TestScoring:
    def test_noiseless_genie_is_perfect(self):
        slot = generate_slot(NUM, "64QAM", seed=11)
        rx = slot.grids
        csi = np.ones(768)
        out = demodulate_and_score(rx, slot, [csi])[0]
        assert out["evm_percent"] == pytest.approx(0.0, abs=1e-9)
        assert out["ber"] == 0.0

    def test_awgn_evm_matches_closed_form(self):
        # EVM = 100/sqrt(SNR) when noise is per-subcarrier SNR-scaled
        rng = np.random.default_rng(13)
        slot = generate_slot(NUM, "64QAM", seed=13)
        bins = NUM.occupied_bins()
        snr_db = 30.0
        sigma = 10 ** (-snr_db / 20.0)
        rx = slot.grids.copy()
        for p in NUM.data_positions():
            noise = sigma * (rng.standard_normal(768) + 1j * rng.standard_normal(768)) / np.sqrt(2)
            rx[p, bins] = rx[p, bins] + noise
        out = demodulate_and_score(rx, slot, [np.ones(768)])[0]
        assert out["evm_percent"] == pytest.approx(100 * 10 ** (-snr_db / 20.0), abs=0.3)
        assert out["ber"] == 0.0  # 30 dB is far above the 64QAM threshold

    def test_evm_snr_relation_over_range(self):
        rng = np.random.default_rng(17)
        slot = generate_slot(NUM, "QPSK", seed=17)
        bins = NUM.occupied_bins()
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            sigma = 10 ** (-snr_db / 20.0)
            rx = slot.grids.copy()
            for p in NUM.data_positions():
                noise = sigma * (rng.standard_normal(768) + 1j * rng.standard_normal(768)) / np.sqrt(2)
                rx[p, bins] = rx[p, bins] + noise
            out = demodulate_and_score(rx, slot, [np.ones(768)])[0]
            expected = 100 * 10 ** (-snr_db / 20.0)
            assert abs(out["evm_percent"] - expected) / expected < 0.10


class TestUserReceiverMatchesPerSymbol:
    """One ``symbol_spectra`` per slot, byte for byte against one FFT per symbol.

    The received slot is the whole-slot downlink oracle: a per-sample
    transmit amplitude, a path, a delay, and noise.
    """

    PLAN = amplitude_plan([1.0, 2.0, 0.5])

    @pytest.mark.parametrize("predistorted", [False, True])
    @pytest.mark.parametrize("delay", [0, NUM.cp_length, NUM.slot_len, NUM.slot_len + 7])
    @pytest.mark.parametrize("modulation", sorted(MODULATIONS))
    def test_byte_equal(self, modulation, delay, predistorted):
        levels, norm = constellation(modulation)
        bins = NUM.occupied_bins()
        data = NUM.data_positions()
        for seed in range(3):
            reference = generate_slot(NUM, modulation, seed=seed)
            tx = reference
            if predistorted:
                tx = self.PLAN.send(reference)
            rng = np.random.default_rng(seed)
            amp = rng.uniform(0.5, 2.0, NUM.slot_len)
            noise = 10.0 ** -(4.5 + 0.75 * seed)  # every case has bit errors to count
            rx = whole_slot_downlink(tx.samples, amp, 0.8 * np.exp(0.4j), delay, noise, seed)
            spectra = symbol_spectra(rx, NUM)
            csi = slot_user_csi(spectra, reference)
            want = per_symbol_user_csi(
                rx, reference.samples, NUM.fft_size, NUM.cp_length, NUM.dmrs_positions(), bins
            )
            assert csi.tobytes() == want.tobytes()
            rx_grids = [np.fft.fft(rx[NUM.symbol_slice(p, include_cp=False)]) for p in data]
            csis = [csi, np.full(len(bins), 0.8 * np.exp(0.4j))]
            scores = demodulate_and_score(spectra, reference, csis)
            for h, score in zip(csis, scores, strict=True):
                assert score == per_symbol_scores(
                    rx_grids, reference.grids, h, data, bins, levels, norm,
                    MODULATIONS[modulation] // 2,
                )

    @pytest.mark.parametrize("length", [NUM.slot_len - 1, NUM.slot_len + NUM.symbol_len])
    def test_spectra_need_exactly_one_slot(self, length):
        with pytest.raises(ValueError, match=f"{length} samples.*{NUM.slot_len}"):
            symbol_spectra(np.zeros(length, dtype=complex), NUM)


def test_iq_file_round_trip(tmp_path):
    slot = generate_slot(NUM, "16QAM", seed=21)
    path = tmp_path / "slot.iq"
    write_iq(path, slot.samples, NUM, extra={"modulation": "16QAM"})
    samples, meta = read_iq(path)
    assert meta["modulation"] == "16QAM"
    assert int(meta["fft_size"]) == 1024
    assert len(samples) == len(slot.samples)
    # float32 payload: relative error at single precision
    err = np.max(np.abs(samples - slot.samples)) / np.max(np.abs(slot.samples))
    assert err < 1e-6
