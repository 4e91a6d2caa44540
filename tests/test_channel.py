"""Dominant-path channel behavior tests."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from subbeam.arrays import ArrayGeometry, Beamformer, beamforming_gain, conjugate_beam
from subbeam.codebook import UserLink
from subbeam.channel import (
    Echo,
    PathModel,
    Reflector,
    Scene,
    SceneUser,
    SlotBeamPlan,
    _complex_noise,
    apply_downlink,
    apply_monostatic,
    downlink_echo,
    monostatic_echoes,
    round_trip_gain,
    rx_gain,
)
from subbeam.cli import load_scene, scene_from_dict
from subbeam.waveform import (
    MODULATIONS,
    Numerology,
    SubSymbolSchedule,
    generate_slot,
    sensing_slot,
)

from reference import predistorted_slot, whole_slot_downlink, whole_slot_monostatic

NUM = Numerology()
GEO = ArrayGeometry.ula(8)


def unity_plan(num_beams=2):
    # single-element "array": every beam has unit gain everywhere
    geo1 = ArrayGeometry.ula(1)
    beam = Beamformer(np.ones(1))
    return geo1, SlotBeamPlan.uniform(NUM, [beam] * num_beams, beam)


def capture(slot, plan, scene, geometry, seed):
    """One monostatic capture of ``slot``, the scene's echoes taken under ``plan``."""
    return apply_monostatic(slot, monostatic_echoes(plan, scene, geometry), scene, seed=seed)


def test_identity_path_is_passthrough():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=0)
    su = SceneUser(UserLink(0.0, 1.0), PathModel(1.0, 0.0, 0))
    scene = Scene(users=(su,), noise_power=1e-30, self_interference_inr_db=None)
    rx = apply_downlink(slot, downlink_echo(plan, su, geo1), scene.noise_power, seed=1)
    assert np.allclose(rx, slot.samples, atol=1e-12)


def test_gain_four_doubles_amplitude():
    geo2 = ArrayGeometry.ula(2)
    beam = Beamformer(np.ones(2))  # broadside gain 4
    plan = SlotBeamPlan.uniform(NUM, [beam, beam], beam)
    slot = generate_slot(NUM, "QPSK", seed=2)
    su = SceneUser(UserLink(0.0, 1.0), PathModel(1.0, 0.0, 0))
    scene = Scene(users=(su,), noise_power=1e-30, self_interference_inr_db=None)
    rx = apply_downlink(slot, downlink_echo(plan, su, geo2), scene.noise_power, seed=1)
    assert np.allclose(rx, 2.0 * slot.samples, atol=1e-12)


def test_delay_peaks_cross_correlation():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=3)
    d = 5
    su = SceneUser(UserLink(0.0, 1.0), PathModel(0.8, 0.4, d))
    scene = Scene(users=(su,), noise_power=1e-12, self_interference_inr_db=None)
    rx = apply_downlink(slot, downlink_echo(plan, su, geo1), scene.noise_power, seed=7)
    lags = range(0, 12)
    corr = [abs(np.vdot(slot.samples[: -lag or None], rx[lag:])) for lag in lags]
    assert int(np.argmax(corr)) == d


def test_phase_and_attenuation_applied():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=4)
    su = SceneUser(UserLink(0.0, 1.0), PathModel(0.25, 1.1, 0))
    scene = Scene(users=(su,), noise_power=1e-30, self_interference_inr_db=None)
    rx = apply_downlink(slot, downlink_echo(plan, su, geo1), scene.noise_power, seed=1)
    assert np.allclose(rx, 0.25 * np.exp(1.1j) * slot.samples, atol=1e-12)


def test_empty_scene_noise_power_calibrated():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=5)
    scene = Scene(noise_power=2.5e-4, self_interference_inr_db=None)
    rx = capture(slot, plan, scene, geo1, seed=9)
    measured = float(np.mean(np.abs(rx) ** 2))
    assert len(rx) > 1e4
    assert measured == pytest.approx(2.5e-4, rel=0.05)


@pytest.mark.parametrize("n", [1, 15344])
def test_noise_matches_the_sum_of_draws(n):
    # Filling one complex array in place gives the bytes of the plain expression.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        want = math.sqrt(2.5e-4 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = _complex_noise(np.random.default_rng(seed), n, 2.5e-4)
        assert got.tobytes() == want.tobytes()


def test_noise_tighter_calibration_100k_samples():
    rng_scene = Scene(noise_power=1e-3, self_interference_inr_db=None)
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=6)
    samples = []
    for seed in range(7):
        rx = capture(slot, plan, rng_scene, geo1, seed=seed)
        samples.append(rx)
    allrx = np.concatenate(samples)
    assert len(allrx) > 1e5
    assert float(np.mean(np.abs(allrx) ** 2)) == pytest.approx(1e-3, rel=0.02)


def test_reflector_copies_aligned_window():
    # one reflector exactly at beam 1's angle: its sub-symbol window of the
    # received DMRS is a scaled shifted copy of the transmitted window
    geo = ArrayGeometry.ula(8)
    angles = [math.radians(-20), math.radians(15)]
    beams = [conjugate_beam(geo, a) for a in angles]
    sched = SubSymbolSchedule.for_numerology(NUM, 2)
    plan = SlotBeamPlan.uniform(NUM, beams, beams[0])
    slot = generate_slot(NUM, "QPSK", seed=8)
    d = 4
    refl = Reflector(angles[1], PathModel(0.7, 0.3, d), label="x")
    scene = Scene(reflectors=(refl,), noise_power=1e-30, self_interference_inr_db=None)
    rx = capture(slot, plan, scene, geo, seed=1)
    pos = NUM.dmrs_positions()[0]
    tx_body = slot.symbol_body(pos)
    sl = sched.window(1)
    g = 64.0 * rx_gain(angles[1])  # conjugate gain toward its own angle, both ways
    expected = 0.7 * np.exp(0.3j) * math.sqrt(g) * tx_body[sl]
    # the echo of the last window spills past the symbol body, so index the
    # full received stream
    body_start = NUM.symbol_slice(pos, include_cp=False).start
    got = rx[body_start + sl.start + d : body_start + sl.stop + d]
    assert np.allclose(got, expected, atol=1e-9)


def test_orthogonal_reflectors_track_in_beam_power():
    # two reflectors in each other's beam nulls: per-window received power
    # follows only the in-beam reflector
    geo = ArrayGeometry.ula(8)
    # broadside and the first Dirichlet null of an 8-element array
    null_angle = math.asin(2.0 / 8.0)
    beams = [conjugate_beam(geo, 0.0), conjugate_beam(geo, null_angle)]
    sched = SubSymbolSchedule.for_numerology(NUM, 2)
    plan = SlotBeamPlan.uniform(NUM, beams, beams[0])
    slot = generate_slot(NUM, "QPSK", seed=9)
    scene = Scene(
        reflectors=(
            Reflector(0.0, PathModel(0.5, 0.0, 0)),
            Reflector(null_angle, PathModel(0.5, 0.0, 0)),
        ),
        noise_power=1e-30,
        self_interference_inr_db=None,
    )
    rx = capture(slot, plan, scene, geo, seed=2)
    pos = NUM.dmrs_positions()[0]
    rx_body = rx[NUM.symbol_slice(pos, include_cp=False)]
    tx_body = slot.symbol_body(pos)
    for m, angle in enumerate((0.0, null_angle)):
        sl = sched.window(m)
        ratio = np.mean(np.abs(rx_body[sl]) ** 2) / np.mean(np.abs(tx_body[sl]) ** 2)
        # alpha^2 * conjugate gain * receive gain, other reflector nulled
        expected = 0.25 * 64.0 * rx_gain(angle)
        assert 10 * math.log10(ratio / expected) == pytest.approx(0.0, abs=0.5)


def test_linearity_of_reflector_responses():
    geo = ArrayGeometry.ula(8)
    beams = [conjugate_beam(geo, 0.0), conjugate_beam(geo, math.radians(10))]
    plan = SlotBeamPlan.uniform(NUM, beams, beams[0])
    slot = generate_slot(NUM, "QPSK", seed=10)
    r1 = Reflector(math.radians(3), PathModel(0.6, 0.5, 2))
    r2 = Reflector(math.radians(-7), PathModel(0.3, -0.9, 6))
    kw = dict(seed=0)
    quiet = dict(noise_power=1e-30, self_interference_inr_db=None)
    rx1 = capture(slot, plan, Scene(reflectors=(r1,), **quiet), geo, **kw)
    rx2 = capture(slot, plan, Scene(reflectors=(r2,), **quiet), geo, **kw)
    rx12 = capture(slot, plan, Scene(reflectors=(r1, r2), **quiet), geo, **kw)
    assert np.allclose(rx12, rx1 + rx2, atol=1e-9)


def test_amplitude_doubling_quadruples_power():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=11)
    quiet = dict(noise_power=1e-30, self_interference_inr_db=None)
    kw = dict(seed=0)
    rx_a = capture(
        slot, plan, Scene(reflectors=(Reflector(0.0, PathModel(0.4, 0.0, 3)),), **quiet),
        geo1, **kw,
    )
    rx_b = capture(
        slot, plan, Scene(reflectors=(Reflector(0.0, PathModel(0.8, 0.0, 3)),), **quiet),
        geo1, **kw,
    )
    p_a = np.sum(np.abs(rx_a) ** 2)
    p_b = np.sum(np.abs(rx_b) ** 2)
    assert p_b / p_a == pytest.approx(4.0, rel=1e-9)


def test_self_interference_level():
    geo1, plan = unity_plan()
    slot = generate_slot(NUM, "QPSK", seed=12)
    noise = 1e-6
    scene = Scene(noise_power=noise, self_interference_inr_db=20.0)
    rx = capture(slot, plan, scene, geo1, seed=3)
    # leak should dominate the noise by ~20 dB
    leak_power = float(np.mean(np.abs(rx) ** 2)) - noise
    assert 10 * math.log10(leak_power / noise) == pytest.approx(20.0, abs=0.5)


def _monostatic_per_slot(slot, plan, scene, geometry, seed):
    """The whole-slot capture with every gain taken again for each slot."""
    elevation_aware = geometry.layout == "planar"
    echoes = [
        Echo(
            refl.path.coefficient,
            math.sqrt(rx_gain(refl.azimuth, refl.elevation)),
            plan.tx_amplitude(geometry, refl.azimuth, refl.elevation if elevation_aware else None),
            refl.path.delay_samples,
        )
        for refl in scene.reflectors
    ]
    return whole_slot_monostatic(slot.samples, echoes, scene, seed)


@pytest.mark.parametrize("layout", ["ula", "planar"])
def test_echoes_reused_over_slots_match_per_slot_gains(layout):
    geo = ArrayGeometry.ula(8) if layout == "ula" else ArrayGeometry.planar(4, 2)
    el = 0.0 if layout == "planar" else None
    beams = [conjugate_beam(geo, math.radians(a), el) for a in (-12, 0, 9)]
    plan = SlotBeamPlan.uniform(NUM, beams, conjugate_beam(geo, 0.2, el))
    scene = Scene(
        reflectors=(
            Reflector(math.radians(4), PathModel(0.5, 0.3, 3), elevation=math.radians(2)),
            Reflector(math.radians(-9), PathModel(0.2, -1.1, 7)),
        ),
        noise_power=1e-4,
        self_interference_inr_db=20.0,
    )
    echoes = monostatic_echoes(plan, scene, geo)
    for seed in range(3):
        slot = generate_slot(NUM, "16QAM", seed=seed)
        got = apply_monostatic(slot, echoes, scene, seed=seed)
        assert got.tobytes() == _monostatic_per_slot(slot, plan, scene, geo, seed).tobytes()


def test_sensing_slot_bodies_match_data_slot_up_to_cp_delay():
    # A CP-stripped DMRS body reads only its own symbol while the delay is
    # at most cp_length; one sample more pulls in the previous symbol.
    geo = ArrayGeometry.ula(8)
    beams = [conjugate_beam(geo, math.radians(a)) for a in (-10, 0, 10)]
    plan = SlotBeamPlan.uniform(NUM, beams, beams[0])
    full = generate_slot(NUM, "QPSK", seed=4, dmrs_seed=4)
    sensing = sensing_slot(NUM, dmrs_seed=4)
    after_data = [p for p in NUM.dmrs_positions() if p - 1 in NUM.data_positions()]
    assert after_data
    for delay in range(NUM.cp_length + 2):
        scene = Scene(
            reflectors=(Reflector(math.radians(3), PathModel(0.5, 0.3, delay)),),
            noise_power=1e-6,
            self_interference_inr_db=None,
        )
        echoes = monostatic_echoes(plan, scene, geo)
        rx_full = apply_monostatic(full, echoes, scene, seed=delay)
        rx_sensing = apply_monostatic(sensing, echoes, scene, seed=delay)
        for pos in NUM.dmrs_positions():
            body = NUM.symbol_slice(pos, include_cp=False)
            same = rx_full[body].tobytes() == rx_sensing[body].tobytes()
            assert same == (delay <= NUM.cp_length or pos not in after_data), (delay, pos)


class TestEchoesOnSignalSpans:
    """``apply_monostatic`` byte for byte against the whole-slot capture."""

    SCENE = Scene(
        reflectors=(
            Reflector(math.radians(4), PathModel(0.5, 0.3, 0)),
            Reflector(math.radians(-9), PathModel(0.2, -1.1, NUM.cp_length)),
        ),
        noise_power=1e-4,
        self_interference_inr_db=20.0,
    )

    def assert_whole_slot(self, slot, seed):
        beams = [conjugate_beam(GEO, math.radians(a)) for a in (-12, 0, 9)]
        plan = SlotBeamPlan.uniform(slot.numerology, beams, conjugate_beam(GEO, 0.2))
        echoes = monostatic_echoes(plan, self.SCENE, GEO)
        got = apply_monostatic(slot, echoes, self.SCENE, seed=seed)
        assert got.tobytes() == whole_slot_monostatic(slot.samples, echoes, self.SCENE, seed).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_sensing_slot(self, seed):
        self.assert_whole_slot(sensing_slot(NUM, dmrs_seed=seed), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_data_slot(self, seed):
        self.assert_whole_slot(generate_slot(NUM, "16QAM", seed=seed), seed)

    def test_last_symbol_only_with_an_echo_past_the_slot_end(self):
        num = Numerology(dmrs_symbol_indices=frozenset({NUM.symbols_per_slot}))
        slot = sensing_slot(num, dmrs_seed=3)
        last = num.symbol_slice(num.symbols_per_slot - 1)
        assert np.any(slot.samples[last]) and not np.any(slot.samples[: last.start])
        self.assert_whole_slot(slot, 4)

    def test_spans_read_from_the_samples_not_the_grids(self):
        slot = sensing_slot(NUM, dmrs_seed=2)
        self.assert_whole_slot(replace(slot, grids=np.zeros_like(slot.grids)), 5)


class TestDownlinkMatchesWholeSlot:
    """``apply_downlink`` byte for byte against the whole-slot delayed path plus noise."""

    BEAMS = [conjugate_beam(GEO, math.radians(a)) for a in (-20, 0, 20)]
    PLAN = SlotBeamPlan.uniform(NUM, BEAMS, conjugate_beam(GEO, math.radians(5)))
    SENT = replace(PLAN, dmrs_amplitude=np.array([1.0, 2.0, 0.5]))

    @pytest.mark.parametrize("predistorted", [False, True])
    @pytest.mark.parametrize("delay", [0, NUM.cp_length, NUM.slot_len, NUM.slot_len + 7])
    @pytest.mark.parametrize("modulation", sorted(MODULATIONS))
    def test_byte_equal(self, modulation, delay, predistorted):
        for seed in range(3):
            slot = generate_slot(NUM, modulation, seed=seed)
            if predistorted:
                slot = self.SENT.send(slot)
            su = SceneUser(UserLink(math.radians(-12 + 9 * seed), 1.0),
                           PathModel(0.7, 0.3 + seed, delay))
            noise = 10.0 ** -(3 + seed)
            got = apply_downlink(slot, downlink_echo(self.PLAN, su, GEO), noise, seed=seed + 11)
            amp = self.PLAN.tx_amplitude(GEO, su.link.angle)
            want = whole_slot_downlink(
                slot.samples, amp, su.path.coefficient, delay, noise, seed + 11
            )
            assert got.tobytes() == want.tobytes()


def test_rx_gain_peak():
    assert rx_gain(0.0, 0.0) == pytest.approx(256.0, rel=1e-9)
    assert rx_gain(0.0) == rx_gain(0.0, 0.0)
    assert rx_gain(0.3, 0.0) < 256.0


class TestSceneIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "users": [{"angle_deg": 30.0, "base_snr": 2.0,
                       "path": {"attenuation_db": 20.0 * math.log10(0.5), "phase_deg": 10.0,
                                "delay_samples": 3}}],
            "reflectors": [{"label": "box", "azimuth_deg": -5.0,
                            "path": {"attenuation_db": -12.0, "delay_samples": 6}}],
            "noise_power": 1e-5,
            "self_interference_inr_db": None,
        }))
        loaded = load_scene(path, NUM.sample_rate)
        assert loaded.users[0].link.angle == pytest.approx(math.radians(30.0))
        assert loaded.users[0].link.base_snr == pytest.approx(2.0)
        assert loaded.users[0].path.attenuation == pytest.approx(0.5, rel=1e-9)
        assert loaded.users[0].path.phase_shift == pytest.approx(math.radians(10.0))
        assert loaded.users[0].path.delay_samples == 3
        assert loaded.reflectors[0].label == "box"
        assert loaded.reflectors[0].path.delay_samples == 6
        assert loaded.noise_power == pytest.approx(1e-5)
        assert loaded.self_interference_inr_db is None

    def test_meters_conversion(self):
        c = 299792458.0
        d = {
            "users": [
                {"angle_deg": 0.0, "path": {"attenuation_db": 0.0, "delay_meters": 12.0}}
            ],
            "reflectors": [
                {"azimuth_deg": 0.0, "path": {"attenuation_db": 0.0, "delay_meters": 12.0}}
            ],
            "noise_power": 1e-6,
        }
        scene = scene_from_dict(d, NUM.sample_rate)
        one_way = round(NUM.sample_rate * 12.0 / c)
        assert scene.users[0].path.delay_samples == one_way
        assert scene.reflectors[0].path.delay_samples == round(
            NUM.sample_rate * 2 * 12.0 / c
        )

    def test_exactly_one_delay_spec(self):
        bad = {"users": [{"angle_deg": 0.0, "path": {"delay_samples": 1, "delay_meters": 2.0}}]}
        with pytest.raises(ValueError):
            scene_from_dict(bad, NUM.sample_rate)

    @pytest.mark.parametrize("scene,keys", [
        ({"users": [{"angle_deg": 0, "base_snr": 2, "base_snr_db": 10}]}, "base_snr / base_snr_db"),
        ({"noise_power": 1e-3, "noise_power_db": -80}, "noise_power / noise_power_db"),
    ], ids=["base_snr", "noise_power"])
    def test_one_spelling_per_value(self, scene, keys):
        with pytest.raises(ValueError, match=re.escape(keys)):
            scene_from_dict(scene, NUM.sample_rate)

    def test_unknown_keys_named_together(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "users": [{"angle_deg": 0.0, "path": {"delay_samples": 1, "attenuation": -6}}],
            "reflectors": [{"azimuth": 5.0, "path": {"delay_samples": 2}}],
            "noise_powr": 1e-6,
        }))
        with pytest.raises(ValueError) as err:
            load_scene(path, NUM.sample_rate)
        assert str(err.value) == (
            f"bad key(s) in {path}: unknown users[0].path.attenuation, "
            "unknown reflectors[0].azimuth, missing reflectors[0].azimuth_deg, unknown noise_powr"
        )


def _tx_amplitude_per_row(plan, geometry, azimuth):
    """Every DMRS row's beam gains recomputed, as the plan first did it."""
    from subbeam.arrays import beamforming_gain

    num, sched = plan.numerology, plan.schedule
    amp = np.full(num.slot_len, math.sqrt(beamforming_gain(plan.data_beam, geometry, azimuth)))
    body = np.empty(num.fft_size)
    for row, pos in enumerate(num.dmrs_positions()):
        gains = [math.sqrt(beamforming_gain(b, geometry, azimuth)) for b in plan.dmrs_beams[row]]
        for m in range(sched.num_beams):
            body[sched.window(m)] = gains[m]
        if sched.unused_tail:
            body[sched.num_beams * sched.sub_len:] = gains[-1]
        amp[num.symbol_slice(pos)] = np.concatenate([body[-num.cp_length:], body])
    return amp


class TestTxAmplitude:
    def _plans(self):
        beams = [conjugate_beam(GEO, math.radians(a)) for a in (-20, -7, 3, 14, 25)]
        data = conjugate_beam(GEO, math.radians(5))
        uniform = SlotBeamPlan.uniform(NUM, beams, data)
        rows = len(NUM.dmrs_positions())
        mixed = SlotBeamPlan(
            NUM, tuple(tuple(beams[r:] + beams[:r]) for r in range(rows)), beams[0]
        )
        return uniform, mixed

    def test_bit_identical_to_per_row_gains(self):
        for plan in self._plans():
            for az in (math.radians(-12.0), 0.0, math.radians(31.0)):
                assert np.array_equal(
                    plan.tx_amplitude(GEO, az), _tx_amplitude_per_row(plan, GEO, az)
                )

    def test_each_distinct_beam_gain_computed_once(self, monkeypatch):
        import subbeam.channel as channel

        calls = []
        gain = channel.beamforming_gain

        def counted(beam, *args):
            calls.append(id(beam))
            return gain(beam, *args)

        monkeypatch.setattr(channel, "beamforming_gain", counted)
        uniform, mixed = self._plans()
        uniform.tx_amplitude(GEO, 0.1)
        assert len(calls) == 5 + 1  # five sweep beams and a separate data beam
        calls.clear()
        mixed.tx_amplitude(GEO, 0.1)
        assert len(calls) == 5  # the data beam is one of the sweep beams

    def test_schedule_derived_from_the_beams_per_symbol(self):
        uniform, mixed = self._plans()
        for plan in (uniform, mixed):
            assert plan.schedule == SubSymbolSchedule.for_numerology(NUM, 5)
        beams = uniform.dmrs_beams[0]
        with pytest.raises(ValueError, match="same number of beams"):
            SlotBeamPlan(NUM, (beams, beams, beams, beams[:4]), beams[0])
        with pytest.raises(ValueError, match="one beam list per DMRS symbol"):
            SlotBeamPlan(NUM, (beams,), beams[0])


class TestPlanSend:
    """``SlotBeamPlan.send`` byte for byte against ``reference.predistorted_slot``."""

    @staticmethod
    def _plan(num_beams, seed):
        beam = Beamformer(np.ones(1))
        amplitude = np.random.default_rng([num_beams, seed]).uniform(0.5, 2.0, num_beams)
        return SlotBeamPlan.uniform(NUM, [beam] * num_beams, beam, amplitude)

    # 34 beams leave 1024 - 34*30 = 4 samples in the unused tail, 3 beams 1.
    @pytest.mark.parametrize("num_beams", [3, 4, 34])
    @pytest.mark.parametrize("kind", ["64QAM", "sensing"])
    def test_byte_equal(self, kind, num_beams):
        for seed in range(3):
            plan = self._plan(num_beams, seed)
            if kind == "sensing":
                slot = sensing_slot(NUM, dmrs_seed=seed)
            else:
                slot = generate_slot(NUM, kind, seed=seed)
            got = plan.send(slot)
            samples, grids = predistorted_slot(
                slot.samples, slot.grids, NUM.fft_size, NUM.cp_length, NUM.dmrs_positions(),
                plan.schedule.sub_len, plan.dmrs_amplitude,
            )
            assert got.samples.tobytes() == samples.tobytes()
            assert got.grids.tobytes() == grids.tobytes()
            assert (got.numerology, got.modulation) == (slot.numerology, slot.modulation)

    def test_unchanged_without_amplitudes(self):
        slot = generate_slot(NUM, "QPSK", seed=1)
        geo1, plan = unity_plan(3)
        assert plan.dmrs_amplitude is None
        assert plan.send(slot) is slot

    @pytest.mark.parametrize("amplitude", [
        [1.0, 2.0], [1.0, 2.0, 0.5, 3.0], [[1.0, 2.0, 0.5]],
        [1.0, 0.0, 0.5], [1.0, -2.0, 0.5], [1.0, float("nan"), 0.5],
    ], ids=["short", "long", "two_dim", "zero", "negative", "nan"])
    def test_amplitudes_checked_when_the_plan_is_built(self, amplitude):
        beam = Beamformer(np.ones(1))
        message = f"dmrs_amplitude {amplitude} needs one value > 0 for each of the 3 windows"
        with pytest.raises(ValueError, match=re.escape(message)):
            SlotBeamPlan.uniform(NUM, [beam] * 3, beam, amplitude)


def test_round_trip_gain_is_the_product():
    # The link and the baselines multiplied inline, imaging with an elevation.
    ula, planar = ArrayGeometry.ula(8), ArrayGeometry.planar(4, 2)
    for az, el in ((-0.3, 0.1), (0.0, 0.0), (0.4, -0.2)):
        beam = conjugate_beam(ula, 0.1)
        assert round_trip_gain(beam, ula, az) == beamforming_gain(beam, ula, az) * rx_gain(az)
        beam = conjugate_beam(planar, 0.1, 0.05)
        want = beamforming_gain(beam, planar, az, el) * rx_gain(az, el)
        assert round_trip_gain(beam, planar, az, el) == want


def test_downlink_echo_is_the_users_path_under_the_plan():
    plan = TestDownlinkMatchesWholeSlot.PLAN
    su = SceneUser(UserLink(math.radians(17), 1.0), PathModel(0.6, -0.4, 9))
    echo = downlink_echo(plan, su, GEO)
    assert (echo.coefficient, echo.rx_amp, echo.delay) == (su.path.coefficient, 1.0, 9)
    assert echo.tx_amp.tobytes() == plan.tx_amplitude(GEO, su.link.angle).tobytes()
