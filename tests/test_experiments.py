"""Experiment-harness tests on reduced-size scenarios."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from subbeam.arrays import ArrayGeometry, conjugate_beam, effective_snr, steering_vector
from subbeam.channel import (
    PathModel,
    Reflector,
    Scene,
    SceneUser,
    SlotBeamPlan,
    apply_monostatic,
    monostatic_echoes,
)
from subbeam.codebook import Codebook, OptimizerConfig, UpdateStats, UserLink
from subbeam.experiments import mobility
from subbeam.experiments.baselines import run_baseline
from subbeam.experiments.imaging import air_time, run_imaging
from subbeam.experiments.link import run_link, sense_dmrs
from subbeam.experiments.localization import calibrate_sp, feature_stack, run_localization
from subbeam.experiments.mobility import MobilityScenario, default_sweep_scenario, run_mobility
from subbeam.sensing import DelaySearchConfig, estimate_symbol_csi
from subbeam.waveform import (
    Numerology,
    build_predistortion_plan,
    generate_slot,
    sensing_slot,
)

from reference import beam_power, column_stacked_features

NUM = Numerology()
SEARCH = DelaySearchConfig(10)


class TestAirTime:
    def test_whole_slot_and_dmrs_accounting(self):
        slots, ms, ms_dmrs = air_time(961, 34, NUM)
        assert slots == 8
        assert ms == pytest.approx(1.0)
        assert ms_dmrs == pytest.approx(0.875)

    def test_exact_fit(self):
        slots, ms, ms_dmrs = air_time(136, 34, NUM)
        assert slots == 1
        assert ms == pytest.approx(0.125)
        assert ms_dmrs == pytest.approx(0.125)


class TestImaging:
    GEO = ArrayGeometry.planar(16, 16)

    def test_single_reflector_peak(self):
        scene = Scene(
            reflectors=(Reflector(math.radians(4), PathModel(1.0, 0.0, 3), elevation=0.0),),
            noise_power=1e-7,
            self_interference_inr_db=None,
        )
        az = np.radians(np.arange(-10, 11, 2.0))
        el = np.radians(np.arange(-10, 11, 2.0))
        grid = run_imaging(scene, az, el, NUM, self.GEO, 34, OptimizerConfig(), SEARCH, seed=1)
        j, i = np.unravel_index(np.argmax(grid.power_db), grid.power_db.shape)
        assert math.degrees(az[i]) == pytest.approx(4.0)
        assert math.degrees(el[j]) == pytest.approx(0.0)

    def test_empty_scene_is_noise_flat(self):
        # per-window weights re-draw every sweep, so averaging flattens the
        # noise floor; a single snapshot has a few dB of spread
        scene = Scene(noise_power=1e-6, self_interference_inr_db=None)
        az = np.radians(np.arange(-6, 7, 3.0))
        el = np.radians(np.arange(-6, 7, 3.0))
        grid = run_imaging(
            scene, az, el, NUM, self.GEO, 34, OptimizerConfig(), SEARCH, seed=2, repeats=24
        )
        assert float(np.max(grid.power_db) - np.min(grid.power_db)) < 3.0

    def test_two_reflectors_ordered_peaks(self):
        scene = Scene(
            reflectors=(
                Reflector(math.radians(6), PathModel(1.0, 0.0, 3), elevation=math.radians(-4)),
                Reflector(math.radians(-6), PathModel(0.5, 0.9, 6), elevation=math.radians(4)),
            ),
            noise_power=1e-7,
            self_interference_inr_db=20.0,
        )
        az = np.radians(np.arange(-10, 11, 2.0))
        el = np.radians(np.arange(-10, 11, 2.0))
        grid = run_imaging(
            scene, az, el, NUM, self.GEO, 34, OptimizerConfig(), SEARCH, seed=3, repeats=3
        )
        m = grid.power_db
        j, i = np.unravel_index(np.argmax(m), m.shape)
        assert abs(math.degrees(az[i]) - 6.0) <= 2.0
        assert abs(math.degrees(el[j]) - (-4.0)) <= 2.0
        masked = m.copy()
        masked[max(0, j - 3) : j + 4, max(0, i - 3) : i + 4] = -999
        j2, i2 = np.unravel_index(np.argmax(masked), masked.shape)
        assert abs(math.degrees(az[i2]) - (-6.0)) <= 2.0
        assert abs(math.degrees(el[j2]) - 4.0) <= 2.0
        assert m[j, i] > m[j2, i2]

    def test_users_get_codebook_azimuth_weights(self, monkeypatch):
        # Every pixel beam is the codebook entry of its azimuth (solved on one
        # row of the array) times the conjugate elevation taper.
        from subbeam.experiments import imaging

        built, pixel_beams = [], []
        build = imaging.build_codebook
        gain = imaging.round_trip_gain

        def recorded_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recorded_gain(beam, geometry, az, el):
            pixel_beams.append((az, el, beam.weights))
            return gain(beam, geometry, az, el)

        monkeypatch.setattr(imaging, "build_codebook", recorded_build)
        monkeypatch.setattr(imaging, "round_trip_gain", recorded_gain)
        users = (
            SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.2, 3)),
            SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.4, 4)),
        )
        scene = Scene(users=users, noise_power=1e-7, self_interference_inr_db=None)
        geo = ArrayGeometry.planar(8, 8)
        az = np.radians([-4.0, -2.0, 0.0, 2.0, 4.0])
        el = np.radians([-2.0, 2.0])
        cfg = OptimizerConfig()
        run_imaging(scene, az, el, NUM, geo, 34, cfg, SEARCH, seed=1)

        (cb,) = built
        row_geo = ArrayGeometry.ula(8)
        assert np.array_equal([e.sensing_angle for e in cb.entries], az)
        for e in cb.entries:
            anchor = np.conj(steering_vector(row_geo, e.sensing_angle))
            w = e.weights.weights
            assert np.all(np.abs(w) <= 1.0 + 1e-9)
            assert np.all(np.abs(w - anchor) <= cfg.epsilon + 1e-9)
            assert e.min_snr > 1.0
        assert len(pixel_beams) == len(az) * len(el)
        for k, (a, e_angle, w) in enumerate(pixel_beams):
            entry = cb.entries[k % len(az)]
            assert a == entry.sensing_angle
            w_el = np.conj(steering_vector(row_geo, e_angle))
            assert np.array_equal(w, np.kron(w_el, entry.weights.weights))

    @pytest.mark.parametrize("with_users", [False, True], ids=["no_users", "users"])
    def test_non_planar_geometry_rejected_before_solving(self, monkeypatch, with_users):
        def fail(*args, **kwargs):
            raise AssertionError("a pixel beam was solved before the geometry check")

        monkeypatch.setattr("subbeam.experiments.imaging.build_codebook", fail)
        users = (SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.2, 3)),)
        scene = Scene(
            users=users if with_users else (), noise_power=1e-7, self_interference_inr_db=None
        )
        az = np.radians([-2.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="imaging requires a planar geometry"):
            run_imaging(
                scene, az, az, NUM, ArrayGeometry.ula(16), 34, OptimizerConfig(), SEARCH, seed=1
            )


class TestLocalization:
    def test_calibration_needs_distinct_truths(self):
        runs = [(np.ones(5), 1.0), (np.ones(5), 1.0)]
        with pytest.raises(ValueError, match="distinct"):
            calibrate_sp(runs)

    def test_rank_deficient_rejected(self):
        runs = [(np.ones(5), 1.0), (np.ones(5), 2.0), (np.ones(5), 3.0)]
        with pytest.raises(ValueError, match="rank"):
            calibrate_sp(runs)

    def test_linear_construction_zero_residual(self):
        rng = np.random.default_rng(0)
        w_true = rng.standard_normal(6)
        feats = [rng.standard_normal(5) for _ in range(40)]
        runs = [(f, float(np.append(f, 1.0) @ w_true)) for f in feats]
        w = calibrate_sp(runs)
        for f, t in runs:
            assert float(np.append(f, 1.0) @ w) == pytest.approx(t, abs=1e-9)

    def test_constant_truth_reproduced_by_rich_design(self):
        # constant truths are excluded by the >=2-distinct precondition;
        # near-constant truths still reproduce exactly on training rows
        rng = np.random.default_rng(1)
        feats = [rng.standard_normal(4) for _ in range(30)]
        runs = [(f, 5.0) for f in feats[:-1]] + [(feats[-1], 5.0 + 1e-9)]
        w = calibrate_sp(runs)
        for f, t in runs:
            assert float(np.append(f, 1.0) @ w) == pytest.approx(5.0, abs=1e-6)

    def test_reduced_grid_medians(self):
        geo = ArrayGeometry.ula(16)
        res = run_localization(
            geo, NUM, SEARCH, seed=5,
            distances_m=np.round(np.arange(1.0, 8.01, 0.5), 3),
            angles_deg=np.arange(-15.0, 15.1, 3.0),
            slots_per_position=4,
            sweep_deg=np.linspace(-15, 15, 16),
        )
        assert res["median_distance_error_m"] <= 0.5
        assert res["median_angle_error_deg"] <= 2.0
        weights = res["weights"]
        assert weights.columns == ["index", "distance_weight", "angle_weight"]
        assert len(weights.rows) == 3 * 16 + 1
        for column in ("distance_weight", "angle_weight"):
            assert np.all(np.isfinite([r[column] for r in weights.rows]))

    @pytest.mark.parametrize("seed", range(4))
    def test_feature_rows_match_the_column_stack(self, seed):
        geo = ArrayGeometry.ula(16)
        beams = [conjugate_beam(geo, math.radians(a)) for a in np.linspace(-14, 14, 15)]
        bplan = SlotBeamPlan.uniform(NUM, beams, beams[0])
        scene = Scene(
            reflectors=(Reflector(math.radians(3 * seed - 5), PathModel(0.3, 0.0, 2 + seed)),),
            noise_power=1e-5,
            self_interference_inr_db=None,
        )
        slot = sensing_slot(NUM, dmrs_seed=seed)
        echoes = monostatic_echoes(bplan, scene, geo)
        for results in sense_dmrs(slot, slot, bplan, echoes, scene, SEARCH, seed):
            assert len({int(r.valid.sum()) for r in results}) > 1  # beams of unequal width
            want = column_stacked_features(results, bplan.schedule.sub_len)
            assert feature_stack(results, bplan.schedule.sub_len).tobytes() == want.tobytes()

    def test_training_point_fed_back(self):
        geo = ArrayGeometry.ula(16)
        res = run_localization(
            geo, NUM, SEARCH, seed=6,
            distances_m=[1.0, 2.0, 3.0, 4.0, 5.0],
            angles_deg=[-10.0, -5.0, 0.0, 5.0, 10.0],
            slots_per_position=4,
            sweep_deg=np.linspace(-12, 12, 9),
        )
        # medians on held-out samples of trained positions stay small
        assert res["median_distance_error_m"] < 0.5
        assert res["median_angle_error_deg"] < 2.0

    @staticmethod
    def _no_simulation(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a capture was simulated before the input check")

        # Localization captures through sense_dmrs, which calls link's binding.
        monkeypatch.setattr("subbeam.experiments.link.apply_monostatic", fail)

    def test_rank_checked_before_simulating(self, monkeypatch):
        self._no_simulation(monkeypatch)
        # 15 beams -> 46 columns; 5 positions * (2 slots * 4 DMRS // 2) = 20 rows
        with pytest.raises(ValueError, match="rank-deficient.*distance task: 20 training rows < 46"):
            run_localization(
                ArrayGeometry.ula(16), NUM, SEARCH, seed=1,
                distances_m=[1.0, 2.0, 3.0, 4.0, 5.0],
                angles_deg=np.arange(-15.0, 15.1, 1.0),
                slots_per_position=2,
                sweep_deg=np.linspace(-14, 14, 15),
            )
        with pytest.raises(ValueError, match="rank-deficient.*angle task"):
            run_localization(
                ArrayGeometry.ula(16), NUM, SEARCH, seed=1,
                distances_m=np.arange(1.0, 8.01, 0.5),
                angles_deg=[-5.0, 0.0, 5.0],
                slots_per_position=2,
                sweep_deg=np.linspace(-14, 14, 15),
            )

    @pytest.mark.parametrize(
        "distances, angle_task_distance", [([1.0, 4.0, 8.0, 12.0], 3.0), ([1.0, 3.0, 5.0, 8.0], 12.0)]
    )
    def test_out_of_range_delay_checked_before_simulating(
        self, monkeypatch, distances, angle_task_distance
    ):
        self._no_simulation(monkeypatch)
        monkeypatch.setattr(
            "subbeam.experiments.localization.ANGLE_TASK_DISTANCE_M", angle_task_distance
        )
        # 12 m is a 10-sample round trip at 122.88 MHz: past candidates 0..9
        with pytest.raises(ValueError, match="12.0 m has round-trip delay 10 samples"):
            run_localization(
                ArrayGeometry.ula(16), NUM, SEARCH, seed=1,
                distances_m=distances,
                angles_deg=np.arange(-15.0, 15.1, 3.0),
                slots_per_position=4,
                sweep_deg=np.linspace(-12, 12, 9),
            )

    def test_delay_beyond_cp_checked_before_simulating(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a capture was simulated before the input check")

        monkeypatch.setattr("subbeam.experiments.localization.sense_dmrs", fail)
        # 8 m is a 7-sample round trip at 122.88 MHz: inside the 10 delay
        # candidates, beyond a 4-sample cyclic prefix.
        with pytest.raises(ValueError, match="8.0 m has round-trip delay 7 samples, "
                                             "beyond the cp_length of 4 samples"):
            run_localization(
                ArrayGeometry.ula(16), Numerology(cp_length=4), SEARCH, seed=1,
                distances_m=[1.0, 2.0, 4.0, 8.0],
                angles_deg=np.arange(-15.0, 15.1, 3.0),
                slots_per_position=4,
                sweep_deg=np.linspace(-12, 12, 9),
            )

    def test_reflector_gains_taken_once_per_scene(self, monkeypatch):
        import subbeam.channel as channel

        calls = Counter()
        tx_amplitude, rx_gain = SlotBeamPlan.tx_amplitude, channel.rx_gain

        def counted_tx(plan, *args):
            calls["tx_amplitude"] += 1
            return tx_amplitude(plan, *args)

        def counted_rx(*args):
            calls["rx_gain"] += 1
            return rx_gain(*args)

        monkeypatch.setattr(SlotBeamPlan, "tx_amplitude", counted_tx)
        monkeypatch.setattr(channel, "rx_gain", counted_rx)
        distances, angles = [1.0, 2.0, 3.0, 4.0], [-8.0, 0.0, 8.0]
        run_localization(
            ArrayGeometry.ula(16), NUM, SEARCH, seed=2,
            distances_m=distances, angles_deg=angles, slots_per_position=4,
            sweep_deg=np.linspace(-12, 12, 5),
        )
        scenes = len(distances) + len(angles)
        assert calls == {"tx_amplitude": scenes, "rx_gain": scenes}


class TestMobility:
    GEO = ArrayGeometry.ula(32)

    def test_static_users_reuse_after_init(self):
        scenario = MobilityScenario(
            waypoints=(((0.0, -30.0),), ((0.0, 10.0),)),
            tick_interval=5e-3,
            duration=0.05,
        )
        out = run_mobility(scenario, [1.0, 1.0], [0.0], self.GEO, OptimizerConfig())
        assert out["stats"]["entries_reoptimized"] == 0
        assert out["stats"]["reoptimized_tick_fraction"] == 0.0
        assert out["stats"]["reoptimized_stop_reasons"] == {}
        assert out["stats"]["reoptimized_iterations"] == 0

    def test_solver_telemetry_of_reoptimized_entries(self, monkeypatch):
        from subbeam import codebook

        solved = []
        solve = codebook.optimize_max_min

        def recorded(*args, **kwargs):
            entry = solve(*args, **kwargs)
            if kwargs.get("warm_start") is not None:
                solved.append(entry)
            return entry

        monkeypatch.setattr(codebook, "optimize_max_min", recorded)
        scenario = default_sweep_scenario(duration=0.1, tick_interval=5e-3)
        cfg = OptimizerConfig(epsilon=0.5, snr_match_tol=2.0)
        stats = run_mobility(scenario, [1.0] * 4, [0.0], self.GEO, cfg)["stats"]
        assert stats["entries_reoptimized"] == len(solved) > 0
        assert stats["reoptimized_stop_reasons"] == Counter(e.stop_reason for e in solved)
        assert stats["reoptimized_iterations"] == sum(e.iterations for e in solved)

    def test_short_sweep_behaves(self):
        scenario = default_sweep_scenario(duration=0.5, tick_interval=5e-3)
        cfg = OptimizerConfig(epsilon=0.5, snr_match_tol=2.0)
        out = run_mobility(scenario, [1.0] * 4, [0.0], self.GEO, cfg, validate_ticks=4)
        gains = [r["sensing_gain_db"] for r in out["records"].rows]
        assert max(gains) - min(gains) < 1.5
        assert all(c["sound"] for c in out["validation"])

    def test_validation_rejects_weights_outside_unit_disk(self, monkeypatch):
        # Every update keeps entries at 1.2x their anchor: within the
        # radius-0.5 ball around it, but past the unit disk.
        def outside_disk(codebook, moved, geometry, cfg):
            entries = []
            for e in codebook.entries:
                weights = conjugate_beam(geometry, e.sensing_angle)
                # Set past Beamformer's own amplitude check.
                object.__setattr__(weights, "weights", 1.2 * weights.weights)
                min_snr = min(effective_snr(u.base_snr, weights, geometry, u.angle) for u in moved)
                entries.append(replace(e, weights=weights, min_snr=min_snr))
            return Codebook(tuple(entries), tuple(moved)), UpdateStats(reused=len(entries))

        monkeypatch.setattr(mobility, "update_codebook", outside_disk)
        scenario = MobilityScenario(
            waypoints=(((0.0, -30.0),), ((0.0, 10.0),)), tick_interval=5e-3, duration=0.01
        )
        cfg = OptimizerConfig(epsilon=0.5)
        out = run_mobility(scenario, [1.0, 1.0], [0.0], self.GEO, cfg, validate_ticks=2)
        assert len(out["validation"]) == 2
        for check in out["validation"]:
            assert check["premise_holds"]
            assert not check["feasible"] and not check["sound"]

    def test_trajectory_fov_guard(self):
        with pytest.raises(ValueError):
            MobilityScenario(waypoints=(((0.0, 80.0),),), duration=1.0)


class TestFieldOfView:
    """Every field-of-view check accepts and rejects the same angles.

    5e-10 deg past the edge is 8.7e-12 rad, past the rounding slack: a
    trajectory ending there must fail when the scenario is built, not at
    its final tick when the user is.
    """

    class Simulated(Exception):
        pass

    @pytest.mark.parametrize("deg, inside", [
        (60.0, True), (-60.0, True), (60.0000000005, False), (-60.0000000005, False),
    ])
    def test_one_bound_at_every_site(self, monkeypatch, deg, inside):
        def simulated(*args, **kwargs):
            raise self.Simulated

        monkeypatch.setattr("subbeam.experiments.localization.sense_dmrs", simulated)
        rad = math.radians(deg)
        checks = [
            lambda: UserLink(rad, 1.0),
            lambda: Reflector(rad, PathModel(0.5)),
            lambda: Reflector(0.0, PathModel(0.5), elevation=rad),
            lambda: MobilityScenario(waypoints=(((0.0, 0.0), (0.01, deg)),), duration=0.01),
        ]
        for check in checks:
            if inside:
                check()
            else:
                with pytest.raises(ValueError, match="field of view"):
                    check()
        # Localization checks its angles before the first capture.
        with pytest.raises(self.Simulated if inside else ValueError):
            run_localization(
                ArrayGeometry.ula(16), NUM, SEARCH, seed=1, distances_m=[1.0, 2.0],
                angles_deg=[0.0, deg], slots_per_position=4, sweep_deg=[0.0],
            )


class TestBaselines:
    GEO = ArrayGeometry.ula(16)

    def _scene(self):
        return Scene(
            users=(
                SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.2, 3)),
                SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.4, 4)),
            ),
            reflectors=(Reflector(0.0, PathModel(0.6, 0.5, 5), label="t"),),
            noise_power=1e-8,
            self_interference_inr_db=None,
        )

    def test_mode_comparison(self):
        sweep = [math.radians(a) for a in np.linspace(-15, 15, 8)]
        table = run_baseline(
            ("subf", "fixed", "switched"), self._scene(), 0.0, sweep, self.GEO, NUM,
            OptimizerConfig(), SEARCH, 30.0, "64QAM", seed=5,
        )
        assert [(r["mode"], r["user"]) for r in table.rows] == [
            (m, u) for m in ("subf", "fixed", "switched") for u in (0, 1)
        ]
        first = {r["mode"]: r for r in table.rows if r["user"] == 0}
        # dedicated single-user beam gives the best first-user EVM
        assert first["subf"]["evm_percent"] <= first["switched"]["evm_percent"]
        assert first["subf"]["evm_percent"] <= first["fixed"]["evm_percent"]
        # full-symbol and sub-symbol sensing CSI levels agree within 1 dB
        fixed_level = first["fixed"]["sensing_amplitude_db"]
        switched_level = first["switched"]["sensing_amplitude_db"]
        assert abs(fixed_level - switched_level) < 1.0
        # both recover the reflection level 20*log10(0.6)
        assert fixed_level == pytest.approx(20 * math.log10(0.6), abs=1.0)
        # switching-rate arithmetic
        assert first["switched"]["beam_switches_per_dmrs"] == 8
        assert first["fixed"]["beam_switches_per_dmrs"] == 1

    def test_unknown_mode_rejected(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a mode ran before every mode was checked")

        monkeypatch.setattr("subbeam.experiments.baselines.score_user", fail)
        monkeypatch.setattr("subbeam.experiments.baselines.sense_dmrs", fail)
        with pytest.raises(ValueError, match="unknown baseline mode 'other'"):
            run_baseline(
                ["subf", "other"], self._scene(), 0.0, [0.0], self.GEO, NUM,
                OptimizerConfig(), SEARCH, 30.0, "64QAM", seed=1,
            )


class TestReflectorDelayCheck:
    """A reflector delay past the last candidate fails before any solve."""

    GEO = ArrayGeometry.ula(16)

    @staticmethod
    def _no_solver(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a beamformer was solved before the input check")

        for name in (
            "subbeam.experiments.link.build_codebook",
            "subbeam.experiments.link.design_data_beam",
            "subbeam.experiments.baselines.build_codebook",
            "subbeam.experiments.baselines.design_data_beam",
            "subbeam.experiments.imaging.build_codebook",
        ):
            monkeypatch.setattr(name, fail)

    @staticmethod
    def _scene(delay):
        return Scene(
            users=(
                SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.2, 3)),
                SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.4, 4)),
            ),
            reflectors=(
                Reflector(0.0, PathModel(0.6, 0.5, 5), label="near"),
                Reflector(0.1, PathModel(0.6, 0.5, delay), label="far"),
            ),
            noise_power=1e-8,
            self_interference_inr_db=None,
        )

    def test_link(self, monkeypatch):
        self._no_solver(monkeypatch)
        with pytest.raises(ValueError, match="reflector far has round-trip delay 10 samples"):
            run_link(
                self._scene(10), self.GEO, [0.0], NUM, OptimizerConfig(), SEARCH,
                snr_db=30.0, modulation="QPSK", seed=1,
            )

    @pytest.mark.parametrize("mode", ["subf", "fixed", "switched"])
    def test_baseline(self, monkeypatch, mode):
        self._no_solver(monkeypatch)
        with pytest.raises(ValueError, match="reflector far has round-trip delay 12 samples"):
            run_baseline(
                [mode], self._scene(12), 0.0, [0.0], self.GEO, NUM,
                OptimizerConfig(), SEARCH, 30.0, "QPSK", seed=1,
            )

    def test_imaging(self, monkeypatch):
        self._no_solver(monkeypatch)
        az = np.radians([-2.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="beyond the 10 delay candidates"):
            run_imaging(
                self._scene(10), az, az, NUM, ArrayGeometry.planar(8, 8), 34,
                OptimizerConfig(), SEARCH, seed=1,
            )

    def test_last_candidate_accepted(self, monkeypatch):
        # Delay 9 is the last of candidates 0..9: the check passes and the
        # run reaches the (patched) solver.
        self._no_solver(monkeypatch)
        with pytest.raises(AssertionError, match="solved before the input check"):
            run_baseline(
                ["fixed"], self._scene(9), 0.0, [0.0], self.GEO, NUM,
                OptimizerConfig(), SEARCH, 30.0, "QPSK", seed=1,
            )


class TestSweepLongerThanFft:
    """A sweep with more beams than DMRS body samples fails before any solve."""

    @pytest.mark.parametrize("run", ["link", "baseline"])
    def test_rejected_before_solving(self, monkeypatch, run):
        from subbeam import codebook

        def fail(*args, **kwargs):
            raise AssertionError("a solve started before the input check")

        monkeypatch.setattr(codebook, "optimize_max_min", fail)
        scene = TestReflectorDelayCheck._scene(9)
        sweep = list(np.radians(np.linspace(-15.0, 15.0, 1025)))
        geo = ArrayGeometry.ula(16)
        with pytest.raises(ValueError, match=r"num_beams 1025 outside 1\.\.1024"):
            if run == "link":
                run_link(scene, geo, sweep, NUM, OptimizerConfig(), SEARCH, 30.0, "QPSK", 1)
            else:
                run_baseline(["subf", "switched"], scene, 0.0, sweep, geo, NUM,
                             OptimizerConfig(), SEARCH, 30.0, "QPSK", seed=1)


class TestLinkPipeline:
    def test_predistortion_keeps_evm_near_genie(self):
        geo = ArrayGeometry.ula(16)
        users = (
            SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.1, 3)),
            SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.2, 4)),
        )
        scene = Scene(users=users, noise_power=1e-9, self_interference_inr_db=None)
        sweep = [math.radians(a) for a in np.linspace(-15, 15, 8)]
        res = run_link(
            scene, geo, sweep, NUM, OptimizerConfig(), SEARCH,
            snr_db=30.0, modulation="64QAM", seed=3, num_slots=2,
        )
        for u in res.per_user.rows:
            assert u["evm_percent"] - u["evm_percent_genie"] < 1.0
            assert u["ber"] == 0.0
        res_off = run_link(
            scene, geo, sweep, NUM, OptimizerConfig(), SEARCH,
            snr_db=30.0, modulation="64QAM", seed=3, num_slots=2, predistort=False,
        )
        for u_on, u_off in zip(res.per_user.rows, res_off.per_user.rows):
            assert u_off["evm_percent"] > u_on["evm_percent"] + 1.0

    def test_paths_taken_once_per_plan(self, monkeypatch):
        calls = []
        tx_amplitude = SlotBeamPlan.tx_amplitude

        def counted(plan, *args):
            calls.append(plan)
            return tx_amplitude(plan, *args)

        monkeypatch.setattr(SlotBeamPlan, "tx_amplitude", counted)
        users = (
            SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.1, 3)),
            SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.2, 4)),
        )
        scene = Scene(users=users, reflectors=(Reflector(0.0, PathModel(0.8, 0.0, 5)),),
                      noise_power=1e-8, self_interference_inr_db=None)
        sweep = [math.radians(a) for a in (-10, 0, 10)]
        run_link(scene, ArrayGeometry.ula(16), sweep, NUM, OptimizerConfig(), SEARCH,
                 snr_db=30.0, modulation="QPSK", seed=4, num_slots=3)
        # one reflector and two users under one plan, however many slots
        assert len(calls) == 3 and len({id(plan) for plan in calls}) == 1

    def test_sensing_rows_cover_all_beams(self):
        geo = ArrayGeometry.ula(16)
        scene = Scene(
            reflectors=(Reflector(0.0, PathModel(0.8, 0.0, 5)),),
            noise_power=1e-8,
            self_interference_inr_db=None,
        )
        sweep = [math.radians(a) for a in (-10, 0, 10)]
        res = run_link(
            scene, geo, sweep, NUM, OptimizerConfig(), SEARCH,
            snr_db=30.0, modulation="QPSK", seed=4,
        )
        assert len(res.sensing_rows.rows) == 3 * len(NUM.dmrs_positions())
        at_zero = [
            r for r in res.sensing_rows.rows if r["beam_index"] == 1 and r["symbol"] == 0
        ]
        assert at_zero[0]["best_delay"] == 5


class TestSenseDmrs:
    """``sense_dmrs`` against the per-DMRS capture loop it replaced."""

    GEO = ArrayGeometry.ula(16)
    SCENE = Scene(
        users=(
            SceneUser(UserLink(math.radians(-30), 1.0), PathModel(1.0, 0.1, 3)),
            SceneUser(UserLink(math.radians(30), 1.0), PathModel(1.0, -0.2, 4)),
        ),
        reflectors=(
            Reflector(math.radians(5), PathModel(0.5, 0.3, 5)),
            Reflector(math.radians(-8), PathModel(0.2, -1.1, 7)),
        ),
        noise_power=1e-6,
        self_interference_inr_db=20.0,
    )

    @staticmethod
    def inline(tx, reference, bplan, scene, geometry, amplitude, seed):
        rx = apply_monostatic(tx, monostatic_echoes(bplan, scene, geometry), scene, seed=seed)
        return [
            estimate_symbol_csi(
                rx[NUM.symbol_slice(pos, include_cp=False)],
                reference.symbol_body(pos),
                bplan.schedule,
                SEARCH,
                amplitude,
            )
            for pos in NUM.dmrs_positions()
        ]

    def assert_same(self, got, want):
        assert len(got) == len(want) == len(NUM.dmrs_positions())
        for row_got, row_want in zip(got, want):
            assert len(row_got) == len(row_want)
            for a, b in zip(row_got, row_want):
                assert np.array_equal(a.csi, b.csi)
                assert a.best_delay == b.best_delay
                assert (a.slope, a.mse, a.power) == (b.slope, b.mse, b.power)
                assert np.array_equal(a.valid, b.valid)

    def test_predistorted_link_slot(self):
        users = [su.link for su in self.SCENE.users]
        beams = [conjugate_beam(self.GEO, math.radians(a)) for a in (-12, -4, 4, 12)]
        data_beam = conjugate_beam(self.GEO, 0.0)
        amplitude = build_predistortion_plan(beams, data_beam, users, self.GEO)
        bplan = SlotBeamPlan.uniform(NUM, beams, data_beam, amplitude)
        reference = generate_slot(NUM, "64QAM", seed=3)
        tx = bplan.send(reference)
        echoes = monostatic_echoes(bplan, self.SCENE, self.GEO)
        got = sense_dmrs(tx, reference, bplan, echoes, self.SCENE, SEARCH, 11)
        self.assert_same(
            got, self.inline(tx, reference, bplan, self.SCENE, self.GEO, amplitude, 11)
        )

    def test_identity_plan_slot(self):
        # Imaging, localization and the link without pre-distortion carry no amplitudes.
        beams = [conjugate_beam(self.GEO, math.radians(a)) for a in np.linspace(-15, 15, 7)]
        bplan = SlotBeamPlan.uniform(NUM, beams, beams[0])
        slot = generate_slot(NUM, "QPSK", seed=5, dmrs_seed=5)
        echoes = monostatic_echoes(bplan, self.SCENE, self.GEO)
        got = sense_dmrs(slot, slot, bplan, echoes, self.SCENE, SEARCH, 12)
        self.assert_same(got, self.inline(slot, slot, bplan, self.SCENE, self.GEO, None, 12))


class TestBeamPower:
    """``SensingCsi.power`` against ``reference.beam_power``, byte for byte.

    Captures are taken as the link (a pre-distorted data slot), imaging (a
    planar array with its own sweep on each DMRS symbol) and localization (a
    sensing-only slot) take them; the beams of a symbol differ in their
    usable widths.
    """

    GEO = ArrayGeometry.ula(16)

    def link(self, seed):
        scene = TestSenseDmrs.SCENE
        beams = [conjugate_beam(self.GEO, math.radians(a)) for a in np.linspace(-14, 14, 15)]
        data_beam = conjugate_beam(self.GEO, 0.0)
        amplitude = build_predistortion_plan(
            beams, data_beam, [su.link for su in scene.users], self.GEO
        )
        bplan = SlotBeamPlan.uniform(NUM, beams, data_beam, amplitude)
        reference = generate_slot(NUM, "64QAM", seed=seed)
        return bplan.send(reference), reference, bplan, scene, self.GEO

    def imaging(self, seed):
        geo = ArrayGeometry(64, layout="planar", planar_shape=(8, 8))
        elevations = np.radians(np.linspace(-8, 8, len(NUM.dmrs_positions())))
        bplan = SlotBeamPlan(NUM, [
            [conjugate_beam(geo, az, el) for az in np.radians(np.linspace(-8, 8, 9))]
            for el in elevations
        ], conjugate_beam(geo, 0.0, 0.0))
        scene = Scene(
            reflectors=(Reflector(math.radians(4), PathModel(1.0, 0.0, 3), math.radians(2)),),
            noise_power=1e-7,
            self_interference_inr_db=None,
        )
        slot = generate_slot(NUM, "QPSK", seed=seed, dmrs_seed=seed)
        return slot, slot, bplan, scene, geo

    def localize(self, seed):
        beams = [conjugate_beam(self.GEO, math.radians(a)) for a in np.linspace(-12, 12, 9)]
        scene = Scene(
            reflectors=(Reflector(math.radians(3 * seed - 5), PathModel(0.3, 0.0, 2 + seed)),),
            noise_power=1e-5,
            self_interference_inr_db=None,
        )
        slot = sensing_slot(NUM, dmrs_seed=seed)
        return slot, slot, SlotBeamPlan.uniform(NUM, beams, beams[0]), scene, self.GEO

    @pytest.mark.parametrize("style", ["link", "imaging", "localize"])
    def test_byte_equal(self, style):
        for seed in range(3):
            tx, reference, bplan, scene, geo = getattr(self, style)(seed)
            echoes = monostatic_echoes(bplan, scene, geo)
            for results in sense_dmrs(tx, reference, bplan, echoes, scene, SEARCH, seed):
                assert len({int(r.valid.sum()) for r in results}) > 1  # beams of unequal width
                for r in results:
                    assert type(r.power) is float
                    assert r.power.hex() == beam_power(r.csi, r.valid).hex()
