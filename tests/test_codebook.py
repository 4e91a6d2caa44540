"""Codebook solver, update rule, and serialization tests."""

import math
import warnings

import numpy as np
import pytest

import seed_codebook
from subbeam import codebook
from subbeam.arrays import (
    ArrayGeometry,
    Beamformer,
    beamforming_gain,
    conjugate_beam,
    steering_vector,
)
from subbeam.codebook import (
    Codebook,
    OptimizerConfig,
    UserLink,
    build_codebook,
    design_data_beam,
    load_codebook,
    optimize_max_min,
    optimize_weighted_sum,
    save_codebook,
    update_codebook,
    warn_close_angles,
)
from subbeam.experiments.tradeoff import epsilon_sweep

from reference import min_user_snr, reference_max_min, steering

GEO16 = ArrayGeometry.ula(16)
TWO_USERS = [UserLink(math.radians(-30), 1.0), UserLink(math.radians(30), 1.0)]
BROADSIDE = 0.0  # sensing angle


def db(x):
    return 10 * math.log10(max(x, 1e-300))


def _recorded_ascents(monkeypatch):
    """Make ``_ascend`` record each call's per-start runs; returns the list of calls."""
    ascend, calls = codebook._ascend, []

    def recorded(*args):
        calls.append(ascend(*args))
        return calls[-1]

    monkeypatch.setattr(codebook, "_ascend", recorded)
    return calls


class TestWeightedSum:
    def test_coincident_user_and_sensing(self):
        angle = math.radians(10.0)
        users = [UserLink(angle, 2.0)]
        w = optimize_weighted_sum(users, angle, GEO16, OptimizerConfig(), sensing_weight=2.0)
        conj = conjugate_beam(GEO16, angle)
        align = abs(np.vdot(conj.weights, w.weights)) / 16
        assert align == pytest.approx(1.0, abs=1e-6)
        # objective = (alpha + gamma) * N^2
        objective = _weighted_sum_objective(w, users, angle, GEO16, 2.0)
        assert objective == pytest.approx((2.0 + 2.0) * 256.0, rel=1e-6)

    def test_objective_trace_non_decreasing(self, monkeypatch):
        calls = _recorded_ascents(monkeypatch)
        optimize_weighted_sum(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig())
        [_fair_runs, runs] = calls
        for *_, trace in runs:
            assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_alpha_zero_is_pure_multi_user(self):
        w = optimize_weighted_sum(
            TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(), sensing_weight=0.0
        )
        g_users = [beamforming_gain(w, GEO16, u.angle) for u in TWO_USERS]
        # all the aperture goes to the users; each can reach N^2/2
        assert min(g_users) > 0.5 * 128.0

    def test_negative_sensing_weight_rejected(self):
        with pytest.raises(ValueError, match="sensing_weight must be >= 0"):
            optimize_weighted_sum(
                TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(), sensing_weight=-0.5
            )

    def test_three_beams_near_max_min_result(self):
        # sensing weighted like one average user: balanced allocation
        w = optimize_weighted_sum(
            TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(), sensing_weight=0.5
        )
        entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(epsilon=0.9))
        angles = [BROADSIDE] + [u.angle for u in TWO_USERS]
        for angle in angles:
            g_base = db(beamforming_gain(w, GEO16, angle))
            g_accel = db(beamforming_gain(entry.weights, GEO16, angle))
            assert abs(g_base - g_accel) < 1.0


class TestMaxMin:
    def test_zero_radius_returns_conjugate(self):
        cfg = OptimizerConfig(epsilon=0.0)
        entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, cfg)
        assert np.array_equal(entry.weights.weights, conjugate_beam(GEO16, 0.0).weights)
        assert beamforming_gain(entry.weights, GEO16, 0.0) == pytest.approx(256.0)
        assert entry.converged

    def test_large_radius_single_user_reaches_conjugate(self):
        users = [UserLink(math.radians(25), 1.0)]
        entry = optimize_max_min(users, BROADSIDE, GEO16, OptimizerConfig(epsilon=2.0))
        assert entry.min_snr == pytest.approx(256.0, rel=1e-3)

    def test_empty_users_sentinel(self):
        entry = optimize_max_min([], BROADSIDE, GEO16, OptimizerConfig())
        assert math.isinf(entry.min_snr)
        assert np.array_equal(entry.weights.weights, conjugate_beam(GEO16, 0.0).weights)

    def test_feasibility_at_return(self):
        for eps in (0.25, 0.5, 1.0):
            entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(epsilon=eps))
            w = entry.weights.weights
            anchor = conjugate_beam(GEO16, 0.0).weights
            assert np.all(np.abs(w) <= 1.0 + 1e-9)
            assert np.all(np.abs(w - anchor) <= eps + 1e-9)

    def test_min_snr_recomputable(self):
        entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(epsilon=0.5))
        recomputed = min(
            u.base_snr * beamforming_gain(entry.weights, GEO16, u.angle) for u in TWO_USERS
        )
        assert recomputed == pytest.approx(entry.min_snr, rel=1e-6)

    def test_against_random_restart_reference(self):
        # canonical scenario: the independent reference solver sets the bar
        entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(epsilon=0.5))
        _, ref_val = reference_max_min(
            [u.angle for u in TWO_USERS], [1.0, 1.0], 0.0, 16, 0.5, seed=1
        )
        assert entry.min_snr >= ref_val * 10 ** (-0.3 / 10.0)
        # sensing gain within 3 dB of the conjugate maximum (24.08 dB)
        g_sense = db(beamforming_gain(entry.weights, GEO16, 0.0))
        assert g_sense > 24.08 - 3.0
        # both user gains balanced within 1 dB of each other
        g_users = [db(beamforming_gain(entry.weights, GEO16, u.angle)) for u in TWO_USERS]
        assert abs(g_users[0] - g_users[1]) < 1.0

    def test_anchor_entries_report_anchor(self):
        for users, cfg in ((TWO_USERS, OptimizerConfig(epsilon=0.0)), ([], OptimizerConfig())):
            entry = optimize_max_min(users, BROADSIDE, GEO16, cfg)
            assert (entry.iterations, entry.stop_reason, entry.converged) == (0, "anchor", True)

    def test_stop_reason_matches_converged(self):
        cfg = OptimizerConfig(epsilon=0.5, max_iters=20)
        capped = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, cfg)
        assert (capped.stop_reason, capped.iterations, capped.converged) == ("max_iters", 20, False)
        entry = optimize_max_min(TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(epsilon=0.5))
        assert entry.stop_reason in ("grad", "stationary", "stalled")
        assert entry.converged and 0 < entry.iterations < 2000

    def test_wrong_length_warm_start_rejected(self, monkeypatch):
        monkeypatch.setattr(codebook, "_ascend", _no_ascent)
        with pytest.raises(ValueError, match="1 weights but the array has 16 elements"):
            optimize_max_min(
                TWO_USERS, BROADSIDE, GEO16, OptimizerConfig(), warm_start=Beamformer([0.1])
            )

    def test_close_user_angles_warn(self):
        # Once for a three-entry build, not once per solve.
        sweep = [math.radians(a) for a in (-5.0, 0.0, 5.0)]
        cfg = OptimizerConfig(epsilon=0.5)
        _, caught = _warnings_of(lambda: build_codebook(CLOSE_USERS, sweep, GEO16, cfg))
        assert caught == [CLOSE_WARNING]


CLOSE_USERS = [UserLink(math.radians(10.0), 1.0), UserLink(math.radians(11.0), 1.0)]
CLOSE_WARNING = (
    "user angles 10.0 and 11.0 deg are within one HPBW; the solver may not separate their beams"
)


def _warnings_of(run):
    """``run()``'s result and the message of every warning it emits, repeats included."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [str(w.message) for w in caught]


class TestProximityWarning:
    """Users within one HPBW are warned about once per layout, never per solve
    (``TestMaxMin::test_close_user_angles_warn`` covers the codebook build)."""

    def test_epsilon_sweep_warns_once(self):
        _, caught = _warnings_of(
            lambda: epsilon_sweep(CLOSE_USERS, BROADSIDE, GEO16, [0.0, 0.5], OptimizerConfig())
        )
        assert caught == [CLOSE_WARNING]

    def test_solves_warn_nothing(self):
        cfg = OptimizerConfig(epsilon=0.5, max_iters=500)
        for solve in (optimize_max_min, optimize_weighted_sum):
            _, caught = _warnings_of(lambda: solve(CLOSE_USERS, BROADSIDE, GEO16, cfg))
            assert caught == []

    @pytest.mark.parametrize(
        "angles_deg,warned",
        # The 16-element HPBW, 0.886 / (N d) = 0.111, holds in sine space.
        # 50/57 deg differ by 0.073 in sine though by 0.122 rad, and the
        # 50 deg conjugate beam is only 5.5 dB down at 57 deg; 0/6 deg
        # differ by 0.105 in sine, 0/7 deg by 0.122.
        [((50.0, 57.0), True), ((0.0, 6.0), True), ((0.0, 7.0), False)],
    )
    def test_beamwidth_is_compared_in_sine_space(self, angles_deg, warned):
        users = [UserLink(math.radians(a), 1.0) for a in angles_deg]
        _, caught = _warnings_of(lambda: warn_close_angles(users, GEO16))
        a, b = angles_deg
        expected = (
            f"user angles {a:.1f} and {b:.1f} deg are within one HPBW; "
            "the solver may not separate their beams"
        )
        assert caught == ([expected] if warned else [])

    def test_update_with_crossing_users_warns_nothing(self):
        cfg = OptimizerConfig(epsilon=0.5)
        cb = build_codebook(TWO_USERS, [0.0], GEO16, cfg)
        (_, stats), caught = _warnings_of(lambda: update_codebook(cb, CLOSE_USERS, GEO16, cfg))
        assert caught == []
        assert stats.reoptimized == 1


def _no_ascent(*args, **kwargs):
    raise AssertionError("a solve started before the input check")


def _layout(n_users, offset_deg):
    """Users spread over +/-50 deg, with unequal base SNRs."""
    angles = np.linspace(-50.0, 50.0, n_users) + offset_deg
    return [UserLink(math.radians(a), 1.0 + 0.25 * i) for i, a in enumerate(angles)]


def _same_entry(new, old):
    assert np.array_equal(new.weights.weights, old.weights.weights)
    assert new.min_snr == old.min_snr
    assert new.converged == old.converged


def _anneal_prefix():
    """Trace entries (start value plus annealing iterations) before the final temperature.

    Assumes every annealing iteration finds a step, so the temperature
    decays by ``_TAU_DECAY`` each time; a halving would end the anneal
    earlier and the prefix comparison would catch it.
    """
    ratio = codebook._TAU_MIN / codebook._TAU_INIT
    return 1 + math.ceil(math.log(ratio) / math.log(codebook._TAU_DECAY))


def _assert_feasible(entry, geo, eps):
    _assert_feasible_weights(entry.weights.weights, entry.sensing_angle, geo, eps)


def _assert_feasible_weights(w, sensing_angle, geo, eps):
    anchor = np.conj(steering_vector(geo, sensing_angle))
    assert np.all(np.abs(w) <= 1.0 + 1e-9)
    assert np.all(np.abs(w - anchor) <= eps + 1e-9)


def _weighted_sum_objective(w, users, sensing_angle, geo, sensing_weight):
    user_mean = np.mean([u.base_snr * beamforming_gain(w, geo, u.angle) for u in users])
    return sensing_weight * beamforming_gain(w, geo, sensing_angle) + user_mean


class TestEngineEquivalence:
    """The engine against a verbatim copy of the first solver (``seed_codebook``).

    The cold annealing phase is unchanged, so each cold trace matches the
    first solver's bit for bit up to the first final-temperature iteration.
    From there the engine searches along the projected-gradient step instead
    of the raw gradient. Warm starts anneal from ``_TAU_INIT`` here but from
    0.05 in the first solver, so only their results are compared. Every
    result must land within the solver tolerance (0.2 dB) of the first
    solver's, feasibly, without the cap.
    """

    @pytest.mark.parametrize("n_elements,n_users", [(16, 2), (32, 4), (48, 6)])
    def test_max_min_cold_and_warm(self, n_elements, n_users, monkeypatch):
        geo = ArrayGeometry.ula(n_elements)
        users = _layout(n_users, 1.0)
        target = seed_codebook.SensingTarget(math.radians(-4.0))
        cfg = OptimizerConfig(epsilon=0.5)
        calls = _recorded_ascents(monkeypatch)
        new = optimize_max_min(users, target.angle, geo, cfg)
        # Each start's trace, in start order, as the first solver appends them.
        trace_new = [f for *_, trace in calls[0] for f in trace]
        trace_old = []
        old = seed_codebook.optimize_max_min(users, target, geo, cfg, trace=trace_old)
        k = _anneal_prefix()
        assert k == 60
        assert trace_new[:k] == trace_old[:k]
        assert trace_new[k] != trace_old[k]
        self._assert_close(new, old, geo, cfg)

        # Both engines refine the same warm start (the first solver's entry).
        moved = _layout(n_users, 1.4)
        new_w = optimize_max_min(moved, target.angle, geo, cfg, old.weights)
        old_w = seed_codebook.optimize_max_min(moved, target, geo, cfg, old.weights)
        self._assert_close(new_w, old_w, geo, cfg)

    @staticmethod
    def _assert_close(new, old, geo, cfg):
        assert db(new.min_snr) >= db(old.min_snr) - 0.2
        _assert_feasible(new, geo, cfg.epsilon)
        assert new.stop_reason != "max_iters" and new.converged

    def test_zero_radius_and_no_users(self):
        for users, cfg in ((TWO_USERS, OptimizerConfig(epsilon=0.0)), ([], OptimizerConfig())):
            _same_entry(
                optimize_max_min(users, BROADSIDE, GEO16, cfg),
                seed_codebook.optimize_max_min(
                    users, seed_codebook.SensingTarget(BROADSIDE), GEO16, cfg
                ),
            )

    @pytest.mark.parametrize("sensing_weight", [0.0, 1.0])
    def test_weighted_sum(self, sensing_weight):
        # A short cap keeps the fair-point seeding cheap. The first solver's
        # sensing base SNR of 2 is the same objective as twice the weight.
        cfg = OptimizerConfig(max_iters=500)
        angle = math.radians(6.0)
        users = _layout(2, -3.0)
        new = optimize_weighted_sum(users, angle, GEO16, cfg, sensing_weight=2.0 * sensing_weight)
        old = seed_codebook.optimize_weighted_sum(
            users, seed_codebook.SensingTarget(angle, 2.0), GEO16, cfg,
            sensing_weight=sensing_weight,
        )
        f_new = _weighted_sum_objective(new, users, angle, GEO16, 2.0 * sensing_weight)
        f_old = _weighted_sum_objective(old, users, angle, GEO16, 2.0 * sensing_weight)
        assert abs(db(f_new) - db(f_old)) < 0.01


class TestLockstep:
    """Starts climbing in lockstep against each start climbing alone, bit for bit."""

    @staticmethod
    def _checked(monkeypatch):
        """Make every ``_ascend`` call also run each start alone and compare;
        returns the list of start counts seen."""
        lockstep, counts = codebook._ascend, []

        def checked(starts, *args):
            runs = lockstep(starts, *args)
            for run, w0 in zip(runs, starts, strict=True):
                [alone] = lockstep([w0], *args)
                # A _climb returns (w, f, iterations, stop reason, trace), a
                # _fair_point its weights alone.
                w, *rest = run if isinstance(run, tuple) else (run,)
                w_alone, *rest_alone = alone if isinstance(alone, tuple) else (alone,)
                assert w.tobytes() == w_alone.tobytes()
                assert rest == rest_alone
            counts.append(len(starts))
            return runs

        monkeypatch.setattr(codebook, "_ascend", checked)
        return counts

    @pytest.mark.parametrize("max_iters", [2000, 20])
    def test_max_min_cold_and_warm(self, monkeypatch, max_iters):
        counts = self._checked(monkeypatch)
        geo = ArrayGeometry.ula(32)
        cfg = OptimizerConfig(epsilon=0.5, max_iters=max_iters)
        cold = optimize_max_min(_layout(4, 1.0), math.radians(-4.0), geo, cfg)
        warm = optimize_max_min(_layout(4, 1.4), math.radians(-4.0), geo, cfg, cold.weights)
        assert counts == [3, 2]
        if max_iters == 20:
            assert cold.stop_reason == warm.stop_reason == "max_iters"

    def test_weighted_sum(self, monkeypatch):
        counts = self._checked(monkeypatch)
        optimize_weighted_sum(
            _layout(3, -3.0), math.radians(6.0), GEO16, OptimizerConfig(max_iters=500),
            sensing_weight=2.0,
        )
        # The fair seeding over the sensing row and 3 users, then the 4 starts.
        assert counts == [7, 4]

    def test_data_beam(self, monkeypatch):
        # 3 mixture starts and 4 anchored ones; each fair start's rounds are
        # scored at its own temperature, so a start alone must match. A
        # short cap (50 iterations per round) keeps it cheap.
        counts = self._checked(monkeypatch)
        design_data_beam(_layout(4, 1.0), ArrayGeometry.ula(32), OptimizerConfig(max_iters=500))
        assert counts == [7]


class TestStallStop:
    def test_formerly_capped_solve_converges(self):
        # At -1.5 deg the first solver's winning start creeps along the
        # max-min kink to max_iters (a raw-gradient search with the stall
        # stop gives up as stalled); the projected-gradient search reaches
        # a point where no step improves.
        target = seed_codebook.SensingTarget(math.radians(-1.5))
        users = [UserLink(math.radians(-30.0), 1.0), UserLink(math.radians(30.0), 1.0)]
        cfg = OptimizerConfig()
        old = seed_codebook.optimize_max_min(users, target, GEO16, cfg)
        assert not old.converged
        new = optimize_max_min(users, target.angle, GEO16, cfg)
        assert new.stop_reason in ("grad", "stationary") and new.converged
        assert new.iterations < 300
        assert abs(db(new.min_snr) - db(old.min_snr)) < 0.01

    def test_creeping_ascent_stops_stalled(self):
        # Every step is accepted but gains only ~4e-10 relative, far below
        # _STALL_REL, while the gradient stays too large for the grad stop.
        # The stall count passes _STALL_ITERS during the anneal, but the
        # stop waits for the first final-temperature iteration.
        def measure(w):
            # Row-wise for a stack of points, an (inner, x)-shaped cache.
            return w, w.real

        def score(x):
            return 1.0 + 1e-9 * x.sum(axis=-1)

        def gradient(ev, tau):
            return np.ones(4, dtype=complex)

        def climb(w0):
            return codebook._climb(w0, measure, score, gradient, lambda w: w, cfg, None)

        cfg = OptimizerConfig()
        [(w, f, iterations, reason, _)] = codebook._ascend(
            [np.zeros(4, dtype=complex)], climb, measure, lambda w: w
        )
        assert reason == "stalled"
        assert iterations == _anneal_prefix() > codebook._STALL_ITERS
        assert f > 1.0


def _sequential_line_search(w, f, d, evaluate, project, step0=codebook._STEP_INIT):
    """Sequential halving search, one step at a time: the reference for the batched ladder."""
    step = min(step0, codebook._STEP_INIT)
    while step >= codebook._STEP_MIN:
        w_try = project(w + step * d)
        f_try, ev_try = evaluate(w_try)
        if f_try > f * (1.0 + 1e-12) + 1e-15:
            return w_try, f_try, ev_try, step
        step *= 0.5
    return None


def _one_point_evaluator(s, gamma, score):
    """One-point evaluator with ``s @ w``: the reference for the batched one."""

    def evaluate(w):
        inner = s @ w
        x = gamma * np.abs(inner) ** 2
        return score(x), (inner, x)

    return evaluate


_COEF = np.array([1.0, 0.25, 0.25, 0.25, 0.25])


def _one_point_softmin(x, t):
    z = -x / t
    zmax = z.max()
    return -t * (zmax + math.log(np.exp(z - zmax).sum()))


def _driven_search(w, f, d, step0, score, measure, project):
    """One line search driven through ``_ascend``: a climb that yields it once
    and returns its pick."""

    def climb(w0):
        return (yield w0, f, d, step0, score)

    [hit] = codebook._ascend([w], climb, measure, project)
    return hit


class TestBatchedLineSearch:
    """The driver's batched halving ladder against the sequential search, bit for bit."""

    # (batched row-wise score, one-point score of the sequential solver)
    # for the max-min, weighted-sum and fair-point objectives.
    SCORES = (
        (lambda x: x.min(axis=-1), lambda x: float(x.min())),
        (lambda x: (_COEF * x).sum(axis=-1), lambda x: float((_COEF * x).sum())),
        (lambda x: codebook._softmin(x, 3.0), lambda x: _one_point_softmin(x, 3.0)),
    )

    @staticmethod
    def _problem(rng, n):
        geo = ArrayGeometry.ula(n)
        angles = np.radians([-30.0, -12.0, 7.0, 21.0, 40.0])
        s = np.array([steering_vector(geo, a) for a in angles])
        gamma = 1.0 + rng.random(len(angles))
        anchor = np.conj(steering_vector(geo, math.radians(-4.0)))
        return s, gamma, anchor

    @staticmethod
    def _assert_same(batched, sequential):
        if sequential is None:
            assert batched is None
            return
        w_b, f_b, (inner_b, x_b), step_b = batched
        w_s, f_s, (inner_s, x_s), step_s = sequential
        assert type(f_b) is float and f_b == f_s and step_b == step_s
        for a, b in ((w_b, w_s), (inner_b, inner_s), (x_b, x_s)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [16, 32, 48])
    @pytest.mark.parametrize("step0", [0.1, 0.1 * 2.0**-5])
    @pytest.mark.parametrize("projection", ["polydisk", "ball_then_disk"])
    def test_same_pick_as_sequential(self, n, step0, projection):
        rng = np.random.default_rng(n)
        s, gamma, anchor = self._problem(rng, n)
        if projection == "polydisk":
            project = codebook._project_polydisk
        else:
            def project(w):
                return codebook._project_ball_then_disk(w, anchor, 0.5)

        picked_steps = set()
        measure = codebook._measure(s, gamma)
        for score, one_point_score in self.SCORES:
            sequential_eval = _one_point_evaluator(s, gamma, one_point_score)
            w = project(anchor + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
            f, ev = sequential_eval(w)
            # An ascent along the softmin gradient that carries twice the last
            # step, as the solver does: its searches have to halve.
            step_mem = step0
            for _ in range(200):
                t = 0.05 * ev[1].mean()
                d = codebook._normalized_direction(
                    codebook._softmin_ascent(ev, t, gamma, np.conj(s))
                )
                assert score(measure(w)[1]) == f
                batched = _driven_search(w, f, d, step_mem, score, measure, project)
                sequential = _sequential_line_search(w, f, d, sequential_eval, project, step_mem)
                self._assert_same(batched, sequential)
                if sequential is None:
                    break
                w, f, ev, step = sequential
                picked_steps.add(step)
                step_mem = 2.0 * step
        # Picks past the first rung of a ladder were compared too.
        assert len(picked_steps) >= 3

    @pytest.mark.parametrize("step0", [0.1, 0.1 * 2.0**-5])
    def test_no_improving_step(self, step0):
        # A zero-radius ball projects every rung back onto the anchor.
        s, gamma, anchor = self._problem(np.random.default_rng(0), 16)

        def project(w):
            return codebook._project_ball_then_disk(w, anchor, 0.0)

        d = np.ones(16, dtype=complex)
        measure = codebook._measure(s, gamma)
        sequential_eval = _one_point_evaluator(s, gamma, lambda x: float(x.min()))
        f, _ = sequential_eval(anchor)
        hit = _driven_search(anchor, f, d, step0, lambda x: x.min(axis=-1), measure, project)
        assert hit is None
        assert _sequential_line_search(anchor, f, d, sequential_eval, project, step0) is None

    def test_ladders_are_the_sequential_steps(self):
        for step0, ladder in codebook._LADDERS.items():
            steps, step = [], min(step0, codebook._STEP_INIT)
            while step >= codebook._STEP_MIN:
                steps.append(step)
                step *= 0.5
            assert ladder[:, 0].tolist() == steps
        # A search starts at _STEP_INIT or at twice an accepted step.
        assert codebook._STEP_INIT in codebook._LADDERS
        assert all(2.0 * step in codebook._LADDERS for step in codebook._STEPS)

    # m up to the tallest lockstep batch: acceptance 02's weighted-sum
    # seeding, 3 + 7 fair starts (6 users and the sensing row) x 20 rungs.
    @pytest.mark.parametrize("n_users", [2, 4, 6, 7])
    @pytest.mark.parametrize("m", [1, 20, 47, 80, 200])
    def test_batched_matmul_matches_one_point_products(self, n_users, m):
        # _measure relies on this: a stacked matmul gives every row the
        # same bits as its own s @ w (plain W @ s.T does not).
        rng = np.random.default_rng(n_users * 100 + m)
        for n in (16, 32, 48):
            s = rng.standard_normal((n_users, n)) + 1j * rng.standard_normal((n_users, n))
            w_stack = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            batched = np.matmul(s, w_stack[..., None])[..., 0]
            assert np.array_equal(batched, np.array([s @ w for w in w_stack]))


class TestCodebookBuildUpdate:
    def test_one_max_min_call_per_entry(self, monkeypatch):
        # The benchmark times each entry's solve through this module global.
        calls = []
        solve = codebook.optimize_max_min

        def counted(*args, **kwargs):
            calls.append((args[1], kwargs.get("warm_start")))
            return solve(*args, **kwargs)

        monkeypatch.setattr(codebook, "optimize_max_min", counted)
        sweep = [math.radians(a) for a in (-10, 0, 10)]
        cfg = OptimizerConfig(epsilon=0.5)
        build_codebook(TWO_USERS, sweep, GEO16, cfg)
        assert [angle for angle, _ in calls] == sweep
        # The first entry is solved cold; each later one starts warm from a
        # point feasible for its own anchor.
        assert calls[0][1] is None
        for angle, warm in calls[1:]:
            assert warm is not None
            _assert_feasible_weights(warm.weights, angle, GEO16, cfg.epsilon)

    def test_continuation_matches_cold_solves(self):
        # The paper's 34-beam sweep over +/-16.5 deg: carrying each entry onto
        # the next anchor must land where per-entry cold solves land, up to
        # the start-choice spread, and every entry must stay feasible.
        sweep = np.radians(np.linspace(-16.5, 16.5, 34))
        cfg = OptimizerConfig(epsilon=0.5)
        cb = build_codebook(TWO_USERS, list(sweep), GEO16, cfg)
        cold = [optimize_max_min(TWO_USERS, a, GEO16, cfg) for a in sweep]

        def sensing_db(entries):
            gains = [beamforming_gain(e.weights, GEO16, e.sensing_angle) for e in entries]
            return np.mean([db(g) for g in gains])

        def min_snr_db(entries):
            return np.mean([db(e.min_snr) for e in entries])

        assert abs(min_snr_db(cb.entries) - min_snr_db(cold)) < 0.02
        assert abs(sensing_db(cb.entries) - sensing_db(cold)) < 0.01
        for e in cb.entries:
            _assert_feasible(e, GEO16, cfg.epsilon)
            recomputed = min(
                u.base_snr * beamforming_gain(e.weights, GEO16, u.angle) for u in TWO_USERS
            )
            assert e.min_snr == pytest.approx(recomputed, rel=1e-9)

    def test_build_sizes_and_angles(self):
        sweep = [math.radians(a) for a in (0, 5, 10, 15)]
        cb = build_codebook(TWO_USERS, sweep, GEO16, OptimizerConfig(epsilon=0.5))
        assert len(cb) == 4
        assert np.allclose([e.sensing_angle for e in cb.entries], sweep)
        # every entry keeps a strong sensing beam and serves both users
        for e in cb.entries:
            assert db(beamforming_gain(e.weights, GEO16, e.sensing_angle)) > 24.08 - 3.0
            assert e.min_snr > 1.0

    def test_build_deterministic(self):
        sweep = [0.0, math.radians(7.0)]
        cfg = OptimizerConfig(epsilon=0.5)
        cb1 = build_codebook(TWO_USERS, sweep, GEO16, cfg)
        cb2 = build_codebook(TWO_USERS, sweep, GEO16, cfg)
        for e1, e2 in zip(cb1.entries, cb2.entries):
            assert np.array_equal(e1.weights.weights, e2.weights.weights)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            build_codebook(TWO_USERS, [], GEO16, OptimizerConfig())

    def test_sweep_beyond_ninety_degrees_fails_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(codebook, "optimize_max_min", lambda *a, **k: calls.append(a))
        sweep = [math.radians(a) for a in np.linspace(0.0, 100.0, 34)]
        with pytest.raises(ValueError, match=r"sweep angle 90\.9090909 deg: azimuth must lie in"):
            build_codebook(TWO_USERS, sweep, GEO16, OptimizerConfig())
        assert calls == []

    def test_empty_users_conjugate_codebook(self):
        sweep = [0.0, math.radians(5.0)]
        cb = build_codebook([], sweep, GEO16, OptimizerConfig())
        for e, angle in zip(cb.entries, sweep):
            assert np.array_equal(e.weights.weights, conjugate_beam(GEO16, angle).weights)
            assert math.isinf(e.min_snr)

    def test_static_users_reuse_everything(self):
        sweep = [0.0, math.radians(10.0)]
        cfg = OptimizerConfig(epsilon=0.5)
        cb = build_codebook(TWO_USERS, sweep, GEO16, cfg)
        updated, stats = update_codebook(cb, list(TWO_USERS), GEO16, cfg)
        assert stats.reused == 2 and stats.reoptimized == 0
        for e_old, e_new in zip(cb.entries, updated.entries):
            assert e_old is e_new  # bit-identical reuse

    def test_non_bottleneck_move_reused(self):
        # a strongly over-provisioned user moves; it never becomes the
        # bottleneck, so its entry survives verbatim
        users = [TWO_USERS[0], TWO_USERS[1], UserLink(math.radians(10.0), 16.0)]
        cfg = OptimizerConfig(epsilon=0.5, snr_match_tol=1e-2)
        cb = build_codebook(users, [0.0], GEO16, cfg)
        entry = cb.entries[0]
        moved = [users[0], users[1], UserLink(math.radians(11.0), 16.0)]
        new_snr = moved[2].base_snr * beamforming_gain(entry.weights, GEO16, moved[2].angle)
        assert new_snr > entry.min_snr  # still exceeds the stored minimum
        updated, stats = update_codebook(cb, moved, GEO16, cfg)
        assert stats.reused == 1
        assert updated.entries[0] is entry

    def test_bottleneck_crossing_reoptimizes(self):
        # walk user 0 outward in small steps until its falling SNR trips the
        # update rule; warm re-optimization must stay competitive with a
        # fresh solve at that configuration
        cfg = OptimizerConfig(epsilon=0.5, snr_match_tol=1e-2)
        cb = build_codebook(TWO_USERS, [0.0], GEO16, cfg)
        first_min = cb.entries[0].min_snr
        reoptimized = 0
        for step in range(1, 11):
            moved = [UserLink(math.radians(-30 + 0.2 * step), 1.0), TWO_USERS[1]]
            cb, stats = update_codebook(cb, moved, GEO16, cfg)
            reoptimized += stats.reoptimized
            if stats.reoptimized:
                fresh = optimize_max_min(moved, 0.0, GEO16, cfg)
                assert cb.entries[0].min_snr >= fresh.min_snr * 10 ** (-1.0 / 10.0)
        assert reoptimized >= 1
        assert cb.entries[0].min_snr != first_min

    def test_reuse_soundness_static_spot_check(self):
        # with no movement, a fresh solve cannot beat a reused entry beyond
        # the solver tolerance
        cfg = OptimizerConfig(epsilon=0.5)
        cb = build_codebook(TWO_USERS, [0.0], GEO16, cfg)
        updated, stats = update_codebook(cb, list(TWO_USERS), GEO16, cfg)
        assert stats.reused == 1
        fresh = optimize_max_min(TWO_USERS, 0.0, GEO16, cfg)
        assert fresh.min_snr <= updated.entries[0].min_snr * 10 ** (0.2 / 10.0) + cfg.snr_match_tol

    def test_cardinality_mismatch(self):
        cb = build_codebook(TWO_USERS, [0.0], GEO16, OptimizerConfig())
        with pytest.raises(ValueError):
            update_codebook(cb, [TWO_USERS[0]], GEO16, OptimizerConfig())

    def test_weight_length_mismatch(self, monkeypatch):
        cb = build_codebook(TWO_USERS, [0.0], ArrayGeometry.ula(8), OptimizerConfig())
        monkeypatch.setattr(codebook, "_ascend", _no_ascent)
        moved = [UserLink(math.radians(-25), 1.0), TWO_USERS[1]]
        with pytest.raises(ValueError, match="8 weights but the array has 16 elements"):
            update_codebook(cb, moved, GEO16, OptimizerConfig())


class TestTradeoffProperties:
    def test_monotone_and_crossover(self):
        rows = epsilon_sweep(
            TWO_USERS, BROADSIDE, GEO16,
            [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], OptimizerConfig(),
        )
        sens = [r["sensing_gain_db"] for r in rows.rows]
        comm = [r["min_snr_db"] for r in rows.rows]
        tol = 0.2
        assert all(b <= a + tol for a, b in zip(sens, sens[1:]))
        assert all(b >= a - tol for a, b in zip(comm, comm[1:]))
        diffs = [s - c for s, c in zip(sens, comm)]
        assert diffs[0] > 0  # sensing starts on top
        assert any(d < 0 for d in diffs)  # and is overtaken before 1.5

    def test_bad_radius_fails_before_any_solve(self, monkeypatch):
        from subbeam.experiments import tradeoff

        def fail(*args, **kwargs):
            raise AssertionError("a radius was solved before every radius was checked")

        monkeypatch.setattr(tradeoff, "optimize_max_min", fail)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            tradeoff.epsilon_sweep(TWO_USERS, BROADSIDE, GEO16, [0.5, -1.0], OptimizerConfig())


class TestDataBeam:
    def test_single_user_is_conjugate(self):
        users = [UserLink(math.radians(20.0), 1.0)]
        w = design_data_beam(users, GEO16, OptimizerConfig())
        assert beamforming_gain(w, GEO16, users[0].angle) == pytest.approx(256.0, rel=1e-3)

    def test_two_users_balanced(self):
        w = design_data_beam(TWO_USERS, GEO16, OptimizerConfig())
        g = [beamforming_gain(w, GEO16, u.angle) for u in TWO_USERS]
        assert min(g) > 80.0  # near the N^2/2 split
        assert abs(db(g[0]) - db(g[1])) < 0.5


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sweep = [0.0, math.radians(5.0)]
        cb = build_codebook(TWO_USERS, sweep, GEO16, OptimizerConfig(epsilon=0.5))
        path = tmp_path / "cb.json"
        save_codebook(path, cb, GEO16)
        loaded, geo = load_codebook(path)
        assert geo.num_elements == 16
        assert len(loaded) == len(cb)
        for e1, e2 in zip(cb.entries, loaded.entries):
            assert np.allclose(e1.weights.weights, e2.weights.weights, atol=1e-12)
            assert e2.min_snr == pytest.approx(e1.min_snr, rel=1e-9)

    def test_solver_telemetry_round_trip(self, tmp_path):
        cb = build_codebook(TWO_USERS, [0.0, math.radians(5.0)], GEO16, OptimizerConfig())
        path = tmp_path / "cb.json"
        save_codebook(path, cb, GEO16)
        loaded, _ = load_codebook(path)
        for e1, e2 in zip(cb.entries, loaded.entries):
            assert (e2.iterations, e2.stop_reason) == (e1.iterations, e1.stop_reason)
            assert isinstance(e2.iterations, int) and e2.stop_reason is not None

    def test_infinite_sentinel_round_trip(self, tmp_path):
        cb = build_codebook([], [0.0], GEO16, OptimizerConfig())
        path = tmp_path / "cb.json"
        save_codebook(path, cb, GEO16)
        loaded, _ = load_codebook(path)
        assert math.isinf(loaded.entries[0].min_snr)

    def test_serialization_deterministic(self, tmp_path):
        cb = build_codebook(TWO_USERS, [0.0], GEO16, OptimizerConfig())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_codebook(p1, cb, GEO16)
        save_codebook(p2, cb, GEO16)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reject_other_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_codebook(path)
