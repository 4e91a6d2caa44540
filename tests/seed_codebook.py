"""The projected-ascent solvers of ``subbeam.codebook`` as first written.

Kept verbatim (absolute stall test ``stall_mark * (1 + 1e-9)``, no cached
evaluation, line search along the raw gradient at every temperature) as the
oracle for the engine-equivalence tests: the package's engine must
reproduce these iterates bit for bit through the annealing phase, and from
the final temperature on, where it searches along the projected-gradient
step instead, reach the same objective within the solver tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from subbeam.arrays import ArrayGeometry, Beamformer, steering_vector
from subbeam.codebook import OptimizerConfig, UserLink


@dataclass(frozen=True)
class SensingTarget:
    """Sensing direction and baseline round-trip SNR (the first solvers' input)."""

    angle: float
    base_snr: float = 1.0

    def __post_init__(self):
        if self.base_snr <= 0:
            raise ValueError("base_snr must be > 0")


@dataclass(frozen=True)
class CodebookEntry:
    """One optimized beamformer as the first solvers returned it."""

    sensing_angle: float
    weights: Beamformer
    min_snr: float  # +inf sentinel when there are no users
    converged: bool

# Solver constants (deterministic; see module docstring).
_STEP_INIT = 0.1
_STEP_MIN = 1e-7
_TAU_INIT = 0.5
_TAU_DECAY = 0.9
_TAU_MIN = 1e-3
_GRAD_TOL = 1e-2


def _user_matrix(users, geometry):
    """Stack user steering vectors (U x N) and base SNRs (U,)."""
    s = np.array([steering_vector(geometry, u.angle) for u in users])
    gamma = np.array([u.base_snr for u in users])
    return s, gamma


def _snrs(w, s, gamma):
    return gamma * np.abs(s @ w) ** 2


def _grad(w, s, gamma, coef):
    # d/dw* of sum_u coef_u * gamma_u * |s_u^T w|^2
    inner = s @ w
    return (coef * gamma * inner) @ np.conj(s)


def _project_polydisk(w):
    amp = np.abs(w)
    over = amp > 1.0
    if np.any(over):
        w = np.where(over, w / np.maximum(amp, 1e-300), w)
    return w


def _project_ball_then_disk(w, anchor, eps):
    """Clip each element into the radius-eps ball around ``anchor``, then the unit disk.

    The two clips do not commute in general, but with the anchor inside the
    unit disk one pass in this order already satisfies both constraints
    exactly (disk projection is non-expansive toward the ball center), so
    re-alternating would change nothing.
    """
    if eps == 0.0:
        return anchor.copy()
    d = w - anchor
    dabs = np.abs(d)
    over = dabs > eps
    if np.any(over):
        w = np.where(over, anchor + d * (eps / np.maximum(dabs, 1e-300)), w)
    return _project_polydisk(w)


def _warn_close_angles(users, geometry):
    hpbw = 0.886 / (geometry.num_elements * geometry.spacing)
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            if abs(users[i].angle - users[j].angle) < hpbw:
                warnings.warn(
                    f"user angles {math.degrees(users[i].angle):.1f} and "
                    f"{math.degrees(users[j].angle):.1f} deg are within one HPBW; "
                    "the solver may not separate their beams",
                    stacklevel=3,
                )


def _normalized_direction(g):
    peak = np.max(np.abs(g))
    if peak <= 0:
        return None
    return g / peak


def _line_search(w, f, d, objective, project, step0=_STEP_INIT):
    """Halving backtracking along direction d; accept strict improvement.

    Returns (w, f, accepted, step_used). ``step0`` carries the last accepted
    step across iterations so the search rarely has to halve far.
    """
    step = min(step0, _STEP_INIT)
    while step >= _STEP_MIN:
        w_try = project(w + step * d)
        f_try = objective(w_try)
        if f_try > f * (1.0 + 1e-12) + 1e-15:
            return w_try, f_try, True, step
        step *= 0.5
    return w, f, False, _STEP_INIT


def _dither(w0, scale):
    """Deterministic per-element phase dither that breaks mirror symmetries.

    Symmetric user layouts (e.g. +/-30 deg around a broadside sensing beam)
    make the balanced subgradient vanish on a whole element subset; a generic
    starting point keeps the ascent off that saddle manifold.
    """
    n = np.arange(len(w0))
    return w0 * np.exp(1j * scale * np.sin(2.4 * n + 0.7))


def _fair_point(s_all, gamma_all, w0, cfg):
    """Max-min over all targets by annealed softmin ascent (anchor-free).

    Steps (combined direction and per-target probes) are accepted when they
    improve the softmin at the current temperature; the temperature then
    anneals toward zero so the final iterate maximizes the true minimum.
    Used to seed the weighted-sum solver with a balanced allocation.
    """

    def softmin(x, t):
        z = -x / t
        zmax = np.max(z)
        return -t * (zmax + math.log(np.sum(np.exp(z - zmax))))

    w = _project_polydisk(w0)
    best_w = w
    best_min = float(np.min(_snrs(w, s_all, gamma_all)))
    tau = _TAU_INIT
    for _ in range(14):
        x = _snrs(w, s_all, gamma_all)
        t = tau * max(float(np.mean(x)), 1e-30)

        def objective(wc):
            return softmin(_snrs(wc, s_all, gamma_all), t)

        f = objective(w)
        for _ in range(max(cfg.max_iters // 10, 50)):
            x = _snrs(w, s_all, gamma_all)
            lam = np.exp(-(x - np.min(x)) / t)
            lam /= np.sum(lam)
            inner = s_all @ w
            dirs = [(lam * gamma_all * inner) @ np.conj(s_all)]
            dirs += [gamma_all[i] * inner[i] * np.conj(s_all[i]) for i in np.argsort(x)]
            accepted = False
            for g in dirs:
                d = _normalized_direction(g)
                if d is None:
                    continue
                w, f, accepted, _ = _line_search(w, f, d, objective, _project_polydisk)
                if accepted:
                    break
            if not accepted:
                break
        cur_min = float(np.min(_snrs(w, s_all, gamma_all)))
        if cur_min > best_min:
            best_w, best_min = w, cur_min
        tau = max(tau * 0.5, _TAU_MIN)
    return best_w


def _ascend(w0, objective, gradient, project, cfg, trace=None, probes=None,
            tau0=_TAU_INIT):
    """Monotone projected gradient ascent with halving backtracking.

    ``gradient`` may depend on an annealed temperature; it is re-queried each
    iteration. When the combined direction yields no improving step,
    ``probes(w)`` directions are tried before annealing further; kinked or
    symmetric objectives need these because the combined (sub)gradient can
    vanish at saddle points that single-target directions escape.
    Returns (w, converged).
    """
    w = project(w0)
    f = objective(w)
    if trace is not None:
        trace.append(f)
    tau = tau0
    converged = False
    at_final_tau = False
    stall_mark, stall_count = f, 0
    step_mem = _STEP_INIT
    for _ in range(cfg.max_iters):
        g = gradient(w, tau)
        if at_final_tau:
            gnorm = np.linalg.norm(project(w + _STEP_INIT * g) - w) / _STEP_INIT
            if gnorm < _GRAD_TOL:
                converged = True
                break
        d = _normalized_direction(g)
        accepted = False
        if d is not None:
            w, f, accepted, step_used = _line_search(
                w, f, d, objective, project, step_mem
            )
            if accepted:
                step_mem = step_used * 2.0
        if not accepted and probes is not None:
            for p in probes(w):
                dp = _normalized_direction(p)
                if dp is None:
                    continue
                w, f, accepted, _ = _line_search(w, f, dp, objective, project)
                if accepted:
                    break
        if trace is not None:
            trace.append(f)
        if not accepted:
            step_mem = _STEP_INIT
            if not at_final_tau:
                tau = max(tau * 0.5, _TAU_MIN)
                at_final_tau = tau <= _TAU_MIN
                continue
            # Stationary: no improving step along the subgradient or any probe.
            converged = True
            break
        # Progress-based stop: monotone but negligible improvement.
        if f <= stall_mark * (1.0 + 1e-9):
            stall_count += 1
            if stall_count >= 50 and at_final_tau:
                converged = True
                break
        else:
            stall_mark, stall_count = f, 0
        tau = max(tau * _TAU_DECAY, _TAU_MIN)
        at_final_tau = tau <= _TAU_MIN
    return w, converged


def optimize_weighted_sum(
    users: list[UserLink],
    target: SensingTarget,
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
    trace: list | None = None,
    *,
    sensing_weight: float = 1.0,
) -> Beamformer:
    """Joint beamformer maximizing sensing_weight*sensing SNR + mean user SNR.

    Subject only to per-element |w_n| <= 1. The reported objective (appended
    to ``trace`` when given) is non-decreasing over iterations.
    """
    if not users:
        raise ValueError("at least one user is required")
    _warn_close_angles(users, geometry)
    s_users, gamma = _user_matrix(users, geometry)
    s_t = steering_vector(geometry, target.angle)
    n_users = len(users)

    s_all = np.vstack([s_t[None, :], s_users])
    gamma_all = np.concatenate([[target.base_snr], gamma])
    coef = np.concatenate([[sensing_weight], np.full(n_users, 1.0 / n_users)])

    def objective(w):
        return float(np.sum(coef * _snrs(w, s_all, gamma_all)))

    def gradient(w, tau):
        return _grad(w, s_all, gamma_all, coef)

    # For well-separated targets the achievable gains trade off along a
    # near-flat frontier (sum of gains <= N^2 by Parseval), so the objective
    # is nearly degenerate across beam allocations and the ascent's endpoint
    # depends on its start. Run a deterministic set of starts, including a
    # fairness-optimal one (max-min over all targets); among finals whose
    # objectives tie within solver tolerance, keep the one with the largest
    # minimum per-target SNR (fairness tie-break).
    v = (coef * gamma_all) @ np.conj(s_all)
    peak = np.max(np.abs(v))
    mixture = _project_polydisk(v) if peak > 0 else np.conj(s_t)
    amp = np.abs(v)
    phase_only = np.where(amp > 1e-12, v / np.maximum(amp, 1e-300), 1.0 + 0.0j)

    # Fairness is judged only across targets the objective actually values.
    active = coef > 0
    s_act, gamma_act = s_all[active], gamma_all[active]
    fair_inits = [phase_only, _dither(phase_only, 0.05), _dither(phase_only, 0.3)]
    # Anchored starts travel the same asymmetric region the max-min solver
    # uses and reliably reach the balanced allocation.
    fair_inits += [np.conj(s) + 0.05 * phase_only for s in s_act]
    fair_start, fair_val = None, -math.inf
    for w0 in fair_inits:
        w_f = _fair_point(s_act, gamma_act, w0, cfg)
        val = float(np.min(_snrs(w_f, s_act, gamma_act)))
        if val > fair_val:
            fair_start, fair_val = w_f, val

    finals = []
    for w0 in [mixture, phase_only, _dither(mixture, 0.05), _dither(phase_only, 0.05)]:
        w_i, _ = _ascend(w0, objective, gradient, _project_polydisk, cfg)
        finals.append((objective(w_i), float(np.min(_snrs(w_i, s_act, gamma_act))), w_i))
    finals.append((objective(fair_start), fair_val, fair_start))
    f_best = max(f for f, _, _ in finals)
    # 5% objective window ~ 0.2 dB, the solver tolerance used throughout.
    w = max(
        (cand for cand in finals if cand[0] >= f_best * 0.95),
        key=lambda cand: cand[1],
    )[2]
    if trace is not None:
        # Re-run the winning start so the reported objective trace matches.
        trace.clear()
        w, _ = _ascend(w, objective, gradient, _project_polydisk, cfg, trace)

    # Remove the global-phase degeneracy: align the first element's phase
    # with the sensing-conjugate anchor (whose first element is real).
    if np.abs(w[0]) > 1e-12:
        w = w * np.exp(-1j * np.angle(w[0]))
    return Beamformer(w)


def optimize_max_min(
    users: list[UserLink],
    target: SensingTarget,
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
    warm_start: Beamformer | None = None,
    trace: list | None = None,
) -> CodebookEntry:
    """Max-min user SNR around the sensing conjugate anchor.

    The weights stay within ``cfg.epsilon`` of conj(s(sensing angle)) per
    element and within the unit disk. With no users the anchor itself is
    returned with a +inf min-SNR sentinel. If no feasible step improves the
    minimum SNR, the anchor is returned unchanged (still a valid entry).
    """
    anchor = np.conj(steering_vector(geometry, target.angle))
    if not users:
        return CodebookEntry(target.angle, Beamformer(anchor), math.inf, True)
    _warn_close_angles(users, geometry)
    s_users, gamma = _user_matrix(users, geometry)

    def project(w):
        return _project_ball_then_disk(w, anchor, cfg.epsilon)

    def objective(w):
        return float(np.min(_snrs(w, s_users, gamma)))

    def gradient(w, tau):
        x = _snrs(w, s_users, gamma)
        t = tau * max(float(np.mean(x)), 1e-30)
        lam = np.exp(-(x - np.min(x)) / t)
        lam /= np.sum(lam)
        return _grad(w, s_users, gamma, lam)

    def probes(w):
        # Single-user gradient directions, weakest user first. Users at
        # well-separated angles are near-orthogonal, so boosting one barely
        # perturbs the rest; these steps escape balanced saddle points where
        # the combined subgradient vanishes.
        x = _snrs(w, s_users, gamma)
        inner = s_users @ w
        return [
            gamma[u] * inner[u] * np.conj(s_users[u]) for u in np.argsort(x)
        ]

    if cfg.epsilon == 0.0:
        w = anchor
        converged = True
    elif warm_start is not None:
        # Refine from the near-optimal previous weights, but guard against
        # the warm chain drifting into a stale basin with one anchored
        # restart; keep whichever lands higher.
        w, converged = _ascend(
            warm_start.weights, objective, gradient, project, cfg, trace, probes,
            tau0=0.05,
        )
        v = gamma @ np.conj(s_users)
        peak = np.max(np.abs(v))
        nudge = v / peak if peak > 0 else 0.0
        w0 = _dither(anchor + 0.5 * min(cfg.epsilon, _STEP_INIT) * nudge,
                     min(cfg.epsilon, 0.2) / 4.0)
        w_cold, conv_cold = _ascend(w0, objective, gradient, project, cfg, probes=probes)
        if objective(w_cold) > objective(w):
            w, converged = w_cold, conv_cold
        if objective(w) <= objective(anchor) + 1e-15:
            w = anchor
    else:
        # Deterministic multi-start: nudge toward the users (the ascent
        # would otherwise stall when the anchor is exactly orthogonal to
        # every user) and dither off mirror-symmetric saddle manifolds.
        v = gamma @ np.conj(s_users)
        peak = np.max(np.abs(v))
        nudge = v / peak if peak > 0 else 0.0
        inits = [
            _dither(anchor + 0.5 * min(cfg.epsilon, _STEP_INIT) * nudge,
                    min(cfg.epsilon, 0.2) / 4.0),
            _dither(anchor + min(cfg.epsilon, 0.5) * nudge,
                    min(cfg.epsilon, 0.4)),
            _dither(anchor, min(cfg.epsilon, 0.3)),
        ]
        w, converged, best = None, False, -math.inf
        for w0 in inits:
            w_i, conv_i = _ascend(w0, objective, gradient, project, cfg, trace, probes)
            f_i = objective(w_i)
            if f_i > best:
                w, converged, best = w_i, conv_i, f_i
        if objective(w) <= objective(anchor) + 1e-15:
            w = anchor

    return CodebookEntry(
        sensing_angle=target.angle,
        weights=Beamformer(w),
        min_snr=objective(w),
        converged=converged,
    )

