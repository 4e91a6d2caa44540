"""ISAC beamforming codebook design and online maintenance.

Two solvers are provided:

* ``optimize_weighted_sum`` maximizes a weighted sum of the sensing SNR and
  the mean user SNR over the unit polydisk (per-element |w_n| <= 1).
* ``optimize_max_min`` maximizes the minimum user SNR while keeping every
  weight within a per-element radius ``epsilon`` of the conjugate beamformer
  for the sensing angle, so each codebook entry keeps a strong sensing beam.

Both run on one engine, ``_ascend``: monotone projected gradient ascent
with deterministic backtracking (halving from 0.1, or from twice the last
accepted step). The max-min objective is smoothed by a softmin whose
temperature anneals toward zero, which makes the kinked objective
differentiable during early iterations and exact at convergence. While the
temperature anneals, the line search runs along the gradient ``g``; at the
final temperature it runs along the feasible direction
``P(w + 0.1 g) - w`` (gradient projection along the feasible direction,
Bertsekas, Nonlinear Programming, 2nd ed., sec. 2.3), the same vector the
``grad`` stop test measures, so the search costs no extra projection. Each
line search projects and evaluates its whole halving ladder in one batch
and takes the first improving step, and the starts of a solve climb in
lockstep, one stacked projection and evaluation per step for all their
ladders; each pick is bit for bit that of one start alone trying one step
at a time. Each objective
evaluation hands back the inner products ``s @ w`` and SNRs it computed,
and the next gradient and probe directions reuse them. Max-min user SNR
(max-min-fair multicast) has many local optima, so a max-min solve runs
each start, warm or cold, through the same anneal and keeps the best: the
old weights and one anchored restart when warm, three anchored starts when
cold. ``build_codebook`` solves its first entry cold; each later entry starts
warm from the previous entry carried onto its own anchor (the previous
offset from its anchor, added to the new anchor and projected), so a sweep
of neighbouring angles costs two starts per entry instead of three.
``design_data_beam`` and the weighted-sum seeding share ``_fairest``, the
fairest ``_fair_point`` (fixed-temperature softmin rounds without step
memory) over one start set.

At the final temperature an ascent stops when the projected gradient is
below ``_GRAD_TOL`` (``grad``), when no step along the feasible direction
or any probe improves (``stationary``), or when 50 consecutive iterations
each gain less than 1e-4 relative (about 0.0004 dB) over the stall mark
(``stalled``); otherwise it runs to ``max_iters``. Codebook entries record
the winning start's iteration count and stop reason (``anchor`` when no
ascent ran), and ``update_codebook`` sums both over the entries it
re-optimizes.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .arrays import ArrayGeometry, Beamformer, in_field_of_view, steering_vector

__all__ = [
    "UserLink",
    "SensingTarget",
    "OptimizerConfig",
    "CodebookEntry",
    "Codebook",
    "UpdateStats",
    "optimize_weighted_sum",
    "optimize_max_min",
    "design_data_beam",
    "build_codebook",
    "update_codebook",
    "save_codebook",
    "load_codebook",
]

# Solver constants (deterministic; see module docstring).
_STEP_INIT = 0.1
_STEP_MIN = 1e-7
# Halving steps from _STEP_INIT down to _STEP_MIN. A line search starts at
# _STEP_INIT or twice an accepted step, so its ladder (a column) is a tail.
_STEPS = _STEP_INIT * np.ldexp(1.0, -np.arange(int(math.log2(_STEP_INIT / _STEP_MIN)) + 1))
_LADDERS = {float(step): _STEPS[k:, None] for k, step in enumerate(_STEPS)}
_LADDERS[2.0 * _STEP_INIT] = _LADDERS[_STEP_INIT]
_TAU_INIT = 0.5
_TAU_DECAY = 0.9
_TAU_MIN = 1e-3
# Stall stop at the final temperature: this many consecutive iterations,
# each gaining less than this fraction over the stall mark (~0.0004 dB).
_STALL_ITERS = 50
_STALL_REL = 1e-4
# Grad stop at the final temperature: projected-gradient norm below this.
_GRAD_TOL = 1e-2
_DB_FLOOR = -400.0  # serialization floor for a zero linear SNR


@dataclass(frozen=True)
class UserLink:
    """One served user: dominant-path angle and baseline (unbeamformed) SNR."""

    angle: float
    base_snr: float

    def __post_init__(self):
        if self.base_snr <= 0:
            raise ValueError("base_snr must be > 0")
        if not in_field_of_view(self.angle):
            raise ValueError("user angle outside the array field of view")


@dataclass(frozen=True)
class SensingTarget:
    """Sensing direction and baseline round-trip SNR, the weighted-sum solver's
    input; the max-min solver takes only the angle."""

    angle: float
    base_snr: float = 1.0

    def __post_init__(self):
        if self.base_snr <= 0:
            raise ValueError("base_snr must be > 0")


@dataclass(frozen=True)
class OptimizerConfig:
    epsilon: float = 0.5
    max_iters: int = 2000
    snr_match_tol: float = 1e-2  # linear-SNR absolute tolerance for entry reuse

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.snr_match_tol < 0:
            raise ValueError(f"snr_match_tol must be >= 0, got {self.snr_match_tol}")


@dataclass(frozen=True)
class CodebookEntry:
    """One optimized beamformer: sensing angle, weights, achieved min user SNR.

    ``iterations`` and ``stop_reason`` describe the solver's winning start
    (see ``_ascend``; ``anchor`` when no ascent ran). They are None for
    entries loaded from files written before they were recorded.
    """

    sensing_angle: float
    weights: Beamformer
    min_snr: float  # +inf sentinel when there are no users
    converged: bool
    iterations: int | None = None
    stop_reason: str | None = None


@dataclass(frozen=True)
class Codebook:
    entries: tuple[CodebookEntry, ...]
    users: tuple[UserLink, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def beams(self) -> list[Beamformer]:
        return [e.weights for e in self.entries]


@dataclass
class UpdateStats:
    """Reuse decisions of one update, with the re-optimized entries' solver
    telemetry: stop-reason counts and winning-start iterations summed, and
    the wall time spent deciding and re-solving entries."""

    reused: int = 0
    reoptimized: int = 0
    seconds: float = 0.0
    stop_reasons: Counter = field(default_factory=Counter)
    iterations: int = 0

    def __add__(self, other: UpdateStats) -> UpdateStats:
        """Field-wise sum, so ``sum(per_update, UpdateStats())`` totals a run."""
        return UpdateStats(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))


def _user_matrix(users, geometry):
    """Stack user steering vectors (U x N) and base SNRs (U,)."""
    s = np.array([steering_vector(geometry, u.angle) for u in users])
    gamma = np.array([u.base_snr for u in users])
    return s, gamma


def _snrs(w, s, gamma):
    return gamma * np.abs(s @ w) ** 2


def _evaluator(s, gamma, score):
    """``evaluate(w) -> (score(x), (inner, x))`` with ``inner = s @ w``, ``x`` the SNRs.

    ``w`` is one point (N,) or a stack of points (M, N); ``score`` reduces
    over the last axis, so a stack gets one score per row (a float for one
    point). The stacked inner products are one batched ``matmul``, which
    gives each row bit for bit the ``s @ w`` of a one-point call, so a line
    search evaluates its whole halving ladder in one call and still picks
    what a sequential search would. The inner products and SNRs of an
    evaluated point are handed back so the gradient and probe directions at
    that point reuse them.
    """

    def evaluate(w):
        inner = np.matmul(s, w[..., None])[..., 0]
        x = gamma * np.abs(inner) ** 2
        f = score(x)
        return (f if w.ndim > 1 else float(f)), (inner, x)

    return evaluate


def _softmin_ascent(ev, t, gamma, s_conj):
    """Gradient of the temperature-``t`` softmin of the SNRs, from cached ``ev``."""
    inner, x = ev
    lam = np.exp(-(x - np.minimum.reduce(x)) / t)
    lam /= np.add.reduce(lam)
    return (lam * gamma * inner) @ s_conj


def _single_target_directions(ev, gamma, s_conj):
    """Each target's own gradient direction, weakest target first."""
    inner, x = ev
    return [gamma[u] * inner[u] * s_conj[u] for u in np.argsort(x)]


def _project_polydisk(w):
    amp = np.abs(w)
    if np.maximum.reduce(amp, axis=None) > 1.0:
        w = np.where(amp > 1.0, w / np.maximum(amp, 1e-300), w)
    return w


def _project_ball_then_disk(w, anchor, eps):
    """Clip each element into the radius-eps ball around ``anchor``, then the unit disk.

    The two clips do not commute in general, but with the anchor inside the
    unit disk one pass in this order already satisfies both constraints
    exactly (disk projection is non-expansive toward the ball center), so
    re-alternating would change nothing.
    """
    d = w - anchor
    dabs = np.abs(d)
    if np.maximum.reduce(dabs, axis=None) > eps:
        w = np.where(dabs > eps, anchor + d * (eps / np.maximum(dabs, 1e-300)), w)
    return _project_polydisk(w)


def _check_weight_length(what, length, geometry):
    if length != geometry.num_elements:
        raise ValueError(
            f"{what} has {length} weights but the array has {geometry.num_elements} elements"
        )


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
    peak = np.maximum.reduce(np.abs(g))
    if peak <= 0:
        return None
    return g / peak


def _line_search(w, f, d, evaluate, project, step0=_STEP_INIT):
    """Halving backtracking along direction d; accept strict improvement.

    The whole ladder of steps, ``min(step0, _STEP_INIT)`` halved down to
    ``_STEP_MIN``, is projected and evaluated in one batch, and the first
    improving step in ladder order wins: the same pick, bit for bit, as
    trying the steps one by one. Returns ``(w, f, ev, step)`` at that step
    (``ev`` is the new point's evaluation cache), or None when no step
    improves. ``step0`` carries the last accepted step across iterations so
    the search rarely has to halve far.
    """
    steps = _LADDERS[step0]
    w_try = project(w + steps * d)
    return _pick(f, steps, w_try, *evaluate(w_try))


def _pick(f, steps, w_try, f_try, ev, lo=0):
    """``(w, f, ev, step)`` at the first rung (row ``lo`` on) that beats ``f``, or None."""
    better = f_try[lo : lo + len(steps)] > f * (1.0 + 1e-12) + 1e-15
    k = better.argmax()
    if not better[k]:
        return None
    i = lo + k
    return w_try[i], float(f_try[i]), (ev[0][i], ev[1][i]), float(steps[k, 0])


def _dither(w0, scale):
    """Deterministic per-element phase dither that breaks mirror symmetries.

    Symmetric user layouts (e.g. +/-30 deg around a broadside sensing beam)
    make the balanced subgradient vanish on a whole element subset; a generic
    starting point keeps the ascent off that saddle manifold.
    """
    n = np.arange(len(w0))
    return w0 * np.exp(1j * scale * np.sin(2.4 * n + 0.7))


def _softmin(x, t):
    """Temperature-``t`` softmin over the last axis of ``x``.

    The log is ``math.log`` per row: numpy's SIMD log can differ from it in
    the last bit, and a row of a stack must score as its one-point call.
    """
    z = -x / t
    zmax = z.max(axis=-1)
    total = np.exp(z - zmax[..., None]).sum(axis=-1)
    logs = [math.log(v) for v in np.ravel(total)]
    return -t * (zmax + np.reshape(logs, np.shape(total)))


def _fair_point(s_all, gamma_all, w0, cfg):
    """Max-min over all targets by annealed softmin ascent (anchor-free).

    Steps (combined direction and per-target probes) are accepted when they
    improve the softmin at the current temperature; the temperature then
    anneals toward zero so the final iterate maximizes the true minimum.
    """
    s_conj = np.conj(s_all)
    w = _project_polydisk(w0)
    x = _snrs(w, s_all, gamma_all)
    best_w, best_min = w, float(x.min())
    tau = _TAU_INIT
    for _ in range(14):
        t = tau * max(float(x.sum() / len(x)), 1e-30)
        evaluate = _evaluator(s_all, gamma_all, lambda x, t=t: _softmin(x, t))
        f, ev = evaluate(w)
        for _ in range(max(cfg.max_iters // 10, 50)):
            dirs = [_softmin_ascent(ev, t, gamma_all, s_conj)]
            dirs += _single_target_directions(ev, gamma_all, s_conj)
            for g in dirs:
                d = _normalized_direction(g)
                hit = None if d is None else _line_search(w, f, d, evaluate, _project_polydisk)
                if hit is not None:
                    break
            if hit is None:
                break
            w, f, ev, _ = hit
        x = ev[1]
        cur_min = float(x.min())
        if cur_min > best_min:
            best_w, best_min = w, cur_min
        tau = max(tau * 0.5, _TAU_MIN)
    return best_w


def _phase_only(v):
    """Unit-modulus weights with the phases of ``v`` (1 where ``v`` vanishes)."""
    amp = np.abs(v)
    return np.where(amp > 1e-12, v / np.maximum(amp, 1e-300), 1.0 + 0.0j)


def _fairest(s, gamma, mixture, cfg):
    """``(w, min SNR)`` of the fairest ``_fair_point`` over a fixed start set.

    The starts are the phase-only ``mixture``, its 0.05 and 0.3 dithers, and
    each target's conjugate plus 0.05 x ``mixture`` (anchored starts reliably
    reach the balanced allocation). Ties go to the earlier start.
    """
    starts = [mixture, _dither(mixture, 0.05), _dither(mixture, 0.3)]
    starts += [np.conj(t) + 0.05 * mixture for t in s]
    best_w, best_val = None, -math.inf
    for w0 in starts:
        w = _fair_point(s, gamma, w0, cfg)
        val = float(np.min(_snrs(w, s, gamma)))
        if val > best_val:
            best_w, best_val = w, val
    return best_w, best_val


def _ascend(starts, evaluate, gradient, project, cfg, probes=None):
    """Monotone projected gradient ascent with halving backtracking, from each start.

    ``evaluate(w)`` returns ``(f, ev)`` as built by ``_evaluator``, for one
    point or row-wise for a stack; ``gradient(ev, tau)`` and ``probes(ev)``
    read the cache ``ev`` of the current iterate, so it is not evaluated
    again. Each line search takes the first improving step of its halving
    ladder. ``gradient`` may depend on an annealed temperature. When the
    combined direction yields no improving step, the ``probes`` directions
    are tried before annealing further; kinked or symmetric objectives need
    these because the combined (sub)gradient can vanish at saddle points
    that single-target directions escape.

    Until the temperature reaches ``_TAU_MIN`` the line search runs along
    the gradient; from then on it runs along the feasible direction
    ``project(w + _STEP_INIT * g) - w``, the vector whose norm the ``grad``
    stop tests. Both directions are scaled to a unit largest element.

    The starts climb in lockstep: each step stacks every live start's
    pending ladder into one ``project`` and one ``evaluate`` call. Both act
    row by row with the bits of a one-point call, so each start takes, bit
    for bit, the path it would take alone.

    Returns one ``(w, f, iterations, stop_reason, trace)`` per start, in
    start order; ``trace`` holds the start's objective at its first point
    and after every iteration. Every stop but ``max_iters`` happens at the
    final temperature: ``grad`` (projected gradient norm below
    ``_GRAD_TOL``), ``stationary`` (no improving step along the gradient or
    any probe) or ``stalled`` (``_STALL_ITERS`` consecutive iterations each
    within ``_STALL_REL`` relative of the stall mark, the last value that
    beat it by more).
    """
    climbs = [_climb(w0, evaluate, gradient, project, cfg, probes) for w0 in starts]
    runs = [None] * len(climbs)
    pending = {}

    def advance(i, hit):
        try:
            pending[i] = climbs[i].send(hit)
        except StopIteration as stop:
            pending.pop(i, None)
            runs[i] = stop.value

    for i in range(len(climbs)):
        advance(i, None)
    while pending:
        searches = list(pending.items())
        ladders = [_LADDERS[step0] for _, (_, _, _, step0) in searches]
        rows = [w + steps * d for (_, (w, _, d, _)), steps in zip(searches, ladders)]
        w_try = project(rows[0] if len(rows) == 1 else np.concatenate(rows))
        f_try, ev = evaluate(w_try)
        lo = 0
        for (i, (_, f, _, _)), steps in zip(searches, ladders):
            advance(i, _pick(f, steps, w_try, f_try, ev, lo))
            lo += len(steps)
    return runs


def _climb(w0, evaluate, gradient, project, cfg, probes):
    """One start's ascent for ``_ascend``: yields each line search as
    ``(w, f, d, step0)``, is sent its pick, and returns the start's result."""
    w = project(w0)
    f, ev = evaluate(w)
    trace = [f]
    tau = _TAU_INIT
    at_final_tau = False
    stall_mark, stall_count = f, 0
    step_mem = _STEP_INIT
    for it in range(1, cfg.max_iters + 1):
        g = gradient(ev, tau)
        if at_final_tau:
            # Search along the feasible direction P(w + s*g) - w, not g.
            # Near the optimum most weights sit on the disk or ball boundary,
            # where g points mostly outward: projection cancels most of each
            # step along g, and the ascent creeps along the max-min kink.
            g = project(w + _STEP_INIT * g) - w
            if math.sqrt(g.real.dot(g.real) + g.imag.dot(g.imag)) / _STEP_INIT < _GRAD_TOL:
                return w, f, it, "grad", trace
        d = _normalized_direction(g)
        hit = None if d is None else (yield w, f, d, step_mem)
        if hit is not None:
            step_mem = hit[3] * 2.0
        elif probes is not None:
            for p in probes(ev):
                d = _normalized_direction(p)
                hit = None if d is None else (yield w, f, d, _STEP_INIT)
                if hit is not None:
                    break
        if hit is not None:
            w, f, ev, _ = hit
        trace.append(f)
        if hit is None:
            step_mem = _STEP_INIT
            if not at_final_tau:
                tau = max(tau * 0.5, _TAU_MIN)
                at_final_tau = tau <= _TAU_MIN
                continue
            return w, f, it, "stationary", trace
        if f <= stall_mark * (1.0 + _STALL_REL):
            stall_count += 1
            if stall_count >= _STALL_ITERS and at_final_tau:
                return w, f, it, "stalled", trace
        else:
            stall_mark, stall_count = f, 0
        tau = max(tau * _TAU_DECAY, _TAU_MIN)
        at_final_tau = tau <= _TAU_MIN
    return w, f, cfg.max_iters, "max_iters", trace


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

    Subject only to per-element |w_n| <= 1. ``trace``, when given, receives
    the winning start's objective per iteration, which is non-decreasing
    (a single value when the fair start wins).
    """
    if not users:
        raise ValueError("at least one user is required")
    if sensing_weight < 0:
        raise ValueError("sensing_weight must be >= 0")
    _warn_close_angles(users, geometry)
    s_users, gamma = _user_matrix(users, geometry)
    s_t = steering_vector(geometry, target.angle)
    n_users = len(users)

    s_all = np.vstack([s_t[None, :], s_users])
    gamma_all = np.concatenate([[target.base_snr], gamma])
    coef = np.concatenate([[sensing_weight], np.full(n_users, 1.0 / n_users)])
    s_conj = np.conj(s_all)

    evaluate = _evaluator(s_all, gamma_all, lambda x: (coef * x).sum(axis=-1))

    def gradient(ev, tau):
        # d/dw* of sum_u coef_u * gamma_u * |s_u^T w|^2
        return (coef * gamma_all * ev[0]) @ s_conj

    # For well-separated targets the achievable gains trade off along a
    # near-flat frontier (sum of gains <= N^2 by Parseval), so the objective
    # is nearly degenerate across beam allocations and the ascent's endpoint
    # depends on its start. Run a deterministic set of starts, including a
    # fairness-optimal one (max-min over all targets); among finals whose
    # objectives tie within solver tolerance, keep the one with the largest
    # minimum per-target SNR (fairness tie-break).
    v = (coef * gamma_all) @ s_conj
    peak = np.max(np.abs(v))
    mixture = _project_polydisk(v) if peak > 0 else np.conj(s_t)
    phase_only = _phase_only(v)

    # Fairness is judged only across targets the objective actually values.
    active = coef > 0
    s_act, gamma_act = s_all[active], gamma_all[active]
    fair_start, fair_val = _fairest(s_act, gamma_act, phase_only, cfg)

    starts = [mixture, phase_only, _dither(mixture, 0.05), _dither(phase_only, 0.05)]
    finals = [
        (f_i, float(np.min(_snrs(w_i, s_act, gamma_act))), w_i, run_trace)
        for w_i, f_i, _, _, run_trace in _ascend(starts, evaluate, gradient, _project_polydisk, cfg)
    ]
    f_fair = evaluate(fair_start)[0]
    finals.append((f_fair, fair_val, fair_start, [f_fair]))
    f_best = max(cand[0] for cand in finals)
    # 5% objective window ~ 0.2 dB, the solver tolerance used throughout.
    _, _, w, run_trace = max(
        (cand for cand in finals if cand[0] >= f_best * 0.95),
        key=lambda cand: cand[1],
    )
    if trace is not None:
        trace[:] = run_trace

    # Remove the global-phase degeneracy: align the first element's phase
    # with the sensing-conjugate anchor (whose first element is real).
    if np.abs(w[0]) > 1e-12:
        w = w * np.exp(-1j * np.angle(w[0]))
    return Beamformer(w)


def optimize_max_min(
    users: list[UserLink],
    sensing_angle: float,
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
    warm_start: Beamformer | None = None,
    trace: list | None = None,
) -> CodebookEntry:
    """Max-min user SNR around the sensing conjugate anchor.

    The weights stay within ``cfg.epsilon`` of conj(s(``sensing_angle``)) per
    element and within the unit disk. With no users the anchor itself is
    returned with a +inf min-SNR sentinel. If no feasible step improves the
    minimum SNR, the anchor is returned unchanged (still a valid entry).
    The entry's ``iterations`` and ``stop_reason`` describe the winning
    start (``anchor`` when ``epsilon`` is 0 or there are no users).
    """
    if warm_start is not None:
        _check_weight_length("warm_start", len(warm_start), geometry)
    anchor = np.conj(steering_vector(geometry, sensing_angle))
    if not users:
        return CodebookEntry(sensing_angle, Beamformer(anchor), math.inf, True, 0, "anchor")
    _warn_close_angles(users, geometry)
    s_users, gamma = _user_matrix(users, geometry)
    s_conj = np.conj(s_users)
    eps = cfg.epsilon

    def project(w):
        return _project_ball_then_disk(w, anchor, eps)

    evaluate = _evaluator(s_users, gamma, lambda x: np.minimum.reduce(x, axis=-1))

    def gradient(ev, tau):
        x = ev[1]
        return _softmin_ascent(ev, tau * max(np.add.reduce(x) / len(x), 1e-30), gamma, s_conj)

    def probes(ev):
        # Single-user gradient directions, weakest user first. Users at
        # well-separated angles are near-orthogonal, so boosting one barely
        # perturbs the rest; these steps escape balanced saddle points where
        # the combined subgradient vanishes.
        return _single_target_directions(ev, gamma, s_conj)

    f_anchor = evaluate(anchor)[0]
    if eps == 0.0:
        w, f, iterations, reason = anchor, f_anchor, 0, "anchor"
    else:
        # Starts are nudged toward the users (the ascent would otherwise
        # stall when the anchor is exactly orthogonal to every user) and
        # dithered off mirror-symmetric saddle manifolds.
        v = gamma @ s_conj
        peak = np.max(np.abs(v))
        nudge = v / peak if peak > 0 else 0.0
        near = _dither(anchor + 0.5 * min(eps, _STEP_INIT) * nudge, min(eps, 0.2) / 4.0)
        if warm_start is not None:
            # Refine from the near-optimal previous weights, but guard against
            # the warm chain drifting into a stale basin with one anchored
            # restart; keep whichever lands higher.
            starts = [warm_start.weights, near]
        else:
            starts = [
                near,
                _dither(anchor + min(eps, 0.5) * nudge, min(eps, 0.4)),
                _dither(anchor, min(eps, 0.3)),
            ]
        runs = _ascend(starts, evaluate, gradient, project, cfg, probes)
        if trace is not None:
            for run in runs:
                trace.extend(run[4])
        # max() keeps the first of equal finals, so ties go to the earlier start.
        w, f, iterations, reason, _ = max(runs, key=lambda run: run[1])
        if f <= f_anchor + 1e-15:
            w, f = anchor, f_anchor

    return CodebookEntry(
        sensing_angle=sensing_angle,
        weights=Beamformer(w),
        min_snr=f,
        converged=reason != "max_iters",
        iterations=iterations,
        stop_reason=reason,
    )


def design_data_beam(
    users: list[UserLink], geometry: ArrayGeometry, cfg: OptimizerConfig | None = None
) -> Beamformer:
    """Fixed beamformer for the data symbols: max-min user SNR, no sensing beam.

    Solved by ``_fairest`` from the phase-only conjugate mixture of the users.
    """
    if not users:
        raise ValueError("at least one user is required")
    cfg = cfg or OptimizerConfig()
    s_users, gamma = _user_matrix(users, geometry)
    return Beamformer(_fairest(s_users, gamma, _phase_only(gamma @ np.conj(s_users)), cfg)[0])


def build_codebook(
    users: list[UserLink],
    sweep: list[float],
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
) -> Codebook:
    """One max-min entry per sensing angle. Deterministic for fixed inputs.

    The first entry is solved cold. Each later entry starts warm from the
    previous one carried onto its own anchor: the previous entry's offset
    from its anchor, added to this entry's anchor and projected back into
    the feasible set. Neighbouring sweep angles have near-identical optima
    relative to their anchors, so the warm solve (carried weights plus the
    ``near`` restart) replaces the three cold starts. Every anchor is taken
    before the first solve, so a sweep angle no steering vector accepts
    fails before any work, named in degrees.
    """
    if len(sweep) == 0:
        raise ValueError("sweep must be non-empty")
    anchors = []
    for angle in sweep:
        try:
            anchors.append(np.conj(steering_vector(geometry, angle)))
        except ValueError as err:
            raise ValueError(f"sweep angle {math.degrees(angle):.9g} deg: {err}") from None
    entries, warm = [], None
    for i, (angle, anchor) in enumerate(zip(sweep, anchors)):
        if i:
            carried = anchor + entries[-1].weights.weights - anchors[i - 1]
            warm = Beamformer(_project_ball_then_disk(carried, anchor, cfg.epsilon))
        entries.append(optimize_max_min(users, angle, geometry, cfg, warm_start=warm))
    return Codebook(entries=tuple(entries), users=tuple(users))


def update_codebook(
    codebook: Codebook,
    moved_users: list[UserLink],
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
) -> tuple[Codebook, UpdateStats]:
    """Refresh a codebook after users moved, re-optimizing only stale entries.

    An entry is reused verbatim (bit-identical weights) when the minimum user
    SNR evaluated with its old weights at the new angles still matches its
    stored value within ``cfg.snr_match_tol`` (linear). Otherwise the entry
    is re-optimized warm-started from the old weights.
    """
    if len(moved_users) != len(codebook.users):
        raise ValueError("moved_users must match the codebook's user list")
    for entry in codebook.entries:
        _check_weight_length("codebook entry", len(entry.weights), geometry)
    stats = UpdateStats()
    new_entries = []
    if moved_users:
        s_users, gamma = _user_matrix(moved_users, geometry)
    for entry in codebook.entries:
        t0 = time.perf_counter()
        if not moved_users or math.isinf(entry.min_snr):
            new_entries.append(entry)
            stats.reused += 1
        else:
            new_min = float(np.min(_snrs(entry.weights.weights, s_users, gamma)))
            if abs(new_min - entry.min_snr) <= cfg.snr_match_tol:
                new_entries.append(entry)
                stats.reused += 1
            else:
                fresh = optimize_max_min(
                    moved_users, entry.sensing_angle, geometry, cfg, warm_start=entry.weights
                )
                new_entries.append(fresh)
                stats.reoptimized += 1
                stats.stop_reasons[fresh.stop_reason] += 1
                stats.iterations += fresh.iterations
        stats.seconds += time.perf_counter() - t0
    return Codebook(entries=tuple(new_entries), users=tuple(moved_users)), stats


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; angles in degrees, min SNR in dB)
# ---------------------------------------------------------------------------


def codebook_to_dict(codebook: Codebook, geometry: ArrayGeometry) -> dict:
    entries = []
    for e in codebook.entries:
        if math.isinf(e.min_snr):
            snr_db = None  # +inf sentinel (no users)
        elif e.min_snr <= 0:
            snr_db = _DB_FLOOR
        else:
            snr_db = max(10.0 * math.log10(e.min_snr), _DB_FLOOR)
        w = e.weights.weights
        entries.append(
            {
                "sensing_angle_deg": math.degrees(e.sensing_angle),
                "weights": [[float(c.real), float(c.imag)] for c in w],
                "min_snr_db": snr_db,
                "converged": e.converged,
                "iterations": e.iterations,
                "stop_reason": e.stop_reason,
            }
        )
    return {
        "format": "subbeam-codebook",
        "version": 1,
        "geometry": asdict(geometry),
        "users": [
            {"angle_deg": math.degrees(u.angle), "base_snr": u.base_snr}
            for u in codebook.users
        ],
        "entries": entries,
    }


def codebook_from_dict(d: dict) -> tuple[Codebook, ArrayGeometry]:
    if d.get("format") != "subbeam-codebook":
        raise ValueError("not a codebook file")
    if d.get("version") != 1:
        raise ValueError(f"unsupported codebook version {d.get('version')!r}")
    shape = d["geometry"].get("planar_shape")
    geometry = ArrayGeometry(**{**d["geometry"], "planar_shape": tuple(shape) if shape else None})
    users = tuple(
        UserLink(math.radians(u["angle_deg"]), u["base_snr"]) for u in d["users"]
    )
    entries = []
    for e in d["entries"]:
        w = np.array([re + 1j * im for re, im in e["weights"]])
        snr_db = e["min_snr_db"]
        min_snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
        entries.append(
            CodebookEntry(
                sensing_angle=math.radians(e["sensing_angle_deg"]),
                weights=Beamformer(w),
                min_snr=min_snr,
                converged=e["converged"],
                iterations=e.get("iterations"),
                stop_reason=e.get("stop_reason"),
            )
        )
    return Codebook(entries=tuple(entries), users=users), geometry


def save_codebook(path, codebook: Codebook, geometry: ArrayGeometry) -> None:
    with open(path, "w") as f:
        json.dump(codebook_to_dict(codebook, geometry), f, indent=2, sort_keys=True)
        f.write("\n")


def load_codebook(path) -> tuple[Codebook, ArrayGeometry]:
    with open(path) as f:
        return codebook_from_dict(json.load(f))
