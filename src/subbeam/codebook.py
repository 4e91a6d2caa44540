"""ISAC beamforming codebook design and online maintenance.

Two solvers are provided:

* ``optimize_weighted_sum`` maximizes a weighted sum of the sensing gain and
  the mean user SNR over the unit polydisk (per-element |w_n| <= 1); the
  sensing row's base SNR is 1, so ``sensing_weight`` alone scales its term.
* ``optimize_max_min`` maximizes the minimum user SNR while keeping every
  weight within a per-element radius ``epsilon`` of the conjugate beamformer
  for the sensing angle, so each codebook entry keeps a strong sensing beam.

Three solves run on one lockstep driver, ``_ascend``: the max-min and
weighted-sum solves climb by ``_climb``, and the anchor-free max-min solve
``_fairest`` (``design_data_beam`` and the weighted-sum seeding) by
``_fair_point``. Each line search takes the first improving step of a
halving ladder from 0.1 (in ``_climb``, from twice the last accepted step).
Each driver step projects and measures every live start's ladder in one
stacked call and scores it (in one call where the score is shared), so each
start takes, bit for bit, its path alone. A measurement keeps the inner
products ``s @ w`` and SNRs for the next gradient and probe directions.
The max-min objective is smoothed by a softmin whose temperature anneals
toward zero (differentiable early, exact at convergence). In ``_climb`` the
line search runs along the gradient ``g`` while the temperature anneals and
along the feasible direction ``P(w + 0.1 g) - w`` at the final temperature
(gradient projection, Bertsekas, Nonlinear Programming, 2nd ed., sec. 2.3),
the vector the ``grad`` stop test measures. ``_fair_point`` runs 14 rounds
at fixed, halving temperatures, each until no direction improves. Max-min
user SNR (max-min-fair multicast) has many local optima, so each solve keeps
the best of several starts: the old weights and one anchored restart when
warm, three anchored starts when cold. ``build_codebook`` solves its first
entry cold; each later entry starts warm from the previous entry carried
onto its own anchor (the previous offset from its anchor, added to the new
anchor and projected), so a sweep of neighbouring angles costs two starts
per entry instead of three.

At the final temperature a ``_climb`` stops when the projected gradient is
below ``_GRAD_TOL`` (``grad``), when no step along the feasible direction
or any probe improves (``stationary``), or when 50 consecutive iterations
each gain less than 1e-4 relative (about 0.0004 dB) over the stall mark
(``stalled``); otherwise it runs to ``max_iters``. Codebook entries record
the winning start's iteration count and stop reason (``anchor`` when no
ascent ran), from which ``converged`` is read, and ``update_codebook`` sums
both over the entries it re-optimizes.

The solvers do not warn. ``warn_close_angles`` warns about users within one
half-power beamwidth (HPBW) of each other, once per user layout:
``build_codebook`` calls it, and so does ``experiments.tradeoff.epsilon_sweep``.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .arrays import ArrayGeometry, Beamformer, in_field_of_view, steering_vector

__all__ = [
    "UserLink",
    "OptimizerConfig",
    "CodebookEntry",
    "Codebook",
    "UpdateStats",
    "optimize_weighted_sum",
    "optimize_max_min",
    "design_data_beam",
    "warn_close_angles",
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
    (see ``_climb``; ``anchor`` when no ascent ran).
    """

    sensing_angle: float
    weights: Beamformer
    min_snr: float  # +inf sentinel when there are no users
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        """Whether the winning start stopped before ``max_iters``."""
        return self.stop_reason != "max_iters"


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


def _measure(s, gamma):
    """``measure(w) -> (inner, x)`` with ``inner = s @ w`` and ``x`` the SNRs.

    ``w`` is one point (N,) or a stack of points (M, N), measured row by
    row. The stacked inner products are one batched ``matmul``, which gives
    each row bit for bit the ``s @ w`` of a one-point call, so ``_ascend``
    measures every pending halving ladder in one call and still picks what a
    sequential search would. A point's measurement is its cache ``ev``: a
    score reduces its SNRs over the last axis, one score per row, and the
    gradient and probe directions at that point reuse it.
    """

    def measure(w):
        inner = np.matmul(s, w[..., None])[..., 0]
        return inner, gamma * np.abs(inner) ** 2

    return measure


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


def warn_close_angles(users: list[UserLink], geometry: ArrayGeometry) -> None:
    """Warn once per pair of users within one HPBW, whose beams a solve may not separate."""
    # The HPBW holds in sine space: off broadside a beam is wider in angle.
    hpbw = 0.886 / (geometry.num_elements * geometry.spacing)
    for i in range(len(users)):
        for j in range(i + 1, len(users)):
            if abs(math.sin(users[i].angle) - math.sin(users[j].angle)) < hpbw:
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


def _pick(f, steps, w_try, f_try, ev, lo):
    """``(w, f, ev, step)`` at the first rung (row ``lo`` on) whose score beats ``f``, or None."""
    better = f_try > f * (1.0 + 1e-12) + 1e-15
    k = better.argmax()
    if not better[k]:
        return None
    i = lo + k
    return w_try[i], float(f_try[k]), (ev[0][i], ev[1][i]), float(steps[k, 0])


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


def _fair_point(w0, s_all, gamma_all, measure, cfg):
    """One anchor-free max-min start for ``_ascend``: 14 fixed-temperature softmin rounds.

    A round's temperature follows the mean SNR it starts at, and it climbs
    until no direction (combined, then each target's, weakest first) has an
    improving step from ``_STEP_INIT``. Returns the round end with the
    highest minimum SNR, the first on ties.
    """
    s_conj = np.conj(s_all)
    w = _project_polydisk(w0)
    x = _snrs(w, s_all, gamma_all)
    best_w, best_min = w, float(x.min())
    tau = _TAU_INIT
    for _ in range(14):
        t = tau * max(float(x.sum() / len(x)), 1e-30)
        score = partial(_softmin, t=t)
        ev = measure(w)
        f = float(score(ev[1]))
        for _ in range(max(cfg.max_iters // 10, 50)):
            dirs = [_softmin_ascent(ev, t, gamma_all, s_conj)]
            dirs += _single_target_directions(ev, gamma_all, s_conj)
            for g in dirs:
                d = _normalized_direction(g)
                hit = None if d is None else (yield w, f, d, _STEP_INIT, score)
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
    measure = _measure(s, gamma)
    best_w, best_val = None, -math.inf
    for w in _ascend(
        starts, lambda w0: _fair_point(w0, s, gamma, measure, cfg), measure, _project_polydisk
    ):
        val = float(np.min(_snrs(w, s, gamma)))
        if val > best_val:
            best_w, best_val = w, val
    return best_w, best_val


def _ascend(starts, climb, measure, project):
    """Run ``climb(w0)`` from each start in lockstep: the one line-search loop.

    A climb is a generator that yields each line search as ``(w, f, d,
    step0, score)``: from ``w``, scored ``f``, along ``d`` over the halving
    ladder from ``step0``, each rung judged by ``score``. It is sent its
    pick (``_pick``, or None) and returns its result; the results come back
    in start order. Each step projects and measures every pending ladder in
    one stacked call. Searches sharing one score are scored in one call;
    each other search (a ``_fair_point`` round has its own temperature)
    scores its own rows. All of these act row by row with the bits of a
    one-point call, so each start takes, bit for bit, the path it would
    take alone, trying one step at a time.
    """
    climbs = [climb(w0) for w0 in starts]
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
        ladders = [_LADDERS[step0] for _, (_, _, _, step0, _) in searches]
        rows = [w + steps * d for (_, (w, _, d, _, _)), steps in zip(searches, ladders)]
        w_try = project(rows[0] if len(rows) == 1 else np.concatenate(rows))
        ev = measure(w_try)
        first = searches[0][1][4]
        shared = first(ev[1]) if all(search[4] is first for _, search in searches) else None
        lo = 0
        for (i, (_, f, _, _, score)), steps in zip(searches, ladders):
            hi = lo + len(steps)
            f_try = score(ev[1][lo:hi]) if shared is None else shared[lo:hi]
            advance(i, _pick(f, steps, w_try, f_try, ev, lo))
            lo = hi
    return runs


def _climb(w0, measure, score, gradient, project, cfg, probes):
    """Monotone projected gradient ascent from one start: a climb for ``_ascend``.

    ``gradient(ev, tau)`` (``tau`` the annealed temperature) and
    ``probes(ev)`` read the cache ``ev`` of the current iterate. When the
    combined direction has no improving step, the ``probes`` (if any) are
    tried before annealing further: at saddle points of kinked or symmetric
    objectives the combined (sub)gradient can vanish, and single-target
    directions escape. The search runs along the gradient until the
    temperature reaches ``_TAU_MIN``, then along the feasible direction
    ``project(w + _STEP_INIT * g) - w``, whose norm the ``grad`` stop tests.

    Returns ``(w, f, iterations, stop_reason, trace)``, ``trace`` the score
    at the first point and after every iteration. Every stop but
    ``max_iters`` happens at the final temperature: ``grad`` (projected
    gradient norm below ``_GRAD_TOL``), ``stationary`` (no improving step
    along the gradient or any probe) or ``stalled`` (``_STALL_ITERS``
    consecutive iterations each within ``_STALL_REL`` relative of the stall
    mark, the last value that beat it by more).
    """
    w = project(w0)
    ev = measure(w)
    f = float(score(ev[1]))
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
        hit = None if d is None else (yield w, f, d, step_mem, score)
        if hit is not None:
            step_mem = hit[3] * 2.0
        elif probes is not None:
            for p in probes(ev):
                d = _normalized_direction(p)
                hit = None if d is None else (yield w, f, d, _STEP_INIT, score)
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
    sensing_angle: float,
    geometry: ArrayGeometry,
    cfg: OptimizerConfig,
    *,
    sensing_weight: float = 1.0,
) -> Beamformer:
    """Joint beamformer maximizing sensing_weight*sensing gain + mean user SNR.

    Subject only to per-element |w_n| <= 1.
    """
    if not users:
        raise ValueError("at least one user is required")
    if sensing_weight < 0:
        raise ValueError("sensing_weight must be >= 0")
    s_users, gamma = _user_matrix(users, geometry)
    s_t = steering_vector(geometry, sensing_angle)
    n_users = len(users)

    s_all = np.vstack([s_t[None, :], s_users])
    gamma_all = np.concatenate([[1.0], gamma])
    coef = np.concatenate([[sensing_weight], np.full(n_users, 1.0 / n_users)])
    s_conj = np.conj(s_all)
    measure = _measure(s_all, gamma_all)

    def score(x):
        return (coef * x).sum(axis=-1)

    def gradient(ev, tau):
        # d/dw* of sum_u coef_u * gamma_u * |s_u^T w|^2
        return (coef * gamma_all * ev[0]) @ s_conj

    def climb(w0):
        return _climb(w0, measure, score, gradient, _project_polydisk, cfg, None)

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
        (f_i, float(np.min(_snrs(w_i, s_act, gamma_act))), w_i)
        for w_i, f_i, _, _, _ in _ascend(starts, climb, measure, _project_polydisk)
    ]
    finals.append((float(score(measure(fair_start)[1])), fair_val, fair_start))
    f_best = max(cand[0] for cand in finals)
    # 5% objective window ~ 0.2 dB, the solver tolerance used throughout.
    _, _, w = max(
        (cand for cand in finals if cand[0] >= f_best * 0.95),
        key=lambda cand: cand[1],
    )

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
        return CodebookEntry(sensing_angle, Beamformer(anchor), math.inf, 0, "anchor")
    s_users, gamma = _user_matrix(users, geometry)
    s_conj = np.conj(s_users)
    eps = cfg.epsilon

    def project(w):
        return _project_ball_then_disk(w, anchor, eps)

    measure = _measure(s_users, gamma)

    def score(x):
        return np.minimum.reduce(x, axis=-1)

    def gradient(ev, tau):
        x = ev[1]
        return _softmin_ascent(ev, tau * max(np.add.reduce(x) / len(x), 1e-30), gamma, s_conj)

    def probes(ev):
        # Single-user gradient directions, weakest user first. Users at
        # well-separated angles are near-orthogonal, so boosting one barely
        # perturbs the rest; these steps escape balanced saddle points where
        # the combined subgradient vanishes.
        return _single_target_directions(ev, gamma, s_conj)

    def climb(w0):
        return _climb(w0, measure, score, gradient, project, cfg, probes)

    f_anchor = float(score(measure(anchor)[1]))
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
        runs = _ascend(starts, climb, measure, project)
        # max() keeps the first of equal finals, so ties go to the earlier start.
        w, f, iterations, reason, _ = max(runs, key=lambda run: run[1])
        if f <= f_anchor + 1e-15:
            w, f = anchor, f_anchor

    return CodebookEntry(
        sensing_angle=sensing_angle,
        weights=Beamformer(w),
        min_snr=f,
        iterations=iterations,
        stop_reason=reason,
    )


def design_data_beam(
    users: list[UserLink], geometry: ArrayGeometry, cfg: OptimizerConfig
) -> Beamformer:
    """Fixed beamformer for the data symbols: max-min user SNR, no sensing beam.

    Solved by ``_fairest`` from the phase-only conjugate mixture of the users.
    """
    if not users:
        raise ValueError("at least one user is required")
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
    fails before any work, named in degrees. Users within one HPBW of each
    other are warned about once, before the first solve.
    """
    if len(sweep) == 0:
        raise ValueError("sweep must be non-empty")
    anchors = []
    for angle in sweep:
        try:
            anchors.append(np.conj(steering_vector(geometry, angle)))
        except ValueError as err:
            raise ValueError(f"sweep angle {math.degrees(angle):.9g} deg: {err}") from None
    warn_close_angles(users, geometry)
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
                iterations=e["iterations"],
                stop_reason=e["stop_reason"],
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
