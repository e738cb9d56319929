"""Fixed-point iteration with distributional convergence certificates.

``picard`` runs x_{n+1} = T x_n, stopping when successive iterates pass the
tau-closeness test (the true limit is unknown mid-run, so the stopping rule
uses consecutive iterates; the returned trace keeps everything needed to
re-test against the final limit afterwards).

``check_bounds`` then verifies the two a-priori lower bounds that a
self-displacement contraction at rate alpha guarantees along its orbit:

* per step:   F(x_n, x_{n+1})(t) >= F(x_0, x_1)(t / (2 alpha)^n)
* per window: F(x_n, x_m)(t)     >= fold_T over j = n..m-1 of
              F(x_0, x_1)(t / ((m - n) (2 alpha)^j))

Violations are report content, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence, Tuple

import numpy as np

from .contract import Mapping
from .dist import DistFn, TimeGrid, _first_worst, _passes, empirical_sample_count
from .errors import DivergenceError, InvalidParameterError, _check_positive, _check_rate, _check_tol, _checked_points
from .parallel import ordered_map  # noqa: F401 -- read only by bench/tracer.py's patch points
from .space import PCMSpace, _tau_close, cauchy_window, tau_converged
from .tnorm import TNorm, _check_unit


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """One orbit of the map; its step distributions derive from the points."""

    points: np.ndarray  # (n_iters + 1, dim)
    grid: TimeGrid
    stopped_reason: str  # "converged" | "max_iter" | "diverged"
    eps: float
    space: PCMSpace

    @cached_property
    def step_dists(self) -> Tuple[DistFn, ...]:
        """F(x_n, x_{n+1}) for each step."""
        return tuple(self.space.distance(x, y) for x, y in zip(self.points[:-1], self.points[1:]))

    @cached_property
    def step_values(self) -> np.ndarray:
        """``step_dists`` evaluated on ``grid``, shape (n_iters, len(grid))."""
        return self.space.distance_values(self.points[:-1], self.points[1:], self.grid.points)

    @property
    def n_iters(self) -> int:
        return int(self.points.shape[0] - 1)

    @property
    def limit(self) -> np.ndarray:
        return self.points[-1]


def picard(
    space: PCMSpace,
    mapping: Mapping,
    x0,
    eps: Optional[float] = None,
    max_iter: int = 10_000,
    grid=None,
) -> IterationTrace:
    """Iterate the map from x0 until successive iterates are tau-close.

    ``eps=None`` picks 1e-6, or 1e-2 when the space's distances are
    empirical (sampling noise makes tighter stopping unreachable). Raises
    :class:`~probcone.errors.InvalidParameterError` when x0 is not a numeric
    point of the space's dimension or is outside the declared cone, and
    :class:`~probcone.errors.DivergenceError` (carrying the partial trace)
    when an iterate goes non-finite. Slow non-convergence is not an error;
    it ends with reason "max_iter".
    """
    x, eps = _checked_start(space, x0, eps, max_iter)
    grid = TimeGrid.coerce(grid)

    points = [x]
    reason = "max_iter"
    for _ in range(max_iter):
        x_next = mapping(x)
        if not np.all(np.isfinite(x_next)):
            raise _diverged(space, points, grid, eps)
        points.append(x_next)
        if tau_converged(space, x, x_next, eps):
            reason = "converged"
            break
        x = x_next

    return IterationTrace(np.asarray(points), grid, reason, eps, space)


def _checked_start(space: PCMSpace, x0, eps: Optional[float], max_iter: int):
    """Validate one orbit's start; returns it as a float array with its eps."""
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
    x = _checked_points(x0, space.dim, "x0")
    if not space.feasible(x):
        raise InvalidParameterError("x0 is outside the declared cone")
    if eps is None:
        eps = 1e-2 if empirical_sample_count(space.distance(x, x)) is not None else 1e-6
    _check_positive("eps", eps)
    return x, eps


def _diverged(space: PCMSpace, points, grid: TimeGrid, eps: float) -> DivergenceError:
    """The error for an orbit whose next iterate after ``points`` is non-finite."""
    partial = IterationTrace(np.asarray(points), grid, "diverged", eps, space)
    return DivergenceError(f"non-finite iterate after {len(points)} steps", trace=partial)


def kannan_bound(first_step: DistFn, alpha: float, n: int, t):
    """Guaranteed lower bound for the n-th step distribution at time t.

    ``first_step`` is F(x_0, x_1); the bound is its value at
    t / (2 alpha)^n. n = 0 reduces to the first step itself. ``t`` may be
    a scalar or an array of positive times.
    """
    _check_rate("rate", alpha)
    if n < 0:
        raise InvalidParameterError(f"step index must be >= 0, got {n}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr < np.inf)):  # NaN fails both
        raise InvalidParameterError("t must be positive")
    out = _first_step_at(first_step, t_arr.reshape(-1), alpha, [n])[0].reshape(t_arr.shape)
    return float(out) if t_arr.ndim == 0 else out


def cauchy_chain_bound(
    first_step: DistFn, alpha: float, n: int, m: int, t: float, tnorm: TNorm
) -> float:
    """Lower bound for F(x_n, x_m)(t) from the t-norm chain of first-step terms.

    Folds the values F(x_0, x_1)(t / ((m - n) (2 alpha)^j)) for
    j = n .. m-1 with the given t-norm (left fold, empty never occurs since
    n < m).
    """
    _check_rate("rate", alpha)
    if not (0 <= n < m):
        raise InvalidParameterError(f"need 0 <= n < m, got n={n}, m={m}")
    _check_positive("t", t)
    return float(_chain_bound_on_grid(first_step, alpha, n, m, np.array([t], dtype=float), tnorm)[0])


def _chain_bound_on_grid(first_step, alpha, n, m, t, tnorm) -> np.ndarray:
    """``cauchy_chain_bound`` at every time of the 1-d array ``t``."""
    values = _first_step_at(first_step, t, alpha, range(n, m), gap=float(m - n))
    terms = _check_unit(values, "first-step values")
    return reduce(tnorm._combine, terms, np.ones_like(t))


def _first_step_at(first_step, t, alpha, steps, gap=1.0) -> np.ndarray:
    """F(x_0, x_1)(t / (gap (2 alpha)^j)) at the 1-d times ``t``, one row per step j in ``steps``.

    Each divisor is built with Python ``**``, as the scalar formulas are;
    ``gap`` 1.0 leaves ``(2 alpha)^j`` bit for bit.
    """
    divisors = np.array([gap * (2.0 * alpha) ** j for j in steps])
    with np.errstate(divide="ignore", over="ignore"):
        return first_step.eval(t[None, :] / divisors[:, None])


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """Observed orbit distributions against the guaranteed lower bounds."""

    grid: TimeGrid
    alpha: float
    tol: float
    step_lhs: np.ndarray
    step_rhs: np.ndarray
    step_margins: np.ndarray
    chain_pairs: Tuple[Tuple[int, int], ...]
    chain_lhs: np.ndarray
    chain_rhs: np.ndarray
    chain_margins: np.ndarray
    holds: bool
    n_violations: int
    worst_margin: float


def check_bounds(
    trace: IterationTrace,
    alpha: float,
    grid=None,
    tnorm: Optional[TNorm] = None,
    tol: float = 0.0,
    max_chain_pairs: int = 32,
    seed: int = 0,
) -> BoundCheck:
    """Verify the per-step and chain lower bounds along a trace.

    Chain pairs (n, m) with m - n >= 2 are all tested when few, otherwise
    ``max_chain_pairs`` of them sampled deterministically from ``seed``.
    Step margins, then chain margins, give the worst margin and ``holds``
    (:func:`~probcone.dist._first_worst`); each margin that fails the same
    test, a NaN included, is a violation.
    """
    _check_rate("rate", alpha)
    _check_tol(tol)
    if trace.points.shape[0] < 2:
        raise InvalidParameterError("trace must contain at least two points")
    grid = TimeGrid.coerce(grid)
    tnorm = trace.space.tnorm if tnorm is None else tnorm
    t = grid.points
    points = trace.points
    first_step = trace.space.distance(*points[:2])
    n_steps = trace.n_iters

    step_lhs = trace.space.distance_values(points[:-1], points[1:], t)
    step_rhs = _first_step_at(first_step, t, alpha, range(n_steps))
    step_margins = step_lhs - step_rhs

    n_idx, m_idx = _chain_ends(n_steps, max_chain_pairs, seed)
    pairs = tuple(zip(n_idx.tolist(), m_idx.tolist()))
    chain_lhs = trace.space.distance_values(points[n_idx], points[m_idx], t)
    chain_rhs = np.array(
        [_chain_bound_on_grid(first_step, alpha, n, m, t, tnorm) for n, m in pairs]
    ).reshape(len(pairs), len(t))
    chain_margins = chain_lhs - chain_rhs

    worst, holds, _ = _first_worst([step_margins, chain_margins], tol)
    violations = int(np.sum(~_passes(step_margins, tol))) + int(np.sum(~_passes(chain_margins, tol)))
    return BoundCheck(
        grid=grid,
        alpha=alpha,
        tol=tol,
        step_lhs=step_lhs,
        step_rhs=step_rhs,
        step_margins=step_margins,
        chain_pairs=pairs,
        chain_lhs=chain_lhs,
        chain_rhs=chain_rhs,
        chain_margins=chain_margins,
        holds=holds,
        n_violations=violations,
        worst_margin=worst,
    )


def _chain_ends(n_steps: int, max_pairs: int, seed: int):
    """Index arrays (n, m) of the chain pairs ``check_bounds`` tests, in row-major order.

    The candidates are the row-major list of (n, m) with 0 <= n and
    n + 2 <= m <= n_steps; all are taken when at most ``max_pairs``, else
    ``max_pairs`` of them drawn from ``seed``. Row n holds n_steps - n - 1
    pairs, so a drawn list index decodes to its pair through the row
    starts, without building the list.
    """
    total = n_steps * (n_steps - 1) // 2
    if total > max_pairs:
        idx = np.sort(np.random.default_rng(seed).choice(total, size=max_pairs, replace=False))
    else:
        idx = np.arange(total)
    row_len = np.arange(n_steps - 1, 0, -1)
    row_start = np.cumsum(row_len) - row_len
    n = np.searchsorted(row_start, idx, side="right") - 1
    return n, n + 2 + (idx - row_start[n])


@dataclass(frozen=True)
class FixedPointCheck:
    is_fixed: bool
    worst: float


def verify_fixed_point(space: PCMSpace, mapping: Mapping, x, grid=None, tol: float = 0.0) -> FixedPointCheck:
    """Accept x as fixed iff F(Tx, x) sits at 1 (within tol) across the grid.

    Raises :class:`~probcone.errors.InvalidParameterError` when x is not a
    numeric point of the space's dimension.
    """
    _check_tol(tol)
    grid = TimeGrid.coerce(grid)
    x = _checked_points(x, space.dim, "x")
    values = np.asarray(space.distance(mapping(x), x).eval(grid.points))
    worst = float(values.min())
    return FixedPointCheck(is_fixed=worst >= 1.0 - tol, worst=worst)


@dataclass(frozen=True, eq=False)
class UniquenessResult:
    unique: bool
    limits: np.ndarray  # (n_starts, dim)
    stopped_reasons: Tuple[str, ...]


def uniqueness_probe(
    space: PCMSpace,
    mapping: Mapping,
    starts: Sequence,
    eps: Optional[float] = None,
    max_iter: int = 10_000,
    agree_tol: float = 1e-6,
    workers: int = 1,
) -> UniquenessResult:
    """Run independent orbits and test whether all limits coincide.

    Limits, stop reasons and errors are those of ``picard`` run on each
    start in turn: the first failing start's error is raised (a
    ``DivergenceError`` with its partial trace). The orbits run as one
    stacked array; when that run fails, the starts are replayed through
    ``picard``, which calls the map again from the starts.

    ``unique`` requires every orbit to converge and the limits to form a
    :func:`~probcone.space.cauchy_window` at ``agree_tol`` (checked before
    any orbit runs). Everything runs on the calling thread; ``workers`` is
    accepted and has no effect.
    """
    starts = list(starts)
    if len(starts) < 2:
        raise InvalidParameterError("need at least two starts to probe uniqueness")
    _check_positive("agree_tol", agree_tol)

    stacked = _stacked_orbits(space, mapping, starts, eps, max_iter)
    if stacked is None:
        grid = TimeGrid.default()
        traces = [picard(space, mapping, s, eps=eps, max_iter=max_iter, grid=grid) for s in starts]
        stacked = np.array([tr.limit for tr in traces]), [tr.stopped_reason for tr in traces]
    limits, reasons = stacked

    unique = all(r == "converged" for r in reasons) and cauchy_window(space, limits, agree_tol)
    return UniquenessResult(unique=unique, limits=limits, stopped_reasons=tuple(reasons))


def _stacked_orbits(space: PCMSpace, mapping: Mapping, starts, eps, max_iter):
    """``(limits, reasons)`` of every start's ``picard`` orbit, or None on any failure.

    The live orbits are one ``(n_live, dim)`` array: each step maps them
    with one ``Mapping.apply_rows`` call and stop-tests them with one
    ``_tau_close`` call per distinct eps. An orbit leaves the array when it
    converges. An invalid start, a raising call or a non-finite iterate
    gives None.
    """
    try:
        checked = [_checked_start(space, s, eps, max_iter) for s in starts]
        orbit_eps = np.array([e for _, e in checked])
        X = np.array([x for x, _ in checked])
        limits = X.copy()
        reasons = ["max_iter"] * len(starts)
        live = np.arange(len(starts))
        for _ in range(max_iter):
            if not live.size:
                break
            X_next = mapping.apply_rows(X)
            if not np.isfinite(X_next).all():
                return None
            stop = np.zeros(len(live), dtype=bool)
            for e in np.unique(orbit_eps[live]):
                rows = np.flatnonzero(orbit_eps[live] == e)
                stop[rows] = _tau_close(space, X[rows], X_next[rows], e)
            limits[live] = X_next
            for k in live[stop]:
                reasons[k] = "converged"
            live, X = live[~stop], X_next[~stop]
    except Exception:  # the caller replays the starts through picard, which raises it
        return None
    return limits, reasons
