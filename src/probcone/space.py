"""Probabilistic cone metric spaces and their randomized axiom suite.

A :class:`PCMSpace` bundles a point dimension, a pure distance map
``(x, y) -> DistFn``, the t-norm used by the triangle inequality, an
optional cone restricting feasible points, and a sampling box for the
randomized checks.

``check_axioms`` samples points and falsifies the four space axioms:

1. identity      -- F(x, x) evaluates to 1 everywhere on the grid;
2. symmetry      -- F(x, y) and F(y, x) agree pointwise on the grid;
3. triangle      -- F(x, z)(t + s) >= T(F(x, y)(t), F(y, z)(s)) for every
                    ordered triple and every (t, s) in grid x grid;
4. feasibility   -- sampled points belong to the declared cone. (Distance
                    values are scalar, so the cone constraint lives on the
                    points; see the package README for the rationale.)

Failures are report content, never exceptions: margins use the uniform
convention "pass iff worst_margin >= -tol", a NaN margin is the worst and
fails, and a witness is attached exactly when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .cone import Cone
from .dist import DistFn, TimeGrid, _first_worst
from .errors import InfeasibleRegionError, InvalidParameterError, _check_positive, _check_tol
from .parallel import ordered_map
from .tnorm import TNorm, _MaxCombine, _check_unit

_SAMPLING_ATTEMPT_CAP = 100_000

DistanceMap = Callable[[np.ndarray, np.ndarray], DistFn]


@dataclass(frozen=True, eq=False)
class PCMSpace:
    """A point set with a distribution-valued distance and a t-norm."""

    dim: int
    distance: DistanceMap
    tnorm: TNorm
    point_cone: Optional[Cone] = None
    sampling_box: Optional[np.ndarray] = None  # shape (dim, 2), rows (lo, hi)

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidParameterError(f"dimension must be a positive integer, got {self.dim}")
        box = self.sampling_box
        if box is None:
            box = np.column_stack([np.full(self.dim, -1.0), np.full(self.dim, 1.0)])
        box = np.asarray(box, dtype=float)
        if box.shape != (self.dim, 2):
            raise InvalidParameterError(f"sampling box must have shape ({self.dim}, 2), got {box.shape}")
        if np.any(box[:, 1] < box[:, 0]):
            raise InvalidParameterError("sampling box upper bounds must be >= lower bounds")
        box = box.copy()
        box.setflags(write=False)
        object.__setattr__(self, "sampling_box", box)
        if self.point_cone is not None and self.point_cone.dim != self.dim:
            raise InvalidParameterError("cone dimension does not match the space dimension")

    def feasible(self, x) -> bool:
        return self.point_cone is None or self.point_cone.contains(np.asarray(x, dtype=float))

    def distance_values(self, X, Y, t) -> np.ndarray:
        """Row p is ``distance(X[p], Y[p]).eval(t)``; shape ``(len(X), len(t))``.

        A distance map may carry a ``table(X, Y, t)`` attribute that computes
        the whole array at once; it must equal the per-row evaluation bit for
        bit and raise what ``distance`` raises. Maps without one are
        evaluated row by row.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        t = np.asarray(t, dtype=float)
        table = getattr(self.distance, "table", None)
        if table is not None:
            return table(X, Y, t)
        out = np.empty((len(X), t.size))
        for p in range(len(X)):
            out[p] = self.distance(X[p], Y[p]).eval(t)
        return out


def sample_points(space: PCMSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly from the sampling box, rejected against the cone.

    Candidates are drawn in blocks of at most the number still missing, so
    the generator yields the same points, and ends in the same state, as
    drawing one candidate at a time. More points than the
    ``_SAMPLING_ATTEMPT_CAP`` candidates a call may draw are refused
    before any draw.
    """
    if n < 1:
        raise InvalidParameterError(f"need at least one point, got {n}")
    if n > _SAMPLING_ATTEMPT_CAP:
        raise InvalidParameterError(
            f"cannot sample {n} points: at most {_SAMPLING_ATTEMPT_CAP} candidates are drawn"
        )
    lo = space.sampling_box[:, 0]
    hi = space.sampling_box[:, 1]
    out = np.empty((n, space.dim))
    filled = 0
    attempts = 0
    while attempts < _SAMPLING_ATTEMPT_CAP:
        block = rng.uniform(lo, hi, size=(min(n - filled, _SAMPLING_ATTEMPT_CAP - attempts), space.dim))
        attempts += len(block)
        for candidate in block:
            if space.feasible(candidate):
                out[filled] = candidate
                filled += 1
        if filled == n:
            return out
    raise InfeasibleRegionError(
        f"infeasible sampling region: {filled}/{n} points after {_SAMPLING_ATTEMPT_CAP} attempts"
    )


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom's verdict: pass/fail, worst margin, and a witness on failure."""

    name: str
    passed: bool
    worst_margin: Optional[float]
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise InvalidParameterError("a passing check must not carry a witness")
        if not self.passed and self.witness is None:
            raise InvalidParameterError("a failing check must carry a witness")


@dataclass(frozen=True, eq=False)
class AxiomReport:
    """Everything ``check_axioms`` observed, reproducible from (seed, grid)."""

    n_points: int
    seed: int
    tol: float
    grid: TimeGrid
    identity: AxiomCheck
    symmetry: AxiomCheck
    triangle: AxiomCheck
    feasibility: AxiomCheck
    sub_distribution_pairs: tuple = ()
    identity_ambiguous_pairs: tuple = ()  # distinct points indistinguishable from identity on the grid
    points: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    notes: tuple = ()

    @property
    def all_passed(self) -> bool:
        return (
            self.identity.passed
            and self.symmetry.passed
            and self.triangle.passed
            and self.feasibility.passed
        )


def _passfail(name, worst, tol, witness) -> AxiomCheck:
    passed = worst is None or worst >= -tol
    return AxiomCheck(name=name, passed=passed, worst_margin=worst, witness=None if passed else witness)


def check_axioms(
    space: PCMSpace,
    n_points: int,
    grid=None,
    tol: float = 0.0,
    seed: int = 0,
    workers: int = 1,
) -> AxiomReport:
    """Randomized falsification of the space axioms.

    Samples ``n_points`` points (inside the cone when one is declared) and
    reads every ordered pair's distance values from
    :meth:`PCMSpace.distance_values`: one call for the (n, n, G) grid table
    and one call per row i, plus one for the replayed row below, for F_ik
    at the distinct sums t + s.
    Every check reduces its margins with :func:`~probcone.dist._first_worst`
    in a fixed block order, so the result is identical for any worker
    count: identity over the rows i, then the chosen row's first smallest
    value over t; symmetry over the pairs i < j, then t; the triangle over
    (i, j) in lexicographic order, then (k, t, s) in row-major order; and
    feasibility over the points. ``sub_distribution_pairs`` asks each
    off-diagonal ``DistFn`` for ``is_proper``, since no finite grid shows
    the limit at +inf.

    The triangle check validates every off-diagonal grid value as a t-norm
    operand once, into a copy of the grid table with F_ii = 0, and reduces
    each row i over j before subtracting. For each grid time t, one t-norm
    pass over the whole (j, k, s) table and one ``np.maximum.reduce`` over j
    give B_ik(t, s) = max_j T(F_ij(t), F_jk(s)); one subtraction from
    F_ik(t + s) and one ``_first_worst`` then give the row's worst. The zero
    diagonal masks j == i and k == j, as T(0, b) = T(a, 0) = 0 never exceeds
    a valid term; +inf masks k == i. The reduction is exact: rounding is
    monotone, so fl(L - max_j T_j) = min_j fl(L - T_j), and each row's worst
    compares equal to the least of its per-triple margins (NaN when one is
    NaN). Only the sign of a zero may differ, so the first worst row is
    replayed one (i, j) block at a time, with k == i and k == j masked by
    +inf, and the replay gives ``worst_margin`` and the witness bit for bit,
    whether the check passes or fails. F_ik(t + s) is read once per
    distinct sum t_a + t_b, a <= b, and scattered to the G^2 cells: t_a +
    t_b == t_b + t_a exactly, and a ``DistFn`` is a function of t.

    The rows are split into ``workers`` contiguous runs, one task each. A
    task holds one (n, G, G) buffer of F_ik(t + s) and margins, one
    (G, n, G) buffer of B and one (n, n * G) t-norm scratch table, reused
    row by row, plus each row's (n - 1, G(G + 1)/2) block of sums and its
    (n - 1, G^2) scatter; the replay adds two (n, G, G) buffers. Peak memory
    is the (n, n, G) grid table, its checked copy (and, for LUKASIEWICZ,
    1 - F) plus the per-task buffers, so it grows with ``workers`` * n * G^2,
    not with n^2 * G^2. With ``workers`` > 1 the F_ik(t + s) rows are read
    on worker threads, so the distance map, its ``table`` and the
    ``DistFn`` it returns must be thread-safe.
    """
    if n_points < 3:
        raise InvalidParameterError(f"need at least 3 points to exercise the triangle axiom, got {n_points}")
    _check_tol(tol)
    grid = TimeGrid.coerce(grid)
    rng = np.random.default_rng(seed)
    pts = sample_points(space, n_points, rng)
    t = grid.points

    rows, cols = np.divmod(np.arange(n_points * n_points), n_points)
    on_grid = space.distance_values(pts[rows], pts[cols], t).reshape(n_points, n_points, -1)
    index = np.arange(n_points)

    # Axiom 1: F(x, x) == 1 on the grid. The row is chosen by its margin and
    # its t by its smallest value, which may differ once v - 1.0 rounds.
    diag = on_grid[index, index]
    id_worst, _, i = _first_worst([diag.min(axis=1) - 1.0])
    _, _, k = _first_worst([diag[i]])
    id_witness = {"index": i, "point": pts[i].tolist(), "t": float(t[k]), "value": float(diag[i, k])}
    identity = _passfail("identity", id_worst, tol, id_witness)

    # Axiom 2 over the pairs i < j in lexicographic order; the margin is the
    # exact negation of the gap.
    upper_i, upper_j = np.triu_indices(n_points, 1)
    fij, fji = on_grid[upper_i, upper_j], on_grid[upper_j, upper_i]
    sym_worst, _, flat = _first_worst([-np.abs(fij - fji)])
    p, k = divmod(flat, len(t))
    sym_witness = {
        "i": int(upper_i[p]),
        "j": int(upper_j[p]),
        "t": float(t[k]),
        "forward": float(fij[p, k]),
        "reverse": float(fji[p, k]),
    }
    symmetry = _passfail("symmetry", sym_worst, tol, sym_witness)

    # Reverse direction of axiom 1: distinct points whose distance sits at 1
    # across the whole grid can only be reported as consistent with identity,
    # never equated.
    at_one = np.all(on_grid >= 1.0 - tol, axis=2)
    ambiguous = [(int(i), int(j)) for i, j in zip(upper_i, upper_j) if at_one[i, j] and at_one[j, i]]
    sub_pairs = [
        (i, j) for i in range(n_points) for j in range(n_points)
        if i != j and not space.distance(pts[i], pts[j]).is_proper
    ]

    # Axiom 3 over ordered distinct triples and every (t, s) cell. Each row i
    # is reduced over j first, then the first worst row is replayed one (i, j)
    # block at a time for its witness.
    g = len(grid)
    off_diagonal = ~np.eye(n_points, dtype=bool)
    # the diagonal is axiom 1's; a 0.0 there keeps each entry at its (i, j, k)
    # index, and T(0, b) = T(a, 0) = 0 masks j == i and k == j in the max
    operands = _check_unit(np.where(off_diagonal[:, :, None], on_grid, 0.0), "distance values F(x_i, x_j)(t_k)")
    max_combine = _MaxCombine(space.tnorm, operands.reshape(n_points, n_points * g))
    # F_ik is read at each distinct sum t_a + t_b, a <= b, once
    first, second = np.triu_indices(g)
    sums = t[first] + t[second]
    sum_index = np.empty((g, g), dtype=np.intp)
    sum_index[first, second] = sum_index[second, first] = np.arange(len(sums))
    sum_index = sum_index.ravel()
    n_runs = max(1, min(workers or 1, n_points))
    runs = [range(r * n_points // n_runs, (r + 1) * n_points // n_runs) for r in range(n_runs)]

    def read_lhs(i, lhs):
        """Fill the (n, G, G) buffer ``lhs`` with F_ik(t + s), +inf at k == i."""
        others = pts[off_diagonal[i]]
        values = space.distance_values(np.broadcast_to(pts[i], others.shape), others, sums)
        lhs.reshape(n_points, g * g)[off_diagonal[i]] = values[:, sum_index]
        lhs[i] = np.inf  # masks k == i
        return lhs

    def run_worsts(run):
        """The worst margin of each row i in ``run``, over (j, k, t, s)."""
        lhs = np.empty((n_points, g, g))
        bound = np.empty((g, n_points, g))  # (t, k, s): max over j of T(F_ij(t), F_jk(s))
        worsts = []
        for i in run:
            max_combine(operands[i], bound.reshape(g, n_points * g))
            margins = np.subtract(read_lhs(i, lhs), bound.transpose(1, 0, 2), out=lhs)
            worsts.append(_first_worst([margins])[0])
        return worsts

    row_worsts = list(chain.from_iterable(ordered_map(run_worsts, runs, workers=workers)))
    _, _, i = _first_worst([row_worsts])

    def pair_margins(i, lhs):
        """Row i's (k, t, s) margins for each j != i in turn, in one reused buffer."""
        margins = np.empty_like(lhs)
        for j in range(n_points):
            if j != i:
                space.tnorm._combine(operands[i, j][None, :, None], operands[j][:, None, :], out=margins)
                np.subtract(lhs, margins, out=margins)
                margins[j] = np.inf  # masks k == j
                yield margins

    tri_worst, b, flat = _first_worst(pair_margins(i, read_lhs(i, np.empty((n_points, g, g)))))
    j = b + (b >= i)  # block b is the b-th j other than i
    k, cell = divmod(flat, g * g)
    ti, si = divmod(cell, g)
    tri_witness = {"i": i, "j": j, "k": k, "t": float(t[ti]), "s": float(t[si])}
    triangle = _passfail("triangle", tri_worst, tol, tri_witness)

    # Axiom 4, reinterpreted as point feasibility.
    if space.point_cone is None:
        feasibility = AxiomCheck("feasibility", True, None, None)
        feas_note = "no cone declared; feasibility is vacuous"
    else:
        margins = [space.point_cone.membership_margin(p) for p in pts]
        feas_worst, _, k = _first_worst([margins])
        feasibility = _passfail(
            "feasibility",
            feas_worst,
            max(tol, 1e-12),
            {"index": k, "point": pts[k].tolist()},
        )
        feas_note = None

    notes = []
    if feas_note:
        notes.append(feas_note)
    if ambiguous:
        notes.append(
            "some distinct sampled pairs are consistent with identity on this grid; "
            "grid evidence cannot conclude point equality"
        )
    if sub_pairs:
        notes.append("sub-distribution distance values observed (upper limit < 1)")

    return AxiomReport(
        n_points=n_points,
        seed=seed,
        tol=tol,
        grid=grid,
        identity=identity,
        symmetry=symmetry,
        triangle=triangle,
        feasibility=feasibility,
        sub_distribution_pairs=tuple(sub_pairs),
        identity_ambiguous_pairs=tuple(ambiguous),
        points=pts,
        notes=tuple(notes),
    )


def tau_converged(space: PCMSpace, x, y, eps: float) -> bool:
    """Distributional closeness test: F(x, y)(eps) > 1 - eps."""
    _check_positive("eps", eps)
    value = float(space.distance(np.asarray(x, float), np.asarray(y, float)).eval(eps))
    return value > 1.0 - eps


def _tau_close(space: PCMSpace, X, Y, eps: float) -> np.ndarray:
    """``tau_converged(space, X[p], Y[p], eps)`` for every row p, from one ``distance_values`` call."""
    return space.distance_values(X, Y, np.array([eps]))[:, 0] > 1.0 - eps


def cauchy_window(space: PCMSpace, pts: Sequence, eps: float) -> bool:
    """True iff every ordered pair in the window meets the closeness test."""
    _check_positive("eps", eps)
    pts = [np.asarray(p, dtype=float) for p in pts]
    if not pts:
        raise InvalidParameterError("window must contain at least one point")
    return all(tau_converged(space, x, y, eps) for m, x in enumerate(pts) for n, y in enumerate(pts) if m != n)
