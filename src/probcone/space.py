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

Failures are report content, never exceptions: each check's worst margin,
verdict and witness come from :func:`~probcone.dist._first_worst`, and a
witness is attached exactly when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cone import _SAMPLING_ATTEMPT_CAP, MEMBERSHIP_TOL, Cone
from .dist import DistFn, TimeGrid, _first_worst
from .errors import InfeasibleRegionError, InvalidParameterError, _check_positive, _check_tol, _checked_points
from .parallel import ordered_map
from .tnorm import TNorm, _MaxCombine, _check_unit

_AGREEMENT_PAIRS = 1 << 14  # ordered pairs per cauchy_window read: bounds its temporaries

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
        with np.errstate(over="ignore", invalid="ignore"):
            widths = box[:, 1] - box[:, 0]
        if not np.all((widths >= 0) & (widths < np.inf)):  # NaN fails both
            raise InvalidParameterError(f"sampling box widths hi - lo must be finite and >= 0, got {widths.tolist()}")
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


def _passfail(name, worst, passed, witness) -> AxiomCheck:
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
    :meth:`PCMSpace.distance_values` in n + 1 calls: one for the (n, n, G + 1)
    table of the grid times and +inf, F(+inf) in its last column, and one
    per row i for F_ik at the distinct sums t + s.
    Every check takes its worst margin, verdict and witness from
    :func:`~probcone.dist._first_worst` in a fixed block order, so the
    result is identical for any worker count: identity over the rows i,
    then the chosen row's first smallest value over t; symmetry over the
    pairs i < j, then t; the triangle over (i, j) in lexicographic order,
    then (k, t, s) in row-major order; and feasibility over the points, at
    the ``MEMBERSHIP_TOL`` that sampling accepted them with.
    ``sub_distribution_pairs`` lists the pairs with F(+inf) < 1, since no
    finite grid shows the limit at +inf; for F(+inf) in [0, 1] that is
    ``not is_proper``.

    The triangle check validates every off-diagonal grid value as a t-norm
    operand once, into a copy of the grid table with F_ii = 0, and reduces
    each row i over j before subtracting. For a grid time t, one t-norm pass
    over the (j, k, s) table and one ``np.maximum.reduce`` over j give
    B_ik(t, s) = max_j T(F_ij(t), F_jk(s)). Rows j with bitwise-equal
    F_ij(.) share one pass through their folded table rows, and a grid time
    whose F_i.(t) is bitwise equal to the previous time's copies that B
    (see ``_MaxCombine``). One subtraction from F_ik(t + s), into the buffer
    of B, and one ``_first_worst`` then give the row's worst. The zero
    diagonal masks j == i and k == j, as T(0, b) = T(a, 0) = 0 never exceeds
    a valid term; +inf masks k == i. The reduction is exact: rounding is
    monotone, so fl(L - max_j T_j) = min_j fl(L - T_j), and each row's worst
    compares equal to the least of its per-triple margins (NaN when one is
    NaN). Only the sign of a zero may differ. So each task keeps, for its
    first worst row, the (k, t, s) cells whose reduced margin equals the
    row's worst (its NaN cells when that is NaN) and F_ik(t + s) there.
    Every cell where a single j reaches the worst is among them, since
    T_j <= B gives fl(L - T_j) >= fl(L - B). The witness search takes the
    points j in order, evaluates fl(F_ik - T(F_ij(t), F_jk(s))) at those
    cells only, k == j masked by +inf, and stops at the first j that
    reaches the worst: its first such cell is the witness, and its margin,
    with its own sign of zero, is ``worst_margin``. That is what a replay of
    every (i, j) block would give, bit for bit, whether the check passes or
    fails. F_ik(t + s) is read once per distinct sum t_a + t_b, a <= b, and
    gathered to the G^2 cells: t_a + t_b == t_b + t_a exactly, and a
    ``DistFn`` is a function of t.

    The rows are split into ``workers`` contiguous runs, one task each. A
    task holds one (n, G, G) buffer of F_ik(t + s) and one (G, n, G)
    buffer of B and then the margins, reused row by row; for a row with r
    distinct F_ij(.), a folded (r, n * G) table and its scratch; each
    row's (n - 1, G(G + 1)/2) block of sums; and, for its first worst row,
    an (n, G, G) mask of the kept cells and F_ik(t + s) at each (one or two
    cells on a cone-Gaussian row, tens of thousands where a Dirac row ties
    at 0). The search then holds those and their flat indices, and goes
    through them in slices of G^2 cells. Peak memory is the (n, n, G + 1)
    table, its checked copy (and, for LUKASIEWICZ, 1 - F) plus the per-task
    buffers, so it grows with ``workers`` * n * G^2, not with n^2 * G^2.
    With ``workers`` > 1 the F_ik(t + s) rows are read on worker threads,
    so the distance map, its ``table`` and the ``DistFn`` it returns must
    be thread-safe.
    """
    if n_points < 3:
        raise InvalidParameterError(f"need at least 3 points to exercise the triangle axiom, got {n_points}")
    _check_tol(tol)
    grid = TimeGrid.coerce(grid)
    rng = np.random.default_rng(seed)
    pts = sample_points(space, n_points, rng)
    t = grid.points

    # F(+inf) is the last column: no finite grid shows that limit
    rows, cols = np.divmod(np.arange(n_points * n_points), n_points)
    table = space.distance_values(pts[rows], pts[cols], np.append(t, np.inf)).reshape(n_points, n_points, -1)
    on_grid, at_inf = table[:, :, :-1], table[:, :, -1]
    index = np.arange(n_points)

    # Axiom 1: F(x, x) == 1 on the grid. The row is chosen by its margin and
    # its t by its smallest value, which may differ once v - 1.0 rounds.
    diag = on_grid[index, index]
    id_worst, id_passed, (_, i) = _first_worst([diag.min(axis=1) - 1.0], tol)
    _, _, (_, k) = _first_worst([diag[i]], tol)
    id_witness = {"index": i, "point": pts[i].tolist(), "t": float(t[k]), "value": float(diag[i, k])}
    identity = _passfail("identity", id_worst, id_passed, id_witness)

    # Axiom 2 over the pairs i < j in lexicographic order; the margin is the
    # exact negation of the gap.
    upper_i, upper_j = np.triu_indices(n_points, 1)
    fij, fji = on_grid[upper_i, upper_j], on_grid[upper_j, upper_i]
    sym_worst, sym_passed, (_, p, k) = _first_worst([-np.abs(fij - fji)], tol)
    sym_witness = {
        "i": int(upper_i[p]),
        "j": int(upper_j[p]),
        "t": float(t[k]),
        "forward": float(fij[p, k]),
        "reverse": float(fji[p, k]),
    }
    symmetry = _passfail("symmetry", sym_worst, sym_passed, sym_witness)

    # Reverse direction of axiom 1: distinct points whose distance sits at 1
    # across the whole grid can only be reported as consistent with identity,
    # never equated.
    at_one = np.all(on_grid >= 1.0 - tol, axis=2)
    ambiguous = [(int(i), int(j)) for i, j in zip(upper_i, upper_j) if at_one[i, j] and at_one[j, i]]
    # F(+inf) < 1 marks a sub-distribution
    off_diagonal = ~np.eye(n_points, dtype=bool)
    sub_pairs = list(map(tuple, np.argwhere(off_diagonal & (at_inf < 1.0)).tolist()))

    # Axiom 3 over ordered distinct triples and every (t, s) cell. Each row i
    # is reduced over j first; the first worst row's cells at its worst are
    # then searched one j at a time for the witness.
    g = len(grid)
    # the diagonal is axiom 1's; a 0.0 there keeps each entry at its (i, j, k)
    # index, and T(0, b) = T(a, 0) = 0 masks j == i and k == j in the max
    operands = _check_unit(np.where(off_diagonal[:, :, None], on_grid, 0.0), "distance values F(x_i, x_j)(t_k)")
    max_combine = _MaxCombine(space.tnorm, operands.reshape(n_points, n_points * g))
    # F_ik is read at each distinct sum t_a + t_b, a <= b, once; a sum past the
    # largest float is inf, where F reads its limit at +inf
    first, second = np.triu_indices(g)
    with np.errstate(over="ignore"):
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
        values = np.asarray(values, dtype=float)  # np.take writes only its own dtype to ``out``
        by_k = lhs.reshape(n_points, g * g)
        # the slabs k < i and k > i; every index is in range, so "clip" only skips a buffered copy
        np.take(values[:i], sum_index, axis=1, out=by_k[:i], mode="clip")
        np.take(values[i:], sum_index, axis=1, out=by_k[i + 1 :], mode="clip")
        by_k[i] = np.inf  # masks k == i
        return lhs

    def run_worsts(run):
        """The worst margin of each row i in ``run``, over (j, k, t, s), and the
        first worst row's cells at that worst: (row, their (k, t, s) mask,
        F_ik(t + s) at them in row-major order)."""
        lhs = np.empty((n_points, g, g))
        bound = np.empty((g, n_points, g))  # (t, k, s): max over j of T(F_ij(t), F_jk(s)), then the margins
        margins = bound.transpose(1, 0, 2)
        worsts, kept = [], None
        for i in run:
            max_combine(operands[i], bound.reshape(g, n_points * g))
            # in the order of ``bound``, which writes contiguously
            np.subtract(read_lhs(i, lhs).transpose(1, 0, 2), bound, out=bound)
            # only the worst's value is used, so the buffer's own order serves
            worst = _first_worst([bound], tol)[0]
            worsts.append(worst)
            if _first_worst([worsts], tol)[2][1] == len(worsts) - 1:
                kept = None  # frees the previous row's cells first
                hit = np.isnan(margins) if np.isnan(worst) else margins == worst
                kept = (i, hit, lhs[hit])
        return worsts, kept

    results = ordered_map(run_worsts, runs, workers=workers)
    row_worst, _, (_, i) = _first_worst([[w for worsts, _ in results for w in worsts]], tol)
    hit, lhs_cells = next(kept[1:] for _, kept in results if kept[0] == i)
    del results  # the other tasks' kept cells
    cells = np.flatnonzero(hit)

    def reach(j):
        """(margin, passed, witness) at block j's first cell that reaches the row's worst, else None.

        The kept cells go in slices of at most G^2, so no temporary here is
        longer than one (t, s) plane.
        """
        for start in range(0, len(cells), g * g):
            k, ti, si = np.unravel_index(cells[start : start + g * g], (n_points, g, g))
            margins = operands[i, j].take(ti)
            space.tnorm._combine(margins, operands[j, k, si], out=margins)
            np.subtract(lhs_cells[start : start + g * g], margins, out=margins)
            margins[k == j] = np.inf  # masks k == j
            worst, passed, (_, c) = _first_worst([margins], tol)
            if np.isnan(worst) or worst == row_worst:  # no block reaches below it
                return worst, passed, {"i": i, "j": j, "k": int(k[c]), "t": float(t[ti[c]]), "s": float(t[si[c]])}
        return None

    # the first j that reaches the worst holds the witness
    tri_worst, tri_passed, tri_witness = next(filter(None, (reach(j) for j in range(n_points) if j != i)))
    triangle = _passfail("triangle", tri_worst, tri_passed, tri_witness)

    # Axiom 4, reinterpreted as point feasibility.
    if space.point_cone is None:
        feasibility = AxiomCheck("feasibility", True, None, None)
        feas_note = "no cone declared; feasibility is vacuous"
    else:
        feas_worst, feas_passed, (_, k) = _first_worst([space.point_cone._margins(pts)], MEMBERSHIP_TOL)
        feasibility = _passfail("feasibility", feas_worst, feas_passed, {"index": k, "point": pts[k].tolist()})
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
    x, y = _checked_points(x, space.dim, "x"), _checked_points(y, space.dim, "y")
    return bool(_tau_close(space, x[None], y[None], eps)[0])


def _tau_close(space: PCMSpace, X, Y, eps: float) -> np.ndarray:
    """``tau_converged(space, X[p], Y[p], eps)`` for every row p, from one ``distance_values`` call."""
    return space.distance_values(X, Y, np.array([eps]))[:, 0] > 1.0 - eps


def cauchy_window(space: PCMSpace, pts, eps: float) -> bool:
    """True iff every ordered pair of distinct window points is tau-close at eps.

    ``pts`` is a nonempty window of points of the space, one per row. The
    n(n - 1) ordered pairs (m, k), m != k, are read row by row,
    ``_AGREEMENT_PAIRS`` per ``distance_values`` call, and the first read
    that holds a pair that is not close is the last: every pair of a read is
    evaluated, so its temporaries stay bounded however long the window is.
    """
    _check_positive("eps", eps)
    pts = _checked_points(pts, space.dim, "window", ndim=2)
    n = len(pts)
    if not n:
        raise InvalidParameterError("window must contain at least one point")
    for p0 in range(0, n * (n - 1), _AGREEMENT_PAIRS):
        # pair p is pts[m] and the k-th other point, (m, k) = divmod(p, n - 1)
        m, k = np.divmod(np.arange(p0, min(p0 + _AGREEMENT_PAIRS, n * (n - 1))), n - 1)
        if not _tau_close(space, pts[m], pts[k + (k >= m)], eps).all():
            return False
    return True
