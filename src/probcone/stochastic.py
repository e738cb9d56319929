"""Random operators and pathwise integral equations, solved by Monte Carlo.

Ensembles hold N draws of a point in R^d. Flattened, an ensemble is a point of
R^(N d), and the empirical distribution of the samplewise norm gaps makes such
points a random metric space (an E-space), so the contraction checkers apply.

The integral-equation solver iterates the map

    (TX)(t_i, path) = h(t_i, path)
                      + sum over s_l <= t_i of w_l k(t_i, s_l, path) f(s_l, X(s_l, path))

with causal composite-trapezoid weights w (the integral at t_0 is 0).
Paths are independent: path ``j`` draws its randomness from a generator
keyed by ``mix_seed(root_seed, j)``. A shared kernel on at most 511 time
steps updates the paths in blocks of exactly ``_PATH_BLOCK`` rows, the
last padded with zeros, one matrix product per block; a random kernel or
a larger mesh updates each path by its own matrix-vector product. The
bits of a row of a matrix product depend on the block's height and the
row's place in it but not on the other rows, so path ``j`` sits at the
same place of a same-shaped block whatever the path count, and its result
is bitwise stable when the path or worker count changes. Every update
runs with numpy's OpenBLAS on one thread (see ``_OneBlasThread``), since
the BLAS splits a product over its threads in a way that moves its bits.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .cone import Cone
from .dist import Empirical, TimeGrid, _first_worst, _row_norms, default_comparison_tol, from_samples
from .errors import DivergenceError, InvalidParameterError, _check_positive, _check_rate, _check_tol, _checked_points
from .contract import ContractionCertificate, Mapping, _LeftSide, check_kannan
from .rng import path_generator
from .space import PCMSpace
from .tnorm import TNorm

PathField = np.ndarray  # shape (n_paths, n_time + 1)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """N joint draws of a point in R^d, optionally constrained to a cone."""

    samples: np.ndarray  # (N, d)
    seed: Optional[int] = None
    cone: Optional[Cone] = None

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidParameterError("ensemble samples must form a nonempty (N, d) array")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("ensemble samples must be finite")
        if self.cone is not None:
            members = self.cone._members(_checked_points(arr, self.cone.dim, "ensemble samples", ndim=2))
            if not members.all():
                raise InvalidParameterError("ensemble declares a cone but a sample violates it")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.shape[0])

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])


@dataclass(frozen=True)
class RandomOperator:
    """Samplewise map: (sample index, point) -> point, deterministic per index."""

    fn: Callable[[int, np.ndarray], np.ndarray]
    name: str = ""

    def apply(self, ensemble: Ensemble) -> Ensemble:
        out = np.empty_like(ensemble.samples)
        shape = out.shape[1:]
        for j in range(ensemble.n):
            image = np.asarray(self.fn(j, ensemble.samples[j]), dtype=float)
            if image.shape != shape:
                raise InvalidParameterError(
                    f"random operator {self.name!r} must send draw {j} to a point of shape {shape}, "
                    f"got shape {image.shape}"
                )
            if not np.isfinite(image).all():
                raise InvalidParameterError(
                    f"random operator {self.name!r} must send draw {j} to a point with finite coordinates, "
                    f"got {image.tolist()}"
                )
            out[j] = image
        return Ensemble(out, seed=ensemble.seed, cone=None)

    def _mapping(self, n: int, dim: int) -> Mapping:
        """This operator as a self-map of the flattened ensembles of n draws in R^dim."""
        return Mapping(lambda z: self.apply(Ensemble(z.reshape(n, dim))).samples.ravel(), name=self.name)


def _ensemble_space(n: int, dim: int) -> PCMSpace:
    """Flattened ensembles of n draws in R^dim: an E-space (Schweizer and Sklar, 1983, ch. 9)."""
    return PCMSpace(n * dim, lambda x, y: from_samples(_row_norms((x - y).reshape(n, dim))), TNorm.LUKASIEWICZ)


def empirical_metric(x: Ensemble, y: Ensemble) -> Empirical:
    """Empirical distribution of the samplewise distances ||x_j - y_j||."""
    if x.samples.shape != y.samples.shape:
        raise InvalidParameterError(f"ensemble shapes differ: {x.samples.shape} vs {y.samples.shape}")
    return _ensemble_space(x.n, x.dim).distance(x.samples.ravel(), y.samples.ravel())


@dataclass(frozen=True)
class RandomKannanResult:
    """Joint verdict of the samplewise and distributional contraction checks."""

    certificate: ContractionCertificate
    n_samples: int
    samplewise_violations: int
    samplewise_holds: bool

    @property
    def samplewise_fraction(self) -> float:
        return self.samplewise_violations / self.n_samples

    @property
    def passed(self) -> bool:
        return self.samplewise_holds and self.certificate.passed


def check_random_kannan(
    operator: RandomOperator,
    ensembles: Sequence[Tuple[Ensemble, Ensemble]],
    alpha: float,
    grid=None,
    tol=None,
) -> RandomKannanResult:
    """Two-level contraction check for a random operator.

    (a) samplewise: ||Tx_j - Ty_j|| <= alpha * max(||x_j - Tx_j||, ||y_j - Ty_j||)
        per draw, reporting the violating fraction;
    (b) distributional: :func:`~probcone.contract.check_kannan` on each pair
        as a point pair of the ensembles' E-space, at tolerance ``tol``
        (default 2/sqrt(N) for the smallest ensemble size N, the loosest
        :func:`~probcone.dist.default_comparison_tol` over every pair's
        distance); the worst pair is the first in pair order.

    The distributional side tests the t / (2 alpha) rescaling; the stricter
    t / alpha form implies it for alpha < 1/2 since the distributions are
    non-decreasing.
    """
    _check_rate("rate", alpha)
    if tol is not None:
        _check_tol(tol)
    if not ensembles:
        raise InvalidParameterError("need at least one ensemble pair")
    grid = TimeGrid.coerce(grid)
    gaps = [empirical_metric(x, y) for x, y in ensembles]  # refuses a pair of two shapes
    tol = float(default_comparison_tol(*gaps) if tol is None else tol)

    violations = 0
    certificates = []
    for x, y in ensembles:
        space, mapping = _ensemble_space(x.n, x.dim), operator._mapping(x.n, x.dim)
        left = _LeftSide.build(space, mapping, [(x.samples.ravel(), y.samples.ravel())], grid, tol)
        X, Y, TX, TY = (side.reshape(x.samples.shape) for side in (left.X, left.Y, left.TX, left.TY))
        rhs_gap = alpha * np.maximum(_row_norms(X - TX), _row_norms(Y - TY))
        violations += int(np.sum(_row_norms(TX - TY) > rhs_gap + 1e-12))
        certificates.append(check_kannan(space, mapping, alpha, pairs=left))

    worst, passed, (e,) = _first_worst([c.worst_margin for c in certificates], tol)
    total = sum(x.n for x, _ in ensembles)
    fraction = violations / total
    certificate = ContractionCertificate(
        kind="kannan",
        params={"alpha": alpha},
        n_pairs=len(ensembles),
        grid=grid,
        worst_margin=worst,
        passed=passed,
        tol=tol,
        witness=None if passed else {"t": certificates[e].witness["t"], "n_samples": ensembles[e][0].n},
        notes=(
            f"samplewise violations: {violations} of {total} ({fraction:.6f})",
            "distributional check uses the t/(2 alpha) rescaling; the t/alpha "
            "form implies it for rates below 1/2",
        ),
    )
    return RandomKannanResult(
        certificate=certificate,
        n_samples=total,
        samplewise_violations=violations,
        samplewise_holds=violations == 0,
    )


@dataclass(frozen=True, eq=False)
class SIEProblem:
    """A pathwise Volterra integral equation on [0, 1].

    X(t, path) = h(t, path) + integral over [0, t] of k(t, s, path) f(s, X(s, path)) ds

    ``kernel(t_mesh, s_mesh, path)`` and ``forcing(t_grid, path, rng)`` are
    vectorized over their grid arguments; ``rng`` is the path's own
    deterministic generator. The kernel is called on consecutive blocks
    of mesh rows: ``t_mesh`` and ``s_mesh`` are read-only zero-stride
    (r, n_time+1) views holding t_i and s_l for rows i = r0 .. r0+r-1,
    and it returns an (r, n_time+1) array-like. The result is copied into
    the operator and never written. Only its causal half s <= t is read:
    values above the diagonal are overwritten unread, NaN included, so a
    kernel undefined there, such as sqrt(t - s), needs no clamp.
    ``nonlinearity(s, x)`` must be elementwise with declared Lipschitz
    constant ``lipschitz`` in x. A zero nonlinearity may declare
    lipschitz = 0.
    """

    time_grid: np.ndarray
    kernel: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    forcing: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    nonlinearity: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    n_paths: int = 1
    seed: int = 0
    kernel_is_random: bool = False

    def __post_init__(self):
        t = np.asarray(self.time_grid, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidParameterError("time grid must contain at least two nodes")
        if t[0] != 0.0 or abs(t[-1] - 1.0) > 1e-12:
            raise InvalidParameterError("time grid must run from 0 to 1")
        if np.any(np.diff(t) <= 0.0):
            raise InvalidParameterError("time grid must be strictly increasing")
        if not np.isfinite(self.lipschitz) or self.lipschitz < 0.0:
            raise InvalidParameterError(f"lipschitz constant must be >= 0, got {self.lipschitz}")
        if self.n_paths < 1:
            raise InvalidParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "time_grid", t)

    @property
    def n_time(self) -> int:
        return int(self.time_grid.size - 1)


def causal_trapezoid_weights(t: np.ndarray, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """W[i, l]: trapezoid weight of node l in the integral over [0, t_i].

    Row 0 is all zeros (empty integral). Row i holds the composite
    trapezoid rule on nodes t_0 .. t_i: every row shares the interior
    weights (t_{l+1} - t_{l-1}) / 2, summed as seg[l]/2 + seg[l-1]/2, and
    ends in the diagonal seg[i-1]/2. ``start`` and ``stop`` select rows
    start .. stop-1, bitwise equal to those rows of the full matrix.
    """
    n = t.size
    stop = n if stop is None else stop
    half = np.diff(t) / 2.0
    interior = np.zeros(n)
    interior[:-1] += half
    interior[1:-1] += half[:-1]
    w = np.tril(np.broadcast_to(interior, (stop - start, n)), start - 1)
    diagonal = np.arange(max(start, 1), stop)
    w[diagonal - start, diagonal] = half[diagonal - 1]
    return w


# Elements per row block of one kernel layer in the operator build: about
# 2 MiB of float64, however large the mesh.
_BLOCK_ELEMENTS = 1 << 18


# Paths per matrix product of the shared-kernel apply, whatever the path
# count: a fixed height keeps a path's bits independent of how many paths
# there are.
_PATH_BLOCK = 64

# (get, set) thread-count symbols of the OpenBLAS numpy wheels bundle:
# numpy >= 2 links scipy-openblas, numpy 1.x its own 64-bit-integer build.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


def _load_blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy uses, or None.

    numpy wheels bundle OpenBLAS in ``numpy.libs`` beside the package
    (Linux, Windows) or in ``numpy/.dylibs`` (macOS). The file is opened
    with ``RTLD_NOLOAD`` where the platform has it, so only a library the
    process has already loaded is used and a second copy is never loaded.
    A numpy linked against another BLAS (a system OpenBLAS, MKL,
    Accelerate) has no such file; then this returns None and the apply
    runs on as many threads as that BLAS chooses.
    """
    import ctypes
    import glob

    package = os.path.dirname(np.__file__)
    for folder in (package + ".libs", os.path.join(package, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(folder, "*openblas*"))):
            try:
                library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            for get_name, set_name in _BLAS_THREAD_SYMBOLS:
                try:
                    get, set_ = getattr(library, get_name), getattr(library, set_name)
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs on one thread inside it.

    The thread count is process-wide, so regions that overlap in several
    threads share one pin: the first to enter saves the count and sets 1,
    the last to leave restores the saved count, also when its body raises.
    The library is looked up on the first entry, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = None  # (get, set) once looked up; False without a bundled OpenBLAS
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self._threads is None:
                self._threads = _load_blas_threads() or False
            if self._threads and self._depth == 0:
                get, set_ = self._threads
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._threads and self._depth == 0:
                self._threads[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


class _DiscreteOperator:
    """Compiled form of one problem: forcing matrix plus weighted kernel.

    The build holds one (paths, n, n) float64 array, with one layer per
    kernel: ``n_paths`` for a random kernel, else 1. One pass over row
    blocks of 2 MiB per layer calls the kernel once per block and layer on
    that block's (r, n) mesh rows (see :class:`SIEProblem`), writes the
    result into the layer's block, zeroes its acausal half s > t in place,
    takes the block's sup of |k|, multiplies it in place by the block's
    trapezoid weight rows, which turns the kernel into ``weighted``, and
    sums each row of |weighted| into its mass M_i. So the one pass yields
    ``weighted``, sup|k| and M, and :meth:`conditions` reads no operator.
    All three read that causal block, so no kernel value above the
    diagonal is read, NaN included.
    """

    def __init__(self, problem: SIEProblem):
        self.problem = problem
        t = problem.time_grid
        n = t.size
        self.h = np.stack(
            [
                np.asarray(
                    problem.forcing(t, j, path_generator(problem.seed, j)), dtype=float
                )
                for j in range(problem.n_paths)
            ]
        )
        if self.h.shape != (problem.n_paths, n):
            raise InvalidParameterError(
                f"forcing must return one value per time node; got shape {self.h.shape}"
            )
        # trapezoid node weights of step_norm: the last row of the causal rule
        self.node_weights = causal_trapezoid_weights(t, n - 1)[0]
        # read-only zero-stride views of the grid: no memory
        t_mesh, s_mesh = np.meshgrid(t, t, indexing="ij", copy=False)
        weighted = np.empty((problem.n_paths if problem.kernel_is_random else 1, n, n))
        # M_i = sum_l w_il |k_il| is the row sum of |weighted| because w >= 0
        self.row_mass = np.empty(weighted.shape[:2])
        sups = []
        # blocks are sized for one layer, so every kernel call gets about 2 MiB of rows
        step = max(1, _BLOCK_ELEMENTS // n)
        for r0 in range(0, n, step):
            r1 = min(r0 + step, n)
            weights = None  # made once the first layer's temporaries are freed
            for j, block in enumerate(weighted[:, r0:r1]):
                k = problem.kernel(t_mesh[r0:r1], s_mesh[r0:r1], j)
                if np.shape(k) != block.shape:
                    raise InvalidParameterError(
                        f"kernel must return one value per mesh node; got shape {np.shape(k)} "
                        f"for mesh rows {r0}..{r1 - 1}, expected {block.shape}"
                    )
                block[...] = k
                del k  # free the result before the mask and the weights are made
                # only the causal half s <= t enters the equation: the rest is
                # zeroed, NaN included, before anything reads the block, and
                # the zeros leave the max of |k| >= 0 unchanged
                np.copyto(block, 0.0, where=~np.tri(r1 - r0, n, r0, dtype=bool))
                sups.append(np.maximum(block.max(), -block.min()))
                if weights is None:
                    weights = causal_trapezoid_weights(t, r0, r1)
                block *= weights
                # the last layer no longer needs the weight rows, so |block| goes into them
                self.row_mass[j, r0:r1] = np.sum(np.abs(block, out=weights if j == len(weighted) - 1 else None), axis=1)
        self.sup_kernel = float(np.max(sups))
        self.weighted = weighted

    def apply(self, field: PathField) -> PathField:
        # Everything runs on one BLAS thread: the bits of a BLAS product move
        # with the thread count above a size (a matrix-vector product from
        # about 800 nodes, a 64-row matrix product already at 201).
        with _ONE_BLAS_THREAD:
            f_vals = np.asarray(self.problem.nonlinearity(self.problem.time_grid[None, :], field))
            if f_vals.shape != field.shape:
                raise InvalidParameterError(
                    f"nonlinearity must return one value per path and time node; got shape {f_vals.shape}"
                )
            out = np.empty_like(field)
            weighted = self.weighted
            shared = weighted.shape[0] == 1
            if shared and weighted[0].size <= _BLOCK_ELEMENTS:
                # One (_PATH_BLOCK, n) @ (n, n) product per block reads the
                # operator once per block instead of once per path. The
                # choice may depend on the mesh but not on the path count,
                # or a path's bits would move as paths are added. Above 511
                # steps one path padded to a block costs too much: 9.1 ms
                # against 1.4 ms for its matrix-vector product at 2001 nodes
                # (one thread, 2-vCPU x86_64 VM).
                kernel_t = weighted[0].T
                rows = np.empty((_PATH_BLOCK, field.shape[1]))
                product = np.empty_like(rows)
                for p0 in range(0, field.shape[0], _PATH_BLOCK):
                    r = min(_PATH_BLOCK, field.shape[0] - p0)
                    rows[:r] = f_vals[p0 : p0 + r]
                    rows[r:] = 0.0
                    np.matmul(rows, kernel_t, out=product)
                    np.add(self.h[p0 : p0 + r], product[:r], out=out[p0 : p0 + r])
            else:
                # matmul makes one matrix-vector product per path, against the
                # shared layer or the path's own: no path's bits depend on another
                np.add(self.h, np.matmul(weighted, f_vals[:, :, None])[:, :, 0], out=out)
        return out

    def step_norm(self, new: PathField, old: PathField) -> float:
        """Discrete L2 norm of new - old: trapezoid in time, uniform average over paths."""
        d = np.subtract(new, old)
        np.square(d, out=d)
        d *= self.node_weights
        return float(np.sqrt(np.mean(np.sum(d, axis=1))))

    def conditions(self) -> SIEConditions:
        """Contraction diagnostics of this discretization; see :func:`sie_conditions`."""
        problem = self.problem
        m_per_path = np.max(self.row_mass, axis=1)
        if m_per_path.size == 1 and problem.n_paths > 1:
            m_per_path = np.repeat(m_per_path, problem.n_paths)
        m_hat = float(np.mean(m_per_path))
        stderr = float(np.std(m_per_path, ddof=1) / np.sqrt(m_per_path.size)) if m_per_path.size > 1 else 0.0
        rate = float(problem.lipschitz * np.sqrt(m_hat * self.sup_kernel))
        max_lm = float(problem.lipschitz * m_per_path.max())
        return SIEConditions(
            lipschitz=problem.lipschitz,
            sup_kernel=self.sup_kernel,
            m_hat=m_hat,
            m_hat_stderr=stderr,
            max_path_lm=max_lm,
            contraction_rate=rate,
            satisfied=rate < 0.5 and max_lm < 0.5,
        )


def sie_apply(problem: SIEProblem, field: PathField) -> PathField:
    """One application of the discretized solution map to a path field."""
    field = np.asarray(field, dtype=float)
    expected = (problem.n_paths, problem.time_grid.size)
    if field.shape != expected:
        raise InvalidParameterError(f"field must have shape {expected}, got {field.shape}")
    out = _DiscreteOperator(problem).apply(field)
    if not np.all(np.isfinite(out)):
        raise DivergenceError("solution map produced non-finite values")
    return out


@dataclass(frozen=True)
class SIEConditions:
    """Contraction diagnostics of the discretized problem."""

    lipschitz: float
    sup_kernel: float
    m_hat: float  # path average of M(path) = max_i integral of |k(t_i, .)|
    m_hat_stderr: float
    max_path_lm: float
    contraction_rate: float  # K = L * sqrt(m_hat * sup_kernel)
    satisfied: bool


def sie_conditions(problem: SIEProblem) -> SIEConditions:
    """Estimate the contraction rate K = L sqrt(E[M] sup|k|) on the grid.

    M(path) is the discretized maximum over t of the integral of
    |k(t, s, path)| over [0, t]; its path mean estimates E[M] and the
    reported standard error qualifies that estimate. ``satisfied`` needs
    both K < 1/2 and L * M(path) < 1/2 on every path.
    """
    return _DiscreteOperator(problem).conditions()


@dataclass(frozen=True, eq=False)
class SIESolution:
    field: PathField
    step_norms: Tuple[float, ...]
    contraction_rate: float
    converged: bool
    iterations: int
    conditions: SIEConditions


def sie_solve(problem: SIEProblem, eps: float = 1e-8, max_iter: int = 500) -> SIESolution:
    """Picard-iterate the solution map from X = h until the L2 step stalls.

    The problem is compiled once: its :class:`SIEConditions` come from the
    operator the iteration applies. Proceeds even when the contraction
    conditions fail (with a warning in the returned diagnostics); raises on
    non-finite values only.
    """
    _check_positive("eps", eps)
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
    op = _DiscreteOperator(problem)
    conditions = op.conditions()
    if not conditions.satisfied:
        warnings.warn(
            f"contraction conditions not satisfied (K={conditions.contraction_rate:.4f}); "
            "iterating anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    field = op.h.copy()
    norms = []
    converged = False
    for _ in range(max_iter):
        nxt = op.apply(field)
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(f"non-finite path values after {len(norms) + 1} iterations")
        norms.append(op.step_norm(nxt, field))
        field = nxt
        if norms[-1] < eps:
            converged = True
            break
    return SIESolution(
        field=field,
        step_norms=tuple(norms),
        contraction_rate=conditions.contraction_rate,
        converged=converged,
        iterations=len(norms),
        conditions=conditions,
    )
