"""Distribution-valued distances.

A distance value here is not a number but a left-continuous, non-decreasing
function F: R -> [0, 1]; F(t) reads "probability that the distance is less
than t". Four concrete shapes cover everything the toolkit needs:

* ``DiracStep(d)``      -- the classical metric embedding: 0 up to d, then 1.
* ``GaussianShift(d)``  -- Phi(t - d) with Phi the standard normal CDF.
* ``ScaledGaussian(delta)`` -- delta * Phi(t) for t > 0, else 0. With
  delta < 1 this is a *sub*-distribution (its upper limit is delta, not 1);
  such values are admitted and flagged via ``is_proper`` rather than
  rejected, because diagnostic reports need to witness them.
* ``Empirical(samples)`` -- the empirical CDF with *strict* counting
  ``#{s_i < t}/n``, which keeps it left-continuous at every atom.

All values are immutable after construction and safe to share across
threads. ``eval`` accepts scalars or numpy arrays. ``DiracStep`` and
``GaussianShift`` state their parameter rule (``_check``) and formula
(``_cdf``) once; their private rows form ``_table(d, t)`` applies both to
a 1-d array of parameters, and the built-in distance tables are that form.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidParameterError, _check_positive, _check_tol

ArrayLike = Union[float, np.ndarray]

DEFAULT_GRID_START = 1e-3
DEFAULT_GRID_STOP = 1e2
DEFAULT_GRID_SIZE = 50


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing positive evaluation times.

    Finite grids stand in for the "for all t > 0" quantifier: a verdict
    computed on a grid holds at its points only, and nothing between them
    is bounded.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise InvalidParameterError("time grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(pts)):
            raise InvalidParameterError("time grid must be finite")
        if pts[0] <= 0.0:
            raise InvalidParameterError("time grid points must be positive")
        if np.any(np.diff(pts) <= 0.0):
            raise InvalidParameterError("time grid must be strictly increasing")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    @classmethod
    def default(cls) -> "TimeGrid":
        """50 log-spaced points on [1e-3, 1e2]."""
        return _geometric_grid()

    @classmethod
    def coerce(cls, grid) -> "TimeGrid":
        if grid is None:
            return cls.default()
        if isinstance(grid, TimeGrid):
            return grid
        return cls(np.asarray(grid, dtype=float))


def _geometric_grid(start=DEFAULT_GRID_START, stop=DEFAULT_GRID_STOP, num=DEFAULT_GRID_SIZE) -> TimeGrid:
    """``num`` log-spaced points on [start, stop]: every grid given by its ends is built here."""
    return TimeGrid(np.geomspace(start, stop, num))


class DistFn:
    """Common surface of all distribution-function variants."""

    def eval(self, t: ArrayLike) -> ArrayLike:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_proper(self) -> bool:
        """True iff the limit at +infinity is 1: ``eval(+inf) == 1``."""
        return float(self.eval(np.inf)) == 1.0

    def _scaled(self, c: float) -> "DistFn":
        return Rescaled(self, c)


_ndtr = None


def _scipy_special_dir() -> Optional[str]:
    """Directory of scipy's ``special`` subpackage, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return os.path.join(spec.submodule_search_locations[0], "special")


def _load_ndtr():
    """scipy's compiled ``ndtr`` ufunc, loaded from the extension module that defines it.

    ``scipy.special``'s package init loads about 300 modules, most of them
    for its array-API support (0.2-0.4 s on a 2-vCPU x86_64 VM), while the
    extension module loads alone in about 1.3 ms and imports no other
    scipy module. It is loaded under its real name, so a later
    ``import scipy.special`` reuses it and its ``ndtr`` is this very
    object. A scipy whose ``ndtr`` lives elsewhere takes the package import.
    """
    special = _scipy_special_dir()
    if special is not None:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(special, "_special_ufuncs" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location("scipy.special._special_ufuncs", path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module.ndtr
            except (ImportError, AttributeError):
                break
    from scipy.special import ndtr

    return ndtr


def _normal_cdf(x: ArrayLike) -> ArrayLike:
    """Standard normal CDF Phi, scipy's ``ndtr``.

    The ufunc is loaded on the first call rather than with this module,
    since Dirac spaces and the SIE solver never evaluate Phi, and it is
    loaded from scipy's compiled extension module, so no CLI run imports
    ``scipy.special`` (see ``_load_ndtr``).
    """
    global _ndtr
    if _ndtr is None:
        # A second load of the extension returns the module CPython cached
        # from the first, so two threads racing here both store the same
        # ufunc: the race is harmless.
        _ndtr = _load_ndtr()
    return _ndtr(x)


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of the 2-d array ``diff``: the package's one norm.

    ``np.hypot`` folds each row in order and scales internally, so a row's
    norm does not depend on the other rows, and huge-but-finite rows do not
    overflow in the squares.
    """
    return np.hypot.reduce(diff, axis=1)


def _as_eval_result(values: np.ndarray, scalar: bool) -> ArrayLike:
    if scalar:
        return float(values)
    return values


def _refuse_first(d, admitted, words: str) -> None:
    """Raise ``words, got <value>`` for the first parameter ``admitted`` refuses.

    ``d`` is one parameter or a 1-d array of them and ``admitted`` its rule
    applied elementwise, so a family's constructor and its rows form
    (``_table``) run one check and word its error alike.
    """
    if not admitted.all():
        raise InvalidParameterError(f"{words}, got {d[~admitted][0] if np.ndim(d) else d}")


@dataclass(frozen=True)
class DiracStep(DistFn):
    """Step distribution of a deterministic distance d: 0 for t <= d, 1 after."""

    d: float

    def __post_init__(self):
        self._check(self.d)

    @staticmethod
    def _check(d) -> None:
        """The family's parameter rule, for one distance or a 1-d array of them."""
        _refuse_first(d, np.isfinite(d) & (d >= 0.0), "DiracStep distance must be finite and >= 0")

    @staticmethod
    def _cdf(t, d):
        """The family's formula, elementwise: 1 where t > d, else 0."""
        return np.where(t > d, 1.0, 0.0)

    @classmethod
    def _table(cls, d: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Row i is ``DiracStep(d[i]).eval(t)``: the constructor's check, then eval's formula, on all rows."""
        cls._check(d)
        return cls._cdf(t[None, :], d[:, None])

    def eval(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        return _as_eval_result(self._cdf(arr, self.d), arr.ndim == 0)

    def _scaled(self, c: float) -> DistFn:
        return DiracStep(c * self.d)


@dataclass(frozen=True)
class GaussianShift(DistFn):
    """Phi(t - d): a unit normal CDF translated by d (d may be any real)."""

    d: float

    def __post_init__(self):
        self._check(self.d)

    @staticmethod
    def _check(d) -> None:
        """The family's parameter rule, for one offset or a 1-d array of them."""
        _refuse_first(d, np.isfinite(d), "GaussianShift offset must be finite")

    @staticmethod
    def _cdf(t, d):
        """The family's formula, elementwise: Phi(t - d)."""
        return np.asarray(_normal_cdf(t - d))

    @classmethod
    def _table(cls, d: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Row i is ``GaussianShift(d[i]).eval(t)``: the constructor's check, then eval's formula, on all rows."""
        cls._check(d)
        return cls._cdf(t[None, :], d[:, None])

    def eval(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        return _as_eval_result(self._cdf(arr, self.d), arr.ndim == 0)


@dataclass(frozen=True)
class ScaledGaussian(DistFn):
    """delta * Phi(t) for t > 0 and 0 elsewhere; sub-distribution when delta < 1."""

    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise InvalidParameterError(f"scale must lie in (0, 1], got {self.delta}")

    def eval(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        vals = np.where(arr > 0.0, self.delta * np.asarray(_normal_cdf(arr)), 0.0)
        return _as_eval_result(vals, arr.ndim == 0)


@dataclass(frozen=True, eq=False)
class Empirical(DistFn):
    """Empirical CDF with strict counting: eval(t) = #{s_i < t} / n."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameterError("empirical samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("empirical samples must be finite")
        if arr.min() < 0.0:
            raise InvalidParameterError("empirical samples must be non-negative")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def eval(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        # side='left' counts samples strictly below t, preserving
        # left-continuity at every atom.
        counts = np.searchsorted(self.samples, arr, side="left")
        return _as_eval_result(counts / self.n, arr.ndim == 0)

    def _scaled(self, c: float) -> DistFn:
        return Empirical(self.samples * c)


@dataclass(frozen=True)
class Rescaled(DistFn):
    """Time-rescaled view of another distribution: eval(t) = base.eval(t / scale)."""

    base: DistFn
    scale: float

    def __post_init__(self):
        _check_positive("scale", self.scale)

    def eval(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        return _as_eval_result(np.asarray(self.base.eval(arr / self.scale)), arr.ndim == 0)

    def _scaled(self, c: float) -> DistFn:
        return Rescaled(self.base, self.scale * c)


def from_samples(values) -> Empirical:
    """Build the empirical distribution of observed non-negative distances."""
    return Empirical(np.asarray(values, dtype=float))


def timescale(dist: DistFn, c: float) -> DistFn:
    """Distribution of the same quantity with time measured in units of c.

    The result G satisfies G.eval(t) == dist.eval(t / c) for every t.
    Step and empirical variants rescale their support exactly; the
    Gaussian shapes are wrapped, since Phi(t/c - d) leaves the family.

    Deprecated: each call warns with :class:`DeprecationWarning`.
    ``Rescaled(dist, c)`` has the same values. This function and the
    ``_scaled`` methods behind it are removed in the next release.
    """
    warnings.warn(
        "timescale is deprecated and will be removed in the next release; use Rescaled(dist, c)",
        DeprecationWarning,
        stacklevel=2,
    )
    _check_positive("timescale factor", c)
    if c == 1.0:
        return dist
    return dist._scaled(c)


def pointwise_min(f: DistFn, g: DistFn, grid=None) -> np.ndarray:
    """Tabulate min(f(t), g(t)) over a time grid.

    Deprecated: each call warns with :class:`DeprecationWarning`, and the
    function is removed in the next release. ``np.minimum(f.eval(t),
    g.eval(t))`` gives the same values.
    """
    warnings.warn(
        "pointwise_min is deprecated and will be removed in the next release; use np.minimum(f.eval(t), g.eval(t))",
        DeprecationWarning,
        stacklevel=2,
    )
    grid = TimeGrid.coerce(grid)
    fv = np.asarray(f.eval(grid.points))
    gv = np.asarray(g.eval(grid.points))
    return np.minimum(fv, gv)


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of a pointwise >= comparison over a grid."""

    holds: bool
    worst_margin: float
    witness_t: float


def empirical_sample_count(dist: DistFn):
    """Sample count of an empirical distribution (unwrapping rescales), else None."""
    if isinstance(dist, Empirical):
        return dist.n
    if isinstance(dist, Rescaled):
        return empirical_sample_count(dist.base)
    return None


def default_comparison_tol(*dists: DistFn) -> float:
    """Comparison slack: 0 for analytic shapes, 2/sqrt(n) when empirical.

    The 2/sqrt(n) term is a two-sided binomial heuristic for the sampling
    noise of an n-sample empirical CDF; with several empirical operands the
    loosest (smallest n) wins.
    """
    tol = 0.0
    for dist in dists:
        n = empirical_sample_count(dist)
        if n is not None:
            tol = max(tol, 2.0 / np.sqrt(n))
    return tol


def _passes(margins, tol):
    """``margins >= -tol``, which a NaN fails: the package's one pass test, for a number or elementwise."""
    return margins >= -tol


def _first_worst(blocks, tol):
    """``(worst, passed, witness)``: the package's one rule for a verdict over margin blocks.

    Blocks are read in order and each block in row-major order. ``worst`` is
    the first smallest margin: ties go to the first, and a NaN counts as
    smaller than any number, so the first NaN is the worst. ``passed`` is
    :func:`_passes` of it, and ``witness`` is ``(block number, *index in
    that block's shape)`` in Python ints. Empty blocks are skipped; no
    margin at all passes with no witness. Each block is reduced before the
    next one is read, so a generator may refill one buffer per block.
    """
    worst = witness = None
    for number, block in enumerate(blocks):
        block = np.asarray(block)
        if block.size == 0:
            continue
        index = int(np.argmin(block))  # the first NaN, when there is one
        margin = float(block.flat[index])
        if worst is None or not (margin >= worst or np.isnan(worst)):
            worst, witness = margin, (number, *map(int, np.unravel_index(index, block.shape)))
    return worst, worst is None or bool(_passes(worst, tol)), witness


def dominates(f: DistFn, g: DistFn, grid=None, tol=None) -> DominanceResult:
    """Check f >= g pointwise on a grid, up to tol.

    Returns the worst margin min_t (f(t) - g(t)) and the first grid point
    attaining it (:func:`_first_worst`). ``tol=None`` uses
    :func:`default_comparison_tol`.
    """
    grid = TimeGrid.coerce(grid)
    if tol is None:
        tol = default_comparison_tol(f, g)
    _check_tol(tol)
    margins = np.asarray(f.eval(grid.points)) - np.asarray(g.eval(grid.points))
    worst, holds, (_, k) = _first_worst([margins], tol)
    return DominanceResult(holds=holds, worst_margin=worst, witness_t=float(grid.points[k]))


def to_summary(dist: DistFn) -> dict:
    """Tagged JSON-ready record describing a distribution value.

    Analytic shapes carry their parameters; empirical ones carry the sample
    count plus a five-point quantile sketch.
    """
    if isinstance(dist, DiracStep):
        return {"variant": "dirac-step", "d": float(dist.d)}
    if isinstance(dist, GaussianShift):
        return {"variant": "gaussian-shift", "d": float(dist.d)}
    if isinstance(dist, ScaledGaussian):
        return {"variant": "scaled-gaussian", "delta": float(dist.delta)}
    if isinstance(dist, Empirical):
        q = np.percentile(dist.samples, [0, 25, 50, 75, 100])
        return {
            "variant": "empirical",
            "n": dist.n,
            "quantiles": {
                "min": float(q[0]),
                "p25": float(q[1]),
                "p50": float(q[2]),
                "p75": float(q[3]),
                "max": float(q[4]),
            },
        }
    if isinstance(dist, Rescaled):
        return {"variant": "rescaled", "scale": float(dist.scale), "base": to_summary(dist.base)}
    raise InvalidParameterError(f"unknown distribution variant: {type(dist).__name__}")
