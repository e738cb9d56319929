"""Pointed convex cones in R^d and the partial order they induce.

Two representations are supported: the non-negative orthant and an
intersection of homogeneous halfspaces {x : a_i . x >= 0}. Membership uses
a componentwise tolerance of -1e-12 so boundary points (cones are closed)
survive floating-point drift. Generator-represented cones are deliberately
not supported; membership would require an LP and nothing here needs one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import _passes, _row_norms
from .errors import InfeasibleRegionError, InvalidParameterError, _check_count, _check_positive, _checked_points

MEMBERSHIP_TOL = 1e-12
_SAMPLING_ATTEMPT_CAP = 100_000  # candidates one rejection-sampling call may draw


class Cone:
    """Shared behaviour of the concrete cone variants.

    A variant states its constraint once, as the rows kernel ``_margins``;
    the point methods are its one-row case.
    """

    dim: int

    def _margins(self, X: np.ndarray) -> np.ndarray:
        """Row p is the smallest constraint value at X[p], for an ``(n, dim)`` float array."""
        raise NotImplementedError

    def _members(self, X: np.ndarray) -> np.ndarray:
        """Row p is whether X[p] is a member: its margin passes ``MEMBERSHIP_TOL``, which a NaN fails."""
        return _passes(self._margins(X), MEMBERSHIP_TOL)

    def membership_margin(self, x) -> float:
        """Smallest constraint value at x; non-negative means inside."""
        return float(self._margins(_checked_points(x, self.dim, "x")[None])[0])

    def contains(self, x) -> bool:
        return bool(self._members(_checked_points(x, self.dim, "x")[None])[0])

    def leq(self, x, y) -> bool:
        """Cone order: x <= y iff y - x is a member."""
        x = _checked_points(x, self.dim, "x")
        return self.contains(_checked_points(y, self.dim, "y") - x)

    def sample_member(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """Draw one member, used by the randomized axiom/normality suites."""
        raise NotImplementedError


@dataclass(frozen=True)
class Orthant(Cone):
    """The non-negative orthant {x : x_i >= 0 for all i}."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidParameterError(f"dimension must be a positive integer, got {self.dim}")

    def _margins(self, X: np.ndarray) -> np.ndarray:
        return X.min(axis=1)

    def sample_member(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return rng.uniform(0.0, scale, self.dim)


@dataclass(frozen=True, eq=False)
class Halfspaces(Cone):
    """Intersection of halfspaces {x : a_i . x >= 0} with rows a_i of ``normals``."""

    normals: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.normals, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise InvalidParameterError("normals must be a nonempty 2-d array, one row per halfspace")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameterError("normals must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "normals", arr)

    @property
    def dim(self) -> int:
        return int(self.normals.shape[1])

    def _margins(self, X: np.ndarray) -> np.ndarray:
        # a stack of matrix-vector products, one per row, as ``normals @ x``
        # computes it for one point; X @ normals.T rounds by the batch
        return np.matmul(self.normals[None], X[:, :, None])[:, :, 0].min(axis=1)

    def sample_member(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        # Rejection from the enclosing box; fine for the low dimensions
        # these diagnostics run at.
        for _ in range(_SAMPLING_ATTEMPT_CAP):
            candidate = rng.uniform(-scale, scale, self.dim)
            if self.contains(candidate):
                return candidate
        raise InfeasibleRegionError("could not sample a cone member; is the cone nondegenerate?")


@dataclass(frozen=True)
class NormalityResult:
    """Outcome of the sampled normality check ||x|| <= N ||y|| for 0 <= x <= y."""

    holds: bool
    worst_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray


def normality_check(cone: Cone, bound: float, sample_count: int, seed: int = 0) -> NormalityResult:
    """Probe the normality constant of a cone by sampling order pairs.

    Pairs with 0 <= x <= y are built as y, p members of the cone and
    x = y - p, kept only when x is itself a member. The first probe is the
    degenerate pair (y, y), whose ratio is exactly 1, so bounds below 1
    always fail. ``holds`` means every kept sample satisfied
    ||x|| <= bound * ||y||; ``worst_ratio`` is the largest observed
    ||x|| / ||y|| over samples with nonzero y.
    """
    _check_positive("normality bound", bound)
    _check_count("sample_count", sample_count)
    rng = np.random.default_rng(seed)

    worst = -np.inf
    wx = wy = np.zeros(cone.dim)
    kept = 0
    attempts = 0
    while kept < sample_count and attempts < 100 * sample_count + 1000:
        attempts += 1
        y = cone.sample_member(rng)
        if kept == 0:
            x = y.copy()  # deliberate degenerate pair: x == y
        else:
            p = cone.sample_member(rng)
            x = y - p
            if not cone.contains(x):
                continue
        nx, ny = _row_norms(np.array([x, y])).tolist()
        if ny == 0.0:
            continue
        kept += 1
        ratio = nx / ny
        if ratio > worst:
            worst = ratio
            wx, wy = x, y
    holds = worst <= bound
    return NormalityResult(holds=holds, worst_ratio=worst, witness_x=wx, witness_y=wy)


def cone_from_config(spec) -> Cone | None:
    """Build a cone from its JSON encoding; None passes through."""
    if spec is None:
        return None
    kind = spec.get("type")
    if kind == "orthant":
        if "dim" not in spec:
            raise InvalidParameterError("orthant cone needs 'dim'")
        return Orthant(int(spec["dim"]))
    if kind == "halfspaces":
        if "normals" not in spec:
            raise InvalidParameterError("halfspaces cone needs 'normals'")
        try:
            normals = np.asarray(spec["normals"], dtype=float)
        except ValueError as exc:
            raise InvalidParameterError(f"halfspaces normals must be a rectangular array: {exc}") from exc
        return Halfspaces(normals)
    raise InvalidParameterError(f"unknown cone type {kind!r}")
