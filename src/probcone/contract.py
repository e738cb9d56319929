"""Contraction classifiers for self-maps of a probabilistic cone metric space.

Each checker samples point pairs, evaluates a contraction inequality on a
time grid, and returns a :class:`ContractionCertificate` with the worst
margin, the verdict and, on failure, the witnessing (x, y, t), all by the
rule of :func:`~probcone.dist._first_worst`. Four conditions ship:

* banach      -- F(Tx, Ty)(t) >= F(x, y)(t / alpha),              alpha in (0, 1)
* kannan      -- F(Tx, Ty)(t) >= min of the two self-displacement
                 distributions at t / (2 alpha),                   alpha in (0, 1/2)
* chatterjea  -- as kannan but with the two cross distributions
                 F(x, Ty), F(y, Tx),                               alpha in (0, 1/2)
* zamfirescu  -- pointwise disjunction of the three above with
                 constants (alpha, beta, gamma); the margin at each
                 (x, y, t) is the best clause margin.

The disjunction is evaluated per (x, y, t) triple, matching the quantifier
"for each x, y and t > 0, at least one of"; a per-(x, y) reading would be
stricter and is not implemented.

Each checker's ``pairs`` is an int n, which samples n pairs from ``seed``
with :func:`sample_pairs`, or the pairs themselves: an ``(n, 2, d)`` array
such as ``sample_pairs`` returns, or a sequence of ``(x, y)`` points. Their
coordinates must be finite. Certificates on the same pairs can share one
private ``_LeftSide``, which maps the pairs and evaluates F(Tx, Ty)(t) once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .dist import TimeGrid, _first_worst, default_comparison_tol
from .errors import InvalidParameterError, RateNotCertifiedError, _check_rate, _check_tol
from .space import PCMSpace, sample_points

_BLOCK = 128  # pairs per margin block: bounds the (pairs, t) temporaries


@dataclass(frozen=True)
class Mapping:
    """A deterministic self-map of R^d with a display name.

    ``note`` carries a caveat that reports about this map must surface
    (for example a convention adopted where the defining formula is
    undefined).

    ``rows``, when given, maps an ``(n, d)`` array of points to the
    ``(n, d)`` array of their images in one call. It must equal ``fn``
    applied row by row bit for bit, and raise what ``fn`` raises.
    :meth:`apply_rows` uses it and falls back to one ``fn`` call per row
    for maps without one.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    note: str = ""
    rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def apply_rows(self, X) -> np.ndarray:
        """Row p is ``self(X[p])``."""
        X = np.asarray(X, dtype=float)
        if self.rows is not None:
            return np.asarray(self.rows(X), dtype=float)
        return np.array([self(x) for x in X])


@dataclass(frozen=True, eq=False)
class ContractionCertificate:
    """Sampled-falsification verdict for one contraction condition."""

    kind: str
    params: dict
    n_pairs: int
    grid: TimeGrid
    worst_margin: float
    passed: bool
    tol: float
    witness: Optional[dict] = None
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise InvalidParameterError("a passing certificate must not carry a witness")
        if not self.passed and self.witness is None:
            raise InvalidParameterError("a failing certificate must carry a witness")


def sample_pairs(
    space: PCMSpace, mapping: Mapping, n_pairs: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample n point pairs for falsification, as an ``(n, 2, d)`` float array.

    Row p is the pair ``(x, y) = (out[p, 0], out[p, 1])``. The first two
    pairs are chosen deliberately: a diagonal pair (x, x) and a
    displacement pair (x, Tx), both of which the fixed-point arguments
    lean on. The rest are independent uniform draws.
    """
    if n_pairs < 1:
        raise InvalidParameterError(f"need at least one pair, got {n_pairs}")
    left = sample_points(space, n_pairs, rng)
    right = sample_points(space, n_pairs, rng)
    right[0] = left[0]
    if n_pairs >= 2:
        right[1] = _checked_images(mapping, left[1:2], [mapping(left[1])])[0]
    return np.stack([left, right], axis=1)


def _checked_images(mapping: Mapping, X: np.ndarray, TX) -> np.ndarray:
    """``TX``, the map's images of the rows of ``X``, once each is a finite point of X's dimension.

    The error names the map and the first point it fails at.
    """
    TX = np.asarray(TX, dtype=float)
    if TX.shape == X.shape:
        bad = ~np.isfinite(TX).all(axis=1)
        if not bad.any():
            return TX
        p = int(np.argmax(bad))
        image = f"is {TX[p].tolist()}"
    else:
        p, image = 0, f"has shape {TX.shape[1:]}"
    name = mapping.name or getattr(mapping.fn, "__name__", "map")
    raise InvalidParameterError(
        f"map {name!r} must send each point to a point of dimension {X.shape[1]} with finite coordinates; "
        f"its image of x = {X[p].tolist()} {image}"
    )


def _coerce_pairs(space, mapping, pairs, seed) -> np.ndarray:
    """The pairs as one ``(n, 2, d)`` array; an int n samples n pairs from ``seed``."""
    if isinstance(pairs, int):
        pairs = sample_pairs(space, mapping, pairs, np.random.default_rng(seed))
    try:
        stacked = np.array(pairs, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric pairs
        raise InvalidParameterError(f"pairs must be numeric (x, y) points of one dimension: {exc}") from exc
    if stacked.shape[1:] != (2, space.dim) or stacked.size == 0:
        raise InvalidParameterError(
            f"pairs must be a nonempty list of (x, y) points of dimension {space.dim}, got shape {stacked.shape}"
        )
    if not np.isfinite(stacked).all():  # None became NaN above
        raise InvalidParameterError("pairs must have finite coordinates (None, NaN and +-inf are refused)")
    return stacked


def _resolve_tol(space: PCMSpace, pairs: np.ndarray, tol) -> float:
    if tol is not None:
        _check_tol(tol)
        return float(tol)
    return default_comparison_tol(space.distance(*pairs[0]))


def _blocks(n: int):
    """Slices of ``_BLOCK`` pairs in pair order."""
    return [slice(start, start + _BLOCK) for start in range(0, n, _BLOCK)]


@dataclass(frozen=True, eq=False)
class _LeftSide:
    """The pairs, their images and the left side F(Tx, Ty)(t) of every contraction condition.

    One is built per set of pairs, grid and tolerance, and any number of
    certificates read it: ``lhs`` is the ``(n, G)`` table of F(TX, TY)(t),
    evaluated one ``_BLOCK`` of pairs at a time, exactly as a certificate's
    margin blocks read it. ``pairs`` is the coerced ``(n, 2, d)`` array, X
    and Y its two sides, TX and TY their checked images (one
    ``apply_rows`` call each) and ``tol`` the resolved tolerance.
    """

    space: PCMSpace
    mapping: Mapping
    pairs: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    TX: np.ndarray
    TY: np.ndarray
    grid: TimeGrid
    tol: float
    lhs: np.ndarray

    @classmethod
    def build(cls, space, mapping, pairs, grid=None, tol=None, seed=0) -> "_LeftSide":
        """Coerce ``pairs`` as a checker's ``pairs=`` is, map them and evaluate F(TX, TY) on the grid."""
        stacked = _coerce_pairs(space, mapping, pairs, seed)
        grid = TimeGrid.coerce(grid)
        tol = _resolve_tol(space, stacked, tol)
        X, Y = stacked[:, 0], stacked[:, 1]
        TX = _checked_images(mapping, X, mapping.apply_rows(X))
        TY = _checked_images(mapping, Y, mapping.apply_rows(Y))
        t = grid.points
        lhs = np.empty((len(X), len(t)))
        for b in _blocks(len(X)):
            lhs[b] = space.distance_values(TX[b], TY[b], t)
        return cls(space, mapping, stacked, X, Y, TX, TY, grid, tol, lhs)

    def check_for(self, space, mapping, grid, tol) -> None:
        """Raise unless this left side is the one of (space, mapping, grid, tol); None takes its own."""
        if space is not self.space or mapping is not self.mapping:
            raise InvalidParameterError("the pairs' left side was built for another space or map")
        if grid is not None and not np.array_equal(TimeGrid.coerce(grid).points, self.grid.points):
            raise InvalidParameterError("the pairs' left side was built on another time grid")
        if tol is not None and _resolve_tol(space, self.pairs, tol) != self.tol:
            raise InvalidParameterError(f"the pairs' left side was built for tol {self.tol!r}, not {tol!r}")


def _banach_bound(space, X, Y, TX, TY, t, alpha):
    return space.distance_values(X, Y, t / alpha)


def _kannan_bound(space, X, Y, TX, TY, t, alpha):
    """min(F(x, Tx), F(y, Ty)) at t / (2 alpha); Chatterjea's bound swaps Tx and Ty."""
    scaled = t / (2.0 * alpha)
    return np.minimum(space.distance_values(X, TX, scaled), space.distance_values(Y, TY, scaled))


def _chatterjea_bound(space, X, Y, TX, TY, t, alpha):
    return _kannan_bound(space, X, Y, TY, TX, t, alpha)


def _zamfirescu_bound(space, X, Y, TX, TY, t, alpha, beta, gamma):
    # F(Tx, Ty) minus the least clause bound is the best clause margin, bit
    # for bit: rounding is monotone and NaN propagates through min and max
    b1 = _banach_bound(space, X, Y, TX, TY, t, alpha)
    b2 = _kannan_bound(space, X, Y, TX, TY, t, beta)
    b3 = _chatterjea_bound(space, X, Y, TX, TY, t, gamma)
    return np.minimum(np.minimum(b1, b2), b3)


# condition -> (lower bound of its margin, (parameter, name in errors, upper end of its range) per rate)
_CONDITIONS = {
    "banach": (_banach_bound, (("alpha", "banach rate", 1.0),)),
    "kannan": (_kannan_bound, (("alpha", "kannan rate", 0.5),)),
    "chatterjea": (_chatterjea_bound, (("alpha", "chatterjea rate", 0.5),)),
    "zamfirescu": (_zamfirescu_bound, (("alpha", "alpha", 1.0), ("beta", "beta", 0.5), ("gamma", "gamma", 0.5))),
}


def _check_rates(kind: str, rates: dict) -> None:
    """Raise unless each rate the ``kind`` condition reads from ``rates`` lies in its range."""
    for key, name, upper in _CONDITIONS[kind][1]:
        _check_rate(name, rates[key], upper)


def _certify(kind, params, space, mapping, pairs, grid, tol, seed):
    """Worst margin F(Tx, Ty)(t) - bound over all pairs and grid times, with its witness.

    ``pairs`` is a checker's ``pairs=`` or a :class:`_LeftSide` built for
    this space, map, grid and tolerance, whose F(Tx, Ty)(t) it reuses.
    Margins are evaluated as (pairs, t) arrays over blocks of ``_BLOCK``
    pairs in pair order and reduced by :func:`~probcone.dist._first_worst`.
    """
    _check_rates(kind, params)
    bound = _CONDITIONS[kind][0]
    if isinstance(pairs, _LeftSide):
        left = pairs
        left.check_for(space, mapping, grid, tol)
    else:
        left = _LeftSide.build(space, mapping, pairs, grid, tol, seed)
    X, Y, TX, TY, t = left.X, left.Y, left.TX, left.TY, left.grid.points

    margins = (left.lhs[b] - bound(space, X[b], Y[b], TX[b], TY[b], t, **params) for b in _blocks(len(X)))
    worst, passed, (number, p, k) = _first_worst(margins, left.tol)
    p += number * _BLOCK
    return ContractionCertificate(
        kind=kind,
        params=dict(params),
        n_pairs=len(X),
        grid=left.grid,
        worst_margin=worst,
        passed=passed,
        tol=left.tol,
        witness=None if passed else {"x": X[p].tolist(), "y": Y[p].tolist(), "t": float(t[k])},
    )


def check_banach(space, mapping, alpha, pairs=64, grid=None, tol=None, seed=0) -> ContractionCertificate:
    """Certify F(Tx, Ty)(t) >= F(x, y)(t / alpha) over sampled pairs and a grid."""
    return _certify("banach", {"alpha": alpha}, space, mapping, pairs, grid, tol, seed)


def check_kannan(space, mapping, alpha, pairs=64, grid=None, tol=None, seed=0) -> ContractionCertificate:
    """Certify the self-displacement contraction condition at rate alpha."""
    return _certify("kannan", {"alpha": alpha}, space, mapping, pairs, grid, tol, seed)


def check_chatterjea(space, mapping, alpha, pairs=64, grid=None, tol=None, seed=0) -> ContractionCertificate:
    """Certify the cross-displacement contraction condition at rate alpha."""
    return _certify("chatterjea", {"alpha": alpha}, space, mapping, pairs, grid, tol, seed)


def check_zamfirescu(
    space, mapping, alpha, beta, gamma, pairs=64, grid=None, tol=None, seed=0
) -> ContractionCertificate:
    """Certify the hybrid condition: at each (x, y, t) at least one clause holds."""
    params = {"alpha": alpha, "beta": beta, "gamma": gamma}
    return _certify("zamfirescu", params, space, mapping, pairs, grid, tol, seed)


def zamfirescu_delta(alpha: float, beta: float, gamma: float) -> float:
    """Combined geometric rate max(alpha, 2 beta / (1 - beta), 2 gamma / (1 - gamma)).

    Raises :class:`RateNotCertifiedError` carrying the value when it reaches
    1: the stated parameter ranges allow beta or gamma >= 1/3, where the
    corresponding clause rate leaves (0, 1) and no geometric certificate
    exists.
    """
    _check_rates("zamfirescu", {"alpha": alpha, "beta": beta, "gamma": gamma})
    delta = max(alpha, 2.0 * beta / (1.0 - beta), 2.0 * gamma / (1.0 - gamma))
    if delta >= 1.0:
        raise RateNotCertifiedError(delta)
    return delta
