"""Triangular norms: the aggregators of the probabilistic triangle inequality.

Three classical continuous t-norms are supported. All are commutative,
associative, monotone in each argument, and have identity 1; they are
pointwise ordered LUKASIEWICZ <= PRODUCT <= MINIMUM.
"""

from __future__ import annotations

import enum
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import InvalidParameterError


def _check_unit(value, name: str):
    """``value`` as a float array once every entry is finite and in [0, 1].

    The error quotes a scalar whole; for an array it names the shape and
    the index and value of the first bad entry in row-major order.
    """
    arr = np.asarray(value, dtype=float)
    if arr.size == 0:
        return arr
    if not np.all(np.isfinite(arr)):
        rule, bad = "be finite", ~np.isfinite(arr)
    elif arr.min() < 0.0 or arr.max() > 1.0:
        rule, bad = "lie in [0, 1]", (arr < 0.0) | (arr > 1.0)
    else:
        return arr
    if arr.ndim == 0:
        raise InvalidParameterError(f"{name} must {rule}, got {value!r}")
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    raise InvalidParameterError(
        f"{name} must {rule}; entry {index} of the {arr.shape} array is {float(arr[index])!r}"
    )


class TNorm(enum.Enum):
    """A named continuous t-norm on [0, 1]."""

    MINIMUM = "min"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"

    def apply(self, a, b):
        """Combine two values (scalars or same-shape arrays) in [0, 1].

        MINIMUM is min(a, b), PRODUCT is a*b, and LUKASIEWICZ is
        max(a + b - 1, 0).
        """
        out = self._combine(_check_unit(a, "a"), _check_unit(b, "b"))
        if np.ndim(out) == 0:
            return float(out)
        return out

    def _combine(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        """``apply`` without validation, for operands already checked by the caller.

        ``a`` and ``b`` broadcast against each other; ``out``, when given,
        receives the result, which is otherwise freshly allocated.
        """
        if self is TNorm.MINIMUM:
            return np.minimum(a, b, out=out)
        if self is TNorm.PRODUCT:
            return np.multiply(a, b, out=out)
        # a - (1 - b) rather than a + b - 1: same value, but the identity
        # law apply(a, 1) == a then holds exactly in floats.
        return np.maximum(np.subtract(a, 1.0 - b, out=out), 0.0, out=out)

    def fold(self, values: Iterable[float]) -> float:
        """Left-fold of ``apply`` over an ordered sequence; empty input gives 1.

        The fold order is fixed (left to right) so results are bitwise
        reproducible; by associativity the choice is semantically neutral.
        """
        checked = [_check_unit(v, f"values[{i}]") for i, v in enumerate(values)]
        return float(reduce(self._combine, checked, 1.0))

    @classmethod
    def from_name(cls, name: str) -> "TNorm":
        """Look up a t-norm by its config name: 'min', 'product' or 'lukasiewicz'."""
        for member in cls:
            if member.value == name:
                return member
        raise InvalidParameterError(
            f"unknown t-norm {name!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


def _bit_keys(x: np.ndarray) -> list:
    """One ``bytes`` per row of the 2-D array ``x``; two are equal exactly when their rows are bitwise equal."""
    x = np.ascontiguousarray(x)
    return x.view(f"V{x.itemsize * x.shape[1]}").ravel().tolist()


class _MaxCombine:
    """``out[p] = max_j T(a[j, p], b[j])`` for an (n, m) operand table ``b`` checked by the caller.

    Each t-norm is monotone in each argument (Schweizer and Sklar,
    *Probabilistic Metric Spaces*, 1983), and so is rounding, so rows j
    with one operand row v give max_j T(v, b_j) = T(v, max_j b_j) bit for
    bit. A call folds each group of rows j with bitwise-equal ``a[j]`` into
    one table row, the max of their ``b`` (for LUKASIEWICZ, whose unclamped
    term is a - (1 - b), the min of their ``1 - b``). It then runs one
    t-norm pass and one ``np.maximum.reduce`` over the groups per run of
    bitwise-equal columns of ``a`` and copies the run's first row of
    ``out`` to the rest. For LUKASIEWICZ max_j max(x_j, 0) =
    max(max_j x_j, 0), so the clamp at 0 runs once per call, over all of
    ``out``. Only the sign of a zero may differ from the per-j maxima of
    ``_combine``. An instance is read-only, so threads may share one. A
    call with r distinct operand rows holds the folded (r, m) table and an
    (r, m) scratch, at most 2n rows.

    The t-norm pass broadcasts a column of ``a`` along each table row. With
    numpy's default 8192-element ufunc buffer the iterator groups several
    rows per buffer and copies the broadcast column into it, so the buffer
    is capped at one table row while the loop runs (0.77 against 1.29 ms
    for a (24, 1200) table and 50 columns, PRODUCT, numpy 2.4 on x86_64).
    The buffer size is a per-thread setting, restored on return.
    """

    def __init__(self, tnorm: TNorm, b: np.ndarray):
        if tnorm is TNorm.LUKASIEWICZ:
            # a - (1 - b), the unclamped _combine
            self._ufunc, self._table, self._fold, self._clamp = np.subtract, 1.0 - b, np.minimum, True
        else:
            self._ufunc = np.minimum if tnorm is TNorm.MINIMUM else np.multiply
            self._table, self._fold, self._clamp = b, np.maximum, False

    def __call__(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill the (P, m) array ``out`` from the (n, P) operands ``a`` and return it."""
        groups = {}
        for j, key in enumerate(_bit_keys(a)):
            groups.setdefault(key, []).append(j)
        table = np.empty((len(groups), self._table.shape[1]))
        for folded, (first, *rest) in zip(table, groups.values()):
            folded[:] = self._table[first]
            for j in rest:
                self._fold(folded, self._table[j], out=folded)
        a = a[[first for first, *_ in groups.values()]]
        columns = _bit_keys(a.T)
        scratch = np.empty(table.shape)
        row = table.shape[1]
        # numpy takes a buffer size that is a positive multiple of 16
        bufsize = np.setbufsize(min(max(row - row % 16, 16), np.getbufsize()))
        try:
            for p, column in enumerate(columns):
                if p and column == columns[p - 1]:
                    out[p] = out[p - 1]
                    continue
                self._ufunc(a[:, p, None], table, out=scratch)
                np.maximum.reduce(scratch, axis=0, out=out[p])
        finally:
            np.setbufsize(bufsize)
        if self._clamp:
            np.maximum(out, 0.0, out=out)
        return out
