"""Exception hierarchy and parameter range checks shared by every probcone module."""

from __future__ import annotations

import math

import numpy as np


class ProbconeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ProbconeError, ValueError):
    """An argument violates its contract (range, shape, emptiness)."""


class DivergenceError(ProbconeError):
    """An iteration produced non-finite values.

    Carries whatever partial state was available so callers can inspect
    how far the run got before blowing up.
    """

    def __init__(self, message: str, *, trace=None):
        super().__init__(message)
        self.trace = trace


class RateNotCertifiedError(ProbconeError):
    """The combined contraction rate is >= 1, so no geometric certificate exists."""

    def __init__(self, delta: float):
        super().__init__(f"rate not certified: combined rate delta={delta} >= 1")
        self.delta = delta


class InfeasibleRegionError(ProbconeError):
    """Rejection sampling could not find points in the feasible region."""


class ConfigError(ProbconeError, ValueError):
    """A CLI configuration file failed schema validation."""


def _check_rate(name: str, value, upper: float = 0.5) -> None:
    """Raise unless ``0 < value < upper``, where ``upper`` is 1/2 or 1."""
    if not 0.0 < value < upper:
        raise InvalidParameterError(f"{name} must lie in (0, {'1/2' if upper == 0.5 else 1}), got {value}")


def _check_positive(name: str, value) -> None:
    """Raise unless ``value`` is finite and > 0 (cheaper than ``np.isfinite`` on a float)."""
    if not 0.0 < value < math.inf:
        raise InvalidParameterError(f"{name} must be positive, got {value}")


def _check_tol(tol) -> None:
    """Raise unless the tolerance ``tol`` is finite; negative values are allowed."""
    if not -math.inf < tol < math.inf:
        raise InvalidParameterError(f"tol must be finite, got {tol}")


def _checked_points(x, dim: int, name: str, ndim: int = 1) -> np.ndarray:
    """``x`` as a float array of ``ndim`` axes, the last of length ``dim``.

    ``ndim`` 1 is one point and 2 a window of points, one per row. A ragged,
    non-numeric or misshapen ``x`` raises :class:`InvalidParameterError`
    naming ``name``, and the shape of a misshapen one.
    """
    one = ndim == 1
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise InvalidParameterError(f"{name} must be {'a numeric point' if one else 'numeric points'}: {exc}") from exc
    if x.ndim != ndim or x.shape[-1] != dim:
        want = f"dimension {dim}" if one else f"shape (n, {dim})"
        raise InvalidParameterError(f"{name} must have {want}, got shape {x.shape}")
    return x
