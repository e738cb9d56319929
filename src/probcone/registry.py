"""Built-in mappings, spaces and integral-equation ingredients.

Everything the CLI can name lives here, so config files stay declarative
and experiments stay reproducible. No expression parsing: a name either
resolves to a registered constructor or the config is rejected.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .cone import Cone, Orthant, cone_from_config
from .dist import DiracStep, GaussianShift, ScaledGaussian, _row_norms
from .errors import InvalidParameterError
from .contract import Mapping
from .space import PCMSpace
from .tnorm import TNorm

# ---------------------------------------------------------------------------
# Mappings
# ---------------------------------------------------------------------------

_PLANE_ONLY = "rotation-half is a plane map; expected dimension 2"


def _by_rows(rows, name: str, note: str = "") -> Mapping:
    """A built-in map written once as ``rows``; its ``fn`` maps one point as a one-row batch."""
    return Mapping(lambda u: rows(u[None])[0], name=name, note=note, rows=rows)


def rotation_half_map() -> Mapping:
    """Average a plane point with its norm-preserving quarter turn.

    T(u) = (u + (|u| / |Au|) A u) / 2 with A the 90-degree rotation; since
    the rotation preserves norms the factor is 1 and each application
    shrinks norms by exactly sqrt(2)/2. The formula is undefined at the
    origin (|Au| = 0), where T(0) = 0 is taken: the continuity limit and
    the unique fixed point.
    """

    def rows(X: np.ndarray) -> np.ndarray:
        if X.shape[1:] != (2,):
            raise InvalidParameterError(_PLANE_ONLY)
        rotated = np.column_stack([-X[:, 1], X[:, 0]])
        norm_u = _row_norms(X)
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = norm_u / _row_norms(rotated)
        out = 0.5 * (X + factor[:, None] * rotated)
        out[norm_u == 0.0] = 0.0
        return out

    return _by_rows(
        rows,
        name="rotation-half",
        note="the defining formula is undefined at the origin; T(0) = 0 is "
        "taken (continuity limit, the unique fixed point)",
    )


def scale_map(factor: float) -> Mapping:
    return _by_rows(lambda X: factor * X, name=f"scale:{factor}")


def constant_map(value) -> Mapping:
    target = np.asarray(value, dtype=float)
    return _by_rows(lambda X: np.tile(target, (len(X), 1)), name="constant")


def identity_map() -> Mapping:
    return _by_rows(lambda X: X.copy(), name="identity")


def shift_map(offset) -> Mapping:
    delta = np.asarray(offset, dtype=float)
    return _by_rows(lambda X: X + delta, name="shift")


def affine_map(matrix, offset) -> Mapping:
    mat = _float_array(matrix, "affine matrix")
    off = _float_array(offset, "affine offset")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or off.shape != (mat.shape[0],):
        raise InvalidParameterError("affine map needs a square matrix and a matching offset")
    # a stack of matrix-vector products, one per row; X @ mat.T is one
    # matrix product, whose rounding depends on the batch
    return _by_rows(lambda X: np.matmul(mat[None], X[:, :, None])[:, :, 0] + off, name="affine")


def _float(value, what: str) -> float:
    """A number, or the text of one, as a finite float."""
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{what} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise InvalidParameterError(f"{what} must be finite, got {value!r}")
    return number


def _is_number(value) -> bool:
    """True for a real number; booleans, strings and None are not numbers, as in a JSON schema."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A number field of a spec object as a finite float; the text of a number is refused."""
    if not _is_number(value):
        raise InvalidParameterError(f"{what} must be a number, got {value!r}")
    return _float(value, what)


def _numbers_only(value) -> bool:
    """True for a number or a numeric array, or lists of them nested to any depth."""
    if isinstance(value, (list, tuple)):
        return all(map(_numbers_only, value))
    return _is_number(value) or isinstance(value, np.ndarray) and value.dtype.kind in "iuf"


def _float_array(value, what: str) -> np.ndarray:
    try:
        if not _numbers_only(value):
            raise TypeError(f"{what} holds something other than a number")
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{what} must be a rectangular array of numbers, got {value!r}") from exc


def _parse_vector(text: str, dim: int) -> np.ndarray:
    parts = [_float(p, "vector component") for p in text.split(",")]
    if len(parts) == 1:
        return np.full(dim, parts[0])
    if len(parts) != dim:
        raise InvalidParameterError(f"expected {dim} components, got {len(parts)} in {text!r}")
    return np.asarray(parts)


def make_mapping(spec, dim: int) -> Mapping:
    """Resolve a mapping config (string shorthand or object) to a Mapping."""
    if isinstance(spec, dict):
        name, _ = _split_spec(spec, "mapping", {"affine": ("matrix", "offset")})
        if name == "affine":
            for key in ("matrix", "offset"):
                if key not in spec:
                    raise InvalidParameterError(f"affine mapping needs {key!r}")
            mapping = affine_map(spec["matrix"], spec["offset"])
            size = len(spec["matrix"])  # square, as affine_map checked
            if size != dim:
                raise InvalidParameterError(f"affine matrix is {size}x{size}, but the space is {dim}-dimensional")
            return mapping
        raise InvalidParameterError(f"unknown mapping object {spec!r}")
    if not isinstance(spec, str):
        raise InvalidParameterError(f"mapping spec must be a string or object, got {type(spec).__name__}")
    head, _, arg = spec.partition(":")
    if head == "identity":
        return identity_map()
    if head == "rotation-half":
        if dim != 2:
            raise InvalidParameterError("rotation-half requires a 2-dimensional space")
        return rotation_half_map()
    if head == "scale":
        return scale_map(_float(arg, "scale factor"))
    if head == "constant":
        return constant_map(_parse_vector(arg, dim))
    if head == "shift":
        return shift_map(_parse_vector(arg, dim))
    raise InvalidParameterError(f"unknown mapping {spec!r}")


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


def dirac_space(
    dim: int = 2,
    tnorm: TNorm = TNorm.MINIMUM,
    point_cone: Cone | None = None,
    sampling_box=None,
) -> PCMSpace:
    """The classical embedding: distance is a step at the Euclidean gap."""

    def distance(x, y):
        return DiracStep(float(_row_norms((x - y)[None])[0]))

    def table(X, Y, t):
        return DiracStep._table(_row_norms(X - Y), t)

    distance.table = table
    return PCMSpace(dim=dim, distance=distance, tnorm=tnorm, point_cone=point_cone, sampling_box=sampling_box)


def cone_gaussian_space(
    delta: float = 0.5,
    tnorm: TNorm = TNorm.MINIMUM,
    sampling_box=None,
) -> PCMSpace:
    """Direction-dependent Gaussian distance on the plane.

    When the difference u - v lies in the positive orthant the distance is
    a Gaussian shifted by the Euclidean gap; otherwise it collapses to the
    sub-distribution delta * Phi(t). Deliberately asymmetric and
    sub-distributional: diagnostic reports should flag both. A non-finite
    gap is refused on either side of the gate, as the Dirac space refuses it.
    """
    gate = Orthant(2)

    def distance(u, v):
        diff = u - v
        gap = float(_row_norms(diff[None])[0])
        GaussianShift._check(gap)
        if gate.contains(diff):
            return GaussianShift(gap)
        return ScaledGaussian(delta)

    def table(X, Y, t):
        diff = X - Y
        gaps = _row_norms(diff)
        GaussianShift._check(gaps)
        inside = gate._members(diff)  # the gate's own test, row by row
        out = np.empty((len(diff), t.size))
        out[inside] = GaussianShift._table(gaps[inside], t)
        out[~inside] = ScaledGaussian(delta).eval(t)
        return out

    distance.table = table
    return PCMSpace(dim=2, distance=distance, tnorm=tnorm, point_cone=None, sampling_box=sampling_box)


def make_space(config: dict) -> PCMSpace:
    """Build a space from its JSON configuration."""
    dim = int(config.get("dim", 2))
    tnorm = TNorm.from_name(config.get("tnorm", "min"))
    cone = cone_from_config(config.get("cone"))
    box = config.get("sampling_box")
    if box is not None:
        box = np.asarray(box, dtype=float)
    distance = config.get("distance", "dirac")
    if distance == "dirac":
        return dirac_space(dim=dim, tnorm=tnorm, point_cone=cone, sampling_box=box)
    if isinstance(distance, dict) and distance.get("kind") == "cone-gaussian":
        if dim != 2:
            raise InvalidParameterError("cone-gaussian distance is defined on the plane")
        if cone is not None:
            raise InvalidParameterError("cone-gaussian space does not take a point cone")
        return cone_gaussian_space(delta=float(distance.get("delta", 0.5)), tnorm=tnorm, sampling_box=box)
    raise InvalidParameterError(f"unknown distance spec {distance!r}")


# ---------------------------------------------------------------------------
# Integral-equation ingredients
# ---------------------------------------------------------------------------


def make_kernel(spec):
    """Kernel factory: 'constant' (value param) or 'exp-decay' e^{-(t-s)}."""
    name, params = _split_spec(spec, "kernel", {"constant": ("value",), "exp-decay": ()})
    if name == "constant":
        value = _number(params.get("value", 1.0), "kernel value")
        return lambda t, s, path: np.full(np.broadcast(t, s).shape, value)
    if name == "exp-decay":

        def exp_decay(t, s, path):
            # e^{-(t - s)} in one buffer, bitwise equal to np.exp(-(t - s))
            out = np.subtract(t, s)
            np.negative(out, out=out)
            np.exp(out, out=out)
            return out

        return exp_decay
    raise InvalidParameterError(f"unknown kernel {spec!r}")


def make_forcing(spec):
    """Forcing factory: 'constant' (value) or 'gaussian' (base + scale * Z per path)."""
    name, params = _split_spec(spec, "forcing", {"constant": ("value",), "gaussian": ("base", "scale")})
    if name == "constant":
        value = _number(params.get("value", 1.0), "forcing value")
        return lambda t, path, rng: np.full(t.shape, value)
    if name == "gaussian":
        base = _number(params.get("base", 1.0), "forcing base")
        scale = _number(params.get("scale", 0.1), "forcing scale")

        def forcing(t, path, rng):
            z = rng.standard_normal()
            return np.full(t.shape, base + scale * z)

        return forcing
    raise InvalidParameterError(f"unknown forcing {spec!r}")


def make_nonlinearity(spec):
    """Nonlinearity factory returning (f, lipschitz_constant).

    'zero' gives f = 0 with constant 0, 'constant' a state-independent
    value (constant 0), 'linear' gives coefficient * x with constant
    |coefficient|.
    """
    name, params = _split_spec(spec, "nonlinearity", {"zero": (), "constant": ("value",), "linear": ("coefficient",)})
    if name == "zero":
        return (lambda s, x: np.zeros(np.broadcast(s, x).shape), 0.0)
    if name == "constant":
        value = _number(params.get("value", 1.0), "nonlinearity value")
        return (lambda s, x: np.full(np.broadcast(s, x).shape, value), 0.0)
    if name == "linear":
        coef = _number(params.get("coefficient", 0.4), "nonlinearity coefficient")
        return (lambda s, x: coef * x, abs(coef))
    raise InvalidParameterError(f"unknown nonlinearity {spec!r}")


def _split_spec(spec, what: str, keys: dict):
    """(name, params) of a name or an object with a name.

    ``keys`` maps each known name to the keys its object takes besides
    "name"; any other key is refused, and an unknown name is left to the
    caller.
    """
    if isinstance(spec, str):
        return spec, {}
    if not (isinstance(spec, dict) and "name" in spec):
        raise InvalidParameterError(f"spec must be a name or an object with a name, got {spec!r}")
    name = spec["name"]
    params = {k: v for k, v in spec.items() if k != "name"}
    unknown = sorted(params.keys() - set(keys[name]), key=str) if isinstance(name, str) and name in keys else []
    if unknown:
        taken = ", ".join(repr(key) for key in ("name", *keys[name]))
        refused = ", ".join(map(repr, unknown))
        raise InvalidParameterError(f"{what} {name!r} does not take {refused} (its keys: {taken})")
    return name, params
