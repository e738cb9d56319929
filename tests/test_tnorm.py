import numpy as np
import pytest
from hypothesis import given, strategies as st

from probcone import InvalidParameterError, TNorm

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_apply_examples():
    assert TNorm.PRODUCT.apply(0.5, 0.5) == 0.25
    assert TNorm.MINIMUM.apply(0.3, 0.7) == 0.3
    assert TNorm.LUKASIEWICZ.apply(0.6, 0.5) == pytest.approx(0.1, abs=1e-15)


def test_fold_examples():
    assert TNorm.PRODUCT.fold([0.5, 0.5, 0.5]) == 0.125
    assert TNorm.MINIMUM.fold([]) == 1.0
    assert TNorm.PRODUCT.fold([]) == 1.0
    assert TNorm.LUKASIEWICZ.fold([]) == 1.0
    assert TNorm.MINIMUM.fold([0.9, 0.2, 0.7]) == 0.2


def test_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        TNorm.PRODUCT.apply(1.2, 0.5)
    with pytest.raises(InvalidParameterError):
        TNorm.MINIMUM.apply(0.5, -0.1)
    with pytest.raises(InvalidParameterError):
        TNorm.LUKASIEWICZ.fold([0.5, 2.0])
    with pytest.raises(InvalidParameterError):
        TNorm.PRODUCT.apply(float("nan"), 0.5)


def test_scalar_errors_quote_the_value():
    with pytest.raises(InvalidParameterError, match=r"^a must lie in \[0, 1\], got 1\.5$"):
        TNorm.PRODUCT.apply(1.5, 0.5)
    with pytest.raises(InvalidParameterError, match=r"^b must be finite, got nan$"):
        TNorm.PRODUCT.apply(0.5, float("nan"))


def test_array_errors_name_the_first_bad_entry():
    values = np.full((24, 50), 0.5)
    values[5, 1] = values[3, 7] = np.nan
    with pytest.raises(InvalidParameterError) as info:
        TNorm.MINIMUM.apply(values, 0.5)
    assert str(info.value) == "a must be finite; entry (3, 7) of the (24, 50) array is nan"
    values = np.full(4, 0.5)
    values[2], values[3] = 1.5, -0.25
    with pytest.raises(InvalidParameterError) as info:
        TNorm.MINIMUM.apply(0.5, values)
    assert str(info.value) == "b must lie in [0, 1]; entry (2,) of the (4,) array is 1.5"


def test_from_name():
    assert TNorm.from_name("min") is TNorm.MINIMUM
    assert TNorm.from_name("product") is TNorm.PRODUCT
    assert TNorm.from_name("lukasiewicz") is TNorm.LUKASIEWICZ
    with pytest.raises(InvalidParameterError):
        TNorm.from_name("bogus")


def test_axiom_suite_random_triples():
    rng = np.random.default_rng(2024)
    a, b, c = rng.uniform(0.0, 1.0, (3, 10_000))
    for kind in TNorm:
        ab = kind.apply(a, b)
        assert np.all((ab >= 0.0) & (ab <= 1.0))
        # commutativity and associativity
        assert np.max(np.abs(ab - kind.apply(b, a))) <= 1e-15
        assert np.max(np.abs(kind.apply(ab, c) - kind.apply(a, kind.apply(b, c)))) <= 1e-15
        # monotonicity: apply(min(a, a'), b) <= apply(max(a, a'), b)
        lo, hi = np.minimum(a, c), np.maximum(a, c)
        assert np.all(kind.apply(lo, b) <= kind.apply(hi, b))
        # boundary behaviour
        assert np.all(kind.apply(a, np.ones_like(a)) == a)
        assert np.all(kind.apply(a, np.zeros_like(a)) == 0.0)


def test_ordering_between_kinds():
    rng = np.random.default_rng(77)
    a, b = rng.uniform(0.0, 1.0, (2, 10_000))
    luk = TNorm.LUKASIEWICZ.apply(a, b)
    prod = TNorm.PRODUCT.apply(a, b)
    mini = TNorm.MINIMUM.apply(a, b)
    assert np.all(luk <= prod + 1e-15)
    assert np.all(prod <= mini + 1e-15)


def test_fold_parenthesization_invariance():
    rng = np.random.default_rng(5)
    for kind in TNorm:
        for _ in range(50):
            values = rng.uniform(0.0, 1.0, rng.integers(1, 12)).tolist()
            left = kind.fold(values)
            right = 1.0
            for v in reversed(values):
                right = kind.apply(v, right)
            assert left == pytest.approx(right, abs=1e-12)


def test_uniform_continuity_on_fine_grid():
    # continuity proxy: small input steps never move the output much
    grid = np.linspace(0.0, 1.0, 401)
    step = grid[1] - grid[0]
    for kind in TNorm:
        a, b = np.meshgrid(grid, grid)
        vals = kind.apply(a, b)
        assert np.max(np.abs(np.diff(vals, axis=0))) <= 2 * step + 1e-12
        assert np.max(np.abs(np.diff(vals, axis=1))) <= 2 * step + 1e-12


@given(UNIT, UNIT)
def test_apply_stays_in_unit_interval(a, b):
    for kind in TNorm:
        out = kind.apply(a, b)
        assert 0.0 <= out <= 1.0


@given(UNIT)
def test_one_is_identity(a):
    for kind in TNorm:
        assert kind.apply(a, 1.0) == a
