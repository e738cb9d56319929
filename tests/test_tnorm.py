import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from probcone import InvalidParameterError, TNorm
from probcone.tnorm import _MaxCombine

# an inf - inf or 0 * inf in a t-norm pass fails here instead of leaving a quiet NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


class TestMaxCombine:
    """``_MaxCombine`` against the max over j of one ``_combine`` per operand row."""

    @staticmethod
    def per_row_max(kind, a, b):
        return np.array([np.max([kind._combine(a[j, p], b[j]) for j in range(len(b))], axis=0) for p in range(a.shape[1])])

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_equals_per_row_max(self, kind):
        rng = np.random.default_rng(8)
        # zeros of both signs and ones; rows of 19, no multiple of the 16 that numpy buffer sizes step by
        a = rng.choice([0.0, -0.0, 1.0, 0.25, 0.7, 0.999], size=(5, 4))
        b = rng.choice([0.0, -0.0, 1.0, 0.5, 0.3, 1e-300], size=(5, 19))
        a[:, 0] = rng.uniform(0.0, 1.0, 5)
        b[0] = rng.uniform(0.0, 1.0, 19)
        out = _MaxCombine(kind, b)(a, np.empty((4, 19)))
        expected = self.per_row_max(kind, a, b)
        # equal as numbers: only the sign of a zero may differ
        assert np.array_equal(out, expected)
        assert np.all(out >= 0.0)

    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 40),
        st.sampled_from(list(TNorm)),
        st.integers(0, 2**16),
    )
    def test_random_tables(self, n, p, m, kind, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.0, 1.0, (n, p)), rng.uniform(0.0, 1.0, (n, m))
        assert np.array_equal(_MaxCombine(kind, b)(a, np.empty((p, m))), self.per_row_max(kind, a, b))

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 40),
        st.sampled_from(list(TNorm)),
        st.integers(0, 2**16),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @example(6, 6, 19, TNorm.LUKASIEWICZ, 0, 0.0, 0.0, 0.0)  # every operand row and column equal
    @example(6, 6, 19, TNorm.PRODUCT, 0, 1.0, 1.0, 1.0)  # every operand row and column distinct
    def test_repeated_operands(self, n, p, m, kind, seed, row_share, column_share, fresh):
        rng = np.random.default_rng(seed)

        def draw(shape):
            # 0.0, -0.0, 1.0 and delta = 0.5 repeat; each entry is uniform instead with probability ``fresh``
            values = rng.choice([0.0, -0.0, 1.0, 0.5], size=shape)
            uniform = rng.uniform(0.0, 1.0, shape) < fresh
            values[uniform] = rng.uniform(0.0, 1.0, uniform.sum())
            return values

        # the shares set how many distinct operand rows and columns there are;
        # every distinct row appears, in shuffled order, and equal columns run together
        rows, columns = 1 + round(row_share * (n - 1)), 1 + round(column_share * (p - 1))
        a = draw((rows, columns))[rng.permutation(np.arange(n) % rows)][:, np.arange(p) * columns // p]
        b = draw((n, m))
        assert np.array_equal(_MaxCombine(kind, b)(a, np.empty((p, m))), self.per_row_max(kind, a, b))

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_one_pass_per_run_of_equal_columns(self, kind):
        # rows 0 and 2 are equal, and the columns run as [0, 1], [2, 3, 4], [5]
        a = np.array([[0.5, 0.5, 1.0, 1.0, 1.0, 0.5], [0.2, 0.2, 1.0, 1.0, 1.0, 0.2], [0.5, 0.5, 1.0, 1.0, 1.0, 0.5]])
        b = np.random.default_rng(3).uniform(0.0, 1.0, (3, 40))
        combine = _MaxCombine(kind, b)
        calls, ufunc = [], combine._ufunc

        def counting(x, table, out):
            calls.append(table)
            return ufunc(x, table, out=out)

        combine._ufunc = counting
        assert np.array_equal(combine(a, np.empty((6, 40))), self.per_row_max(kind, a, b))
        assert [table.shape for table in calls] == [(2, 40)] * 3
        # with no repeated operand row there is still one pass per run of columns
        calls.clear()
        a[2] = 0.7
        assert np.array_equal(combine(a, np.empty((6, 40))), self.per_row_max(kind, a, b))
        assert [table.shape for table in calls] == [(3, 40)] * 3

    def test_buffer_size_restored_in_each_thread(self):
        before = np.getbufsize()
        b = np.full((3, 40), 0.5)
        _MaxCombine(TNorm.PRODUCT, b)(np.full((3, 2), 0.5), np.empty((2, 40)))
        assert np.getbufsize() == before
        seen = []

        def worker():
            seen.append(np.getbufsize())
            _MaxCombine(TNorm.MINIMUM, b)(np.full((3, 2), 0.5), np.empty((2, 40)))
            seen.append(np.getbufsize())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [seen[0], seen[0]]
        assert np.getbufsize() == before
