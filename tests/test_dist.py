import importlib.machinery
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

from probcone import (
    DiracStep,
    DistFn,
    Empirical,
    GaussianShift,
    InvalidParameterError,
    Rescaled,
    ScaledGaussian,
    TimeGrid,
    dominates,
    from_samples,
    pointwise_min,
    timescale,
)
from probcone.dist import _first_worst, _normal_cdf, _row_norms

SRC = Path(__file__).resolve().parent.parent / "src"

# frozen from the analytic oracle: 0.5 * Phi(3)
HALF_PHI_3 = 0.49932505098418495
# frozen from the folded-normal CDF 2 Phi(t) - 1
FOLDED_AT_1 = 0.6826894921370859


def variants():
    return [
        DiracStep(1.5),
        GaussianShift(0.7),
        GaussianShift(-0.3),
        ScaledGaussian(0.5),
        ScaledGaussian(1.0),
        Empirical(np.array([0.2, 0.2, 1.0, 3.5])),
        Rescaled(GaussianShift(1.0), 2.0),
    ]


class TestEval:
    def test_dirac_step(self):
        f = DiracStep(2.0)
        assert f.eval(2.0) == 0.0  # left-continuous at the jump
        assert f.eval(2.5) == 1.0
        assert f.eval(-1.0) == 0.0

    def test_gaussian_shift_symmetry(self):
        assert GaussianShift(0.0).eval(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_empirical_strict_count(self):
        f = from_samples([1.0, 2.0, 3.0])
        assert f.eval(2.0) == pytest.approx(1 / 3)
        assert f.eval(2.0 + 1e-9) == pytest.approx(2 / 3)

    def test_vectorized_matches_scalar(self):
        grid = np.geomspace(1e-3, 10, 64)
        for f in variants():
            vec = np.asarray(f.eval(grid))
            scal = np.array([f.eval(float(t)) for t in grid])
            assert np.array_equal(vec, scal)

    def test_phi_accuracy(self):
        # the normal CDF routine must be good to 1e-12 absolute
        xs = np.array([-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0])
        from math import erfc, sqrt

        reference = np.array([0.5 * erfc(-x / sqrt(2.0)) for x in xs])
        assert np.max(np.abs(ndtr(xs) - reference)) < 1e-14


# the special cases for Phi, as source, so a fresh interpreter runs the same ones
PHI_CASES = """[
    0.3,
    np.float64(-1.25),
    np.array(2.5),
    np.array([[-8.0, -0.0, 0.0], [1e-3, 6.0, 40.0]]),
    np.array([np.inf, -np.inf, np.nan, 0.0, -0.0]),
    np.inf,
    -np.inf,
    np.nan,
    0.0,
    -0.0,
]"""

# Evaluates Phi on PHI_CASES and a fine grid before anything imports
# scipy.special, then compares with scipy.special.ndtr; {setup} runs first.
FRESH_PHI = """
import json, sys
import numpy as np
from probcone import dist
{setup}
cases = {cases} + [np.linspace(-40.0, 40.0, 100001)]
got = [dist._normal_cdf(x) for x in cases]
special_loaded = "scipy.special" in sys.modules
from scipy.special import ndtr
want = [ndtr(x) for x in cases]
mismatched = [
    i for i, (g, w) in enumerate(zip(got, want))
    if type(g) is not type(w)
    or np.asarray(g).dtype != np.asarray(w).dtype
    or np.shape(g) != np.shape(w)
    or np.asarray(g).tobytes() != np.asarray(w).tobytes()
]
print(json.dumps({{"special_loaded": special_loaded, "same_ufunc": dist._ndtr is ndtr, "mismatched": mismatched}}))
"""


def fresh_phi(setup: str = "", *args: str) -> dict:
    """Runs FRESH_PHI in a new interpreter, which has never imported scipy.special."""
    code = FRESH_PHI.format(setup=setup, cases=PHI_CASES)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


class TestNormalCdfAccessor:
    """Phi is scipy's ``ndtr``, bit for bit, on both ways of loading it."""

    @pytest.mark.parametrize(
        "x", eval(PHI_CASES), ids=["float", "float64", "0-d", "2-d", "specials", "inf", "-inf", "nan", "+0", "-0"]
    )
    def test_matches_ndtr_bitwise(self, x):
        got, want = _normal_cdf(x), ndtr(x)
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_extension_load_skips_scipy_special_and_matches_ndtr(self):
        # this test process imported scipy.special above, so only a fresh one
        # can tell the direct load from the package import
        assert fresh_phi() == {"special_loaded": False, "same_ufunc": True, "mismatched": []}

    @pytest.mark.parametrize("broken", [False, True], ids=["no-extension", "unloadable-extension"])
    def test_fallback_imports_scipy_special_and_matches_ndtr(self, tmp_path, broken):
        if broken:
            (tmp_path / f"_special_ufuncs{importlib.machinery.EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
        setup = "dist._scipy_special_dir = lambda: sys.argv[1]"
        assert fresh_phi(setup, str(tmp_path)) == {"special_loaded": True, "same_ufunc": True, "mismatched": []}


_NORM_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, -2.5
]


class TestRowNorms:
    """The package's one Euclidean norm: a row's norm does not depend on its batch."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_row_alone_equals_its_row_of_the_batch(self, dim):
        rng = np.random.default_rng(dim)
        rows = np.concatenate(
            [
                rng.choice(_NORM_SPECIALS, (400, dim)),
                rng.standard_normal((400, dim)) * 10.0 ** rng.integers(-300, 300, (400, 1)),
            ]
        )
        batch = _row_norms(rows)
        alone = np.array([_row_norms(row[None])[0] for row in rows])
        assert batch.shape == (len(rows),)
        assert batch.tobytes() == alone.tobytes()

    def test_one_dimension_is_the_absolute_value(self):
        x = np.array(_NORM_SPECIALS)
        # by repr, which tells -0.0 from 0.0 and matches NaN with NaN
        assert [repr(v) for v in _row_norms(x[:, None]).tolist()] == [repr(abs(v)) for v in x.tolist()]

    def test_huge_finite_rows_do_not_overflow(self):
        big = 2.0**900
        assert _row_norms(np.array([[1e300, -1e300], [3 * big, 4 * big]])).tolist() == [1.4142135623730952e300, 5 * big]


class TestFirstWorst:
    """The package's one verdict rule: first smallest margin, NaN first, pass iff worst >= -tol."""

    @pytest.mark.parametrize("shape", [(7,), (4, 5), (3, 4, 5)])
    def test_witness_is_the_unravelled_first_minimum(self, shape):
        rng = np.random.default_rng(len(shape))
        block = rng.integers(-3, 3, shape).astype(float)  # few values, so the minimum ties
        first = int(np.flatnonzero(block.ravel() == block.min())[0])
        # a larger block ahead of it is read first but holds no worse margin
        worst, passed, witness = _first_worst([np.full((2, 2), 5.0), block], 0.0)
        assert worst == block.min() and not passed
        assert witness == (1, *np.unravel_index(first, shape))
        assert all(type(v) is int for v in witness)

    def test_no_margin_at_all_passes_without_a_witness(self):
        assert _first_worst([], 0.0) == (None, True, None)
        assert _first_worst([np.empty(0), np.empty((2, 0))], -1.0) == (None, True, None)

    def test_empty_blocks_are_skipped_but_keep_their_numbers(self):
        assert _first_worst([np.empty(0), [3.0, 1.0], []], 0.0) == (1.0, True, (1, 1))

    def test_generator_may_refill_one_buffer(self):
        def refills():
            buffer = np.empty((2, 3))
            for fill in (4.0, -2.0, 0.0):
                buffer[...] = 1.0
                buffer[1, 2] = fill
                yield buffer

        assert _first_worst(refills(), 1.0) == (-2.0, False, (1, 1, 2))

    def test_first_nan_across_blocks_is_the_worst_and_fails_any_tol(self):
        blocks = [[1.0, -9.0], [0.0, np.nan, np.nan], [np.nan, -5.0]]
        worst, passed, witness = _first_worst(blocks, np.inf)
        assert np.isnan(worst) and not passed and witness == (1, 1)

    def test_ties_go_to_the_first(self):
        assert _first_worst([[3.0, -1.0, -1.0], [-1.0]], 0.0) == (-1.0, False, (0, 1))

    @pytest.mark.parametrize("zeros", [[-0.0, 0.0], [0.0, -0.0]])
    def test_signed_zeros_tie_so_the_first_keeps_its_sign(self, zeros):
        # repr tells -0.0 from 0.0, and the sign of a zero reaches the report bytes
        for blocks in ([zeros], [[zeros[0]], [zeros[1]]]):
            worst, passed, _ = _first_worst(blocks, 0.0)
            assert repr(worst) == repr(zeros[0]) and passed

    def test_a_margin_of_exactly_minus_tol_passes(self):
        assert _first_worst([[0.5, -0.25]], 0.25) == (-0.25, True, (0, 1))
        assert _first_worst([[0.5, -0.25]], 0.125) == (-0.25, False, (0, 1))
        assert _first_worst([[1.0]], -1.0) == (1.0, True, (0, 0))
        assert _first_worst([[1.0]], -2.0) == (1.0, False, (0, 0))


class TestConstruction:
    def test_rejects_negative_step(self):
        with pytest.raises(InvalidParameterError):
            DiracStep(-0.5)

    def test_rejects_bad_scale(self):
        with pytest.raises(InvalidParameterError):
            ScaledGaussian(0.0)
        with pytest.raises(InvalidParameterError):
            ScaledGaussian(1.5)

    def test_from_samples_validation(self):
        with pytest.raises(InvalidParameterError):
            from_samples([])
        with pytest.raises(InvalidParameterError):
            from_samples([1.0, float("inf")])
        with pytest.raises(InvalidParameterError):
            from_samples([1.0, -0.1])

    def test_from_samples_sorts(self):
        f = from_samples([3.0, 1.0, 2.0])
        assert np.array_equal(f.samples, [1.0, 2.0, 3.0])

    def test_all_mass_at_zero(self):
        f = from_samples([0.0, 0.0, 0.0])
        assert f.eval(1e-12) == 1.0
        assert f.eval(0.0) == 0.0


class TestIsProper:
    def test_flags(self):
        assert DiracStep(1.0).is_proper
        assert GaussianShift(2.0).is_proper
        assert ScaledGaussian(1.0).is_proper
        assert not ScaledGaussian(0.5).is_proper
        assert from_samples([1.0]).is_proper
        assert not Rescaled(ScaledGaussian(0.25), 3.0).is_proper

    @pytest.mark.parametrize(
        "dist",
        [
            base
            for plain in (
                DiracStep(1.5),
                GaussianShift(0.7),
                ScaledGaussian(0.5),
                ScaledGaussian(1.0),
                Empirical(np.array([0.2, 0.2, 1.0, 3.5])),
            )
            for base in (plain, Rescaled(plain, 2.5))
        ],
        ids=repr,
    )
    def test_proper_iff_one_at_infinity(self, dist):
        # check_axioms reads properness as F(+inf) == 1 through distance_values
        assert dist.is_proper == (dist.eval(np.inf) == 1.0)
        assert dist.eval(np.array([np.inf]))[0] == dist.eval(np.inf)


def warned_once(fn, *args):
    """``fn(*args)``, checked to warn one DeprecationWarning and nothing else."""
    with pytest.warns(DeprecationWarning) as record:
        out = fn(*args)
    assert [w.category for w in record] == [DeprecationWarning]
    return out


class TestTimescale:
    def test_dirac_maps_to_dirac(self):
        g = warned_once(timescale, DiracStep(1.0), 0.5)
        assert isinstance(g, DiracStep)
        assert g.d == 0.5
        assert g.eval(0.6) == 1.0  # 0.6 / 0.5 = 1.2 > 1

    def test_identity_factor(self):
        for f in variants():
            g = warned_once(timescale, f, 1.0)
            grid = np.geomspace(1e-3, 50, 40)
            assert np.array_equal(np.asarray(g.eval(grid)), np.asarray(f.eval(grid)))

    def test_gaussian_shift_semantics(self):
        g = warned_once(timescale, GaussianShift(1.0), 2.0)
        assert g.eval(2.0) == pytest.approx(0.5, abs=1e-15)  # Phi(2/2 - 1) = Phi(0)

    def test_empirical_rescales_exactly(self):
        f = from_samples([1.0, 2.0])
        g = warned_once(timescale, f, 3.0)
        assert isinstance(g, Empirical)
        assert np.array_equal(g.samples, [3.0, 6.0])

    def test_composition(self):
        rng = np.random.default_rng(8)
        grid = np.sort(rng.uniform(1e-3, 40.0, 200))
        for f in variants():
            for a, b in [(0.5, 3.0), (2.0, 2.0), (0.1, 0.7)]:
                lhs = np.asarray(warned_once(timescale, warned_once(timescale, f, a), b).eval(grid))
                rhs = np.asarray(warned_once(timescale, f, a * b).eval(grid))
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_nonpositive_factor(self):
        for c in (0.0, -2.0):
            # the warning comes before the refusal
            with pytest.warns(DeprecationWarning) as record, pytest.raises(InvalidParameterError):
                timescale(DiracStep(1.0), c)
            assert [w.category for w in record] == [DeprecationWarning]


class TestPointwiseMin:
    def test_two_steps(self):
        vals = warned_once(pointwise_min, DiracStep(1.0), DiracStep(2.0), TimeGrid(np.array([0.5, 1.5, 2.5])))
        assert np.array_equal(vals, [0.0, 0.0, 1.0])

    def test_idempotent(self):
        f = GaussianShift(0.3)
        grid = TimeGrid(np.geomspace(1e-2, 10, 30))
        assert np.array_equal(warned_once(pointwise_min, f, f, grid), np.asarray(f.eval(grid.points)))

    def test_gaussian_vs_scaled(self):
        vals = warned_once(pointwise_min, GaussianShift(0.0), ScaledGaussian(0.5), TimeGrid(np.array([3.0])))
        assert vals[0] == pytest.approx(HALF_PHI_3, abs=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.warns(DeprecationWarning) as record, pytest.raises(InvalidParameterError):
            pointwise_min(DiracStep(1.0), DiracStep(2.0), np.array([]))
        assert [w.category for w in record] == [DeprecationWarning]


class TestDominates:
    def test_smaller_step_dominates(self):
        res = dominates(DiracStep(1.0), DiracStep(2.0))
        assert res.holds
        assert res.worst_margin >= 0.0

    def test_reflexive(self):
        for f in variants():
            res = dominates(f, f)
            assert res.holds
            assert res.worst_margin == 0.0

    def test_failure_with_witness(self):
        res = dominates(DiracStep(2.0), DiracStep(1.0), grid=np.array([0.5, 1.5, 2.5]))
        assert not res.holds
        assert res.worst_margin == -1.0
        assert res.witness_t == 1.5

    def test_nan_margin_fails_at_the_first_nan(self):
        class NanAfterTwo(DistFn):
            def eval(self, t):
                return np.where(np.asarray(t, dtype=float) > 2.0, np.nan, 1.0)

        res = dominates(NanAfterTwo(), DiracStep(0.5), grid=np.array([1.0, 2.5, 3.0]))
        assert not res.holds
        assert np.isnan(res.worst_margin)
        assert res.witness_t == 2.5

    def test_antisymmetry_up_to_tol(self):
        grid = TimeGrid.default()
        f, g = GaussianShift(0.2), GaussianShift(0.4)
        assert dominates(f, g, grid).holds
        assert not dominates(g, f, grid, tol=0.0).holds
        # mutual dominance at tol 0 forces pointwise equality on the grid
        for a in variants():
            for b in variants():
                fwd = dominates(a, b, grid, tol=0.0)
                rev = dominates(b, a, grid, tol=0.0)
                if fwd.holds and rev.holds:
                    va = np.asarray(a.eval(grid.points))
                    vb = np.asarray(b.eval(grid.points))
                    assert np.max(np.abs(va - vb)) == 0.0

    def test_default_tol_for_empirical(self):
        f = from_samples(np.linspace(0.0, 1.0, 100))
        res = dominates(f, f)
        assert res.holds  # tol = 2 / sqrt(100) applies, margin 0 anyway


class TestMonotonicity:
    def test_random_pairs_all_variants(self):
        rng = np.random.default_rng(99)
        for f in variants():
            t1 = rng.uniform(-5.0, 50.0, 10_000)
            t2 = t1 + rng.uniform(0.0, 10.0, 10_000)
            assert np.all(np.asarray(f.eval(t1)) <= np.asarray(f.eval(t2)) + 1e-15)


class TestLeftContinuity:
    def test_empirical_atoms_exact(self):
        rng = np.random.default_rng(12)
        samples = rng.uniform(0.0, 5.0, 200)
        samples[:50] = samples[50:100]  # force ties
        f = from_samples(samples)
        for s in f.samples:
            strictly_below = int(np.sum(f.samples < s))
            assert f.eval(float(s)) == strictly_below / f.n

    def test_scaled_gaussian_jump_at_zero(self):
        f = ScaledGaussian(0.5)
        assert f.eval(0.0) == 0.0
        assert f.eval(1e-12) == pytest.approx(0.25, abs=1e-6)


class TestMonteCarloAgainstFoldedNormal:
    def test_folded_normal_cdf(self):
        rng = np.random.default_rng(31415)
        f = from_samples(np.abs(rng.standard_normal(10_000)))
        assert f.eval(1.0) == pytest.approx(FOLDED_AT_1, abs=0.02)


class TestSummary:
    def test_tagged_records(self):
        from probcone.dist import to_summary

        assert to_summary(DiracStep(2.0)) == {"variant": "dirac-step", "d": 2.0}
        assert to_summary(ScaledGaussian(0.5)) == {"variant": "scaled-gaussian", "delta": 0.5}
        emp = to_summary(from_samples([0.0, 1.0, 2.0, 3.0, 4.0]))
        assert emp["variant"] == "empirical"
        assert emp["n"] == 5
        assert emp["quantiles"] == {"min": 0.0, "p25": 1.0, "p50": 2.0, "p75": 3.0, "max": 4.0}
        nested = to_summary(warned_once(timescale, GaussianShift(1.0), 2.0))
        assert nested["variant"] == "rescaled"
        assert nested["base"]["variant"] == "gaussian-shift"


class TestTimeGrid:
    def test_default_shape(self):
        grid = TimeGrid.default()
        assert len(grid) == 50
        assert grid.points[0] == pytest.approx(1e-3)
        assert grid.points[-1] == pytest.approx(1e2)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([]))
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            TimeGrid(np.array([2.0, 1.0]))


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_eval_always_in_unit_interval(t):
    for f in variants():
        v = f.eval(t)
        assert 0.0 <= v <= 1.0
