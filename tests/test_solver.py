import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probcone import (
    DiracStep,
    GaussianShift,
    DivergenceError,
    Ensemble,
    InvalidParameterError,
    IterationTrace,
    Orthant,
    PCMSpace,
    RandomOperator,
    TNorm,
    UniquenessResult,
    cauchy_chain_bound,
    check_axioms,
    check_banach,
    check_bounds,
    check_chatterjea,
    check_kannan,
    check_random_kannan,
    check_zamfirescu,
    dominates,
    from_samples,
    kannan_bound,
    picard,
    tau_converged,
    uniqueness_probe,
    verify_fixed_point,
)
from probcone.contract import Mapping
from probcone.solver import _chain_ends
from probcone.dist import DistFn, TimeGrid, empirical_sample_count, to_summary
from probcone.registry import (
    affine_map,
    cone_gaussian_space,
    constant_map,
    dirac_space,
    identity_map,
    rotation_half_map,
    scale_map,
    shift_map,
)
from probcone.report import trace_to_dict
from probcone.solver import _chain_bound_on_grid
from probcone.tnorm import _check_unit

SPACE = dirac_space()
ROTATE = rotation_half_map()


class TestPicard:
    def test_rotation_half_orbit(self):
        trace = picard(SPACE, ROTATE, [1.0, 0.0], eps=1e-10, max_iter=1000)
        assert trace.stopped_reason == "converged"
        assert np.allclose(trace.points[1], [0.5, 0.5], atol=1e-15)
        assert np.allclose(trace.points[2], [0.0, 0.5], atol=1e-15)
        assert np.linalg.norm(trace.limit) < 1e-9
        norms = np.linalg.norm(trace.points, axis=1)
        ratios = norms[1:41] / norms[:40]
        assert np.max(np.abs(ratios - 2.0**-0.5)) < 1e-9

    def test_norm_ratio_every_step(self):
        trace = picard(SPACE, ROTATE, [0.3, -0.8], eps=1e-9, max_iter=500)
        norms = np.linalg.norm(trace.points, axis=1)
        nonzero = norms[:-1] > 0
        ratios = norms[1:][nonzero] / norms[:-1][nonzero]
        assert np.max(np.abs(ratios - 2.0**-0.5)) < 1e-9

    def test_identity_stops_after_one_step(self):
        trace = picard(SPACE, identity_map(), [0.4, 0.1], eps=0.5)
        assert trace.stopped_reason == "converged"
        assert trace.n_iters == 1

    def test_shift_map_hits_max_iter(self):
        trace = picard(SPACE, shift_map([1.0, 0.0]), [0.0, 0.0], eps=0.5, max_iter=25)
        assert trace.stopped_reason == "max_iter"
        assert trace.n_iters == 25

    def test_dirac_stopping_rule_is_step_norm(self):
        # on a metric-induced space the tau criterion is exactly
        # ||x_n - x_{n+1}|| < eps
        eps = 1e-4
        trace = picard(SPACE, ROTATE, [1.0, 0.0], eps=eps, max_iter=1000)
        steps = np.linalg.norm(np.diff(trace.points, axis=0), axis=1)
        assert np.all(steps[:-1] >= eps)
        assert steps[-1] < eps

    def test_divergence_carries_partial_trace(self):
        blowup = Mapping(lambda u: np.exp(u) * 1e30, name="blowup")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
            picard(SPACE, blowup, [1.0, 1.0], eps=1e-6, max_iter=50)
        partial = err.value.trace
        assert partial is not None
        assert partial.stopped_reason == "diverged"
        assert partial.points.shape[0] >= 2

    def test_infeasible_start_rejected(self):
        space = dirac_space(point_cone=Orthant(2))
        with pytest.raises(InvalidParameterError):
            picard(space, ROTATE, [-1.0, 0.0], eps=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            picard(SPACE, ROTATE, [1.0, 0.0], eps=0.0)
        with pytest.raises(InvalidParameterError):
            picard(SPACE, ROTATE, [1.0, 0.0], eps=1e-6, max_iter=0)
        with pytest.raises(InvalidParameterError):
            picard(SPACE, ROTATE, [1.0, 0.0, 0.0], eps=1e-6)

    @pytest.mark.parametrize("x0", [["a", "b"], [[1.0], [2.0, 3.0]], {"x": 1.0}], ids=["strings", "ragged", "dict"])
    def test_non_numeric_start_is_refused_by_name(self, x0):
        with pytest.raises(InvalidParameterError, match="x0 must be a numeric point"):
            picard(SPACE, scale_map(0.5), x0)

    def test_default_eps_loosens_for_empirical_spaces(self):
        from probcone import PCMSpace, from_samples

        # analytic space: the default stopping eps is 1e-6
        trace = picard(SPACE, ROTATE, [1.0, 0.0], max_iter=1000)
        assert trace.eps == 1e-6

        def noisy_distance(x, y):
            gap = np.linalg.norm(x - y)
            child = np.random.default_rng(int(gap * 1e9) % (2**32))
            return from_samples(np.abs(gap + 1e-4 * child.standard_normal(100)))

        space = PCMSpace(dim=2, distance=noisy_distance, tnorm=TNorm.MINIMUM)
        trace = picard(space, ROTATE, [1.0, 0.0], max_iter=1000)
        assert trace.eps == 1e-2


def assert_bitwise(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _tableless_gaussian(x, y):
    return GaussianShift(math.hypot(*(x - y)))


TABLELESS = PCMSpace(dim=2, distance=_tableless_gaussian, tnorm=TNorm.PRODUCT)


class TestDerivedTrace:
    """``step_dists`` and ``step_values`` are derived from the orbit's points."""

    @staticmethod
    def assert_derived(trace):
        grid = trace.grid
        assert len(trace.step_dists) == trace.n_iters
        expected = np.array([d.eval(grid.points) for d in trace.step_dists]).reshape(trace.n_iters, len(grid))
        assert trace.step_values.shape == (trace.n_iters, len(grid))
        assert_bitwise(trace.step_values, expected)
        assert trace.step_values is trace.step_values  # computed once

    @pytest.mark.parametrize(
        "space,mapping,x0",
        [
            (SPACE, ROTATE, [1.0, 0.0]),
            (dirac_space(dim=3), scale_map(0.5), [0.3, -2.0, 1.5]),
            # rotation-half moves differences in and out of the Gaussian gate
            (cone_gaussian_space(), ROTATE, [1.0, 0.0]),
            (cone_gaussian_space(delta=0.3), scale_map(0.5), [1.0, 2.0]),
            (TABLELESS, ROTATE, [0.4, -0.9]),
        ],
        ids=["dirac-rotation", "dirac3-scale", "gauss-rotation", "gauss-scale", "tableless-rotation"],
    )
    def test_step_values_match_step_dists(self, space, mapping, x0):
        trace = picard(space, mapping, x0, eps=1e-6, max_iter=60, grid=np.geomspace(1e-4, 10.0, 37))
        assert trace.n_iters >= 2
        self.assert_derived(trace)

    def test_divergence_at_first_step(self):
        nan_map = Mapping(lambda u: np.full_like(u, np.nan), name="nan")
        for space in (SPACE, cone_gaussian_space(), TABLELESS):
            with pytest.raises(DivergenceError) as err:
                picard(space, nan_map, [1.0, 0.5], eps=1e-6)
            partial = err.value.trace
            assert partial.stopped_reason == "diverged" and partial.n_iters == 0
            assert partial.step_dists == ()
            self.assert_derived(partial)

    def test_divergence_after_several_steps(self):
        # 1 -> 1e100 -> 1e200 -> 1e300 -> inf: three finite steps, then a non-finite iterate
        grow = Mapping(lambda u: u * 1e100, name="grow")
        for space in (SPACE, cone_gaussian_space(), TABLELESS):
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
                picard(space, grow, [1.0, 1.0], eps=1e-6, max_iter=50)
            partial = err.value.trace
            assert partial.stopped_reason == "diverged" and partial.n_iters == 3
            self.assert_derived(partial)

    def test_summaries_build_only_the_first_and_last_step(self):
        calls = []

        def counting(x, y):
            calls.append(1)
            return SPACE.distance(x, y)

        counting.table = SPACE.distance.table
        space = PCMSpace(dim=2, distance=counting, tnorm=TNorm.MINIMUM)
        trace = picard(space, ROTATE, [1.0, 0.0], eps=1e-6, max_iter=1000)
        assert trace.n_iters > 10
        calls.clear()
        summary = trace_to_dict(trace)
        assert len(calls) == 2
        assert summary["first_step"] == to_summary(SPACE.distance(trace.points[0], trace.points[1]))
        assert summary["last_step"] == to_summary(SPACE.distance(trace.points[-2], trace.points[-1]))
        calls.clear()
        check_bounds(trace, 0.4)
        assert len(calls) == 1

    def test_trace_fields_are_the_orbit(self):
        assert list(IterationTrace.__dataclass_fields__) == ["points", "grid", "stopped_reason", "eps", "space"]


class TestKannanBound:
    def test_n_zero_is_first_step(self):
        f = from_samples([0.5, 1.0, 2.0])
        for t in (0.3, 0.9, 2.5):
            assert kannan_bound(f, 0.25, 0, t) == f.eval(t)

    def test_argument_scaling(self):
        f = from_samples([0.5, 1.0, 2.0])
        # (2 * 0.25)^3 = 1/8, so t=1 evaluates the first step at 8
        assert kannan_bound(f, 0.25, 3, 1.0) == f.eval(8.0)

    def test_dirac_crosses_step(self):
        assert kannan_bound(DiracStep(1.0), 0.25, 3, 1.0) == 1.0

    def test_monotone_in_alpha_and_t(self):
        f = DiracStep(1.0)
        grid = np.geomspace(0.01, 10, 50)
        alphas = [0.1, 0.2, 0.3, 0.4, 0.45]
        for n in (1, 3, 7):
            values = [np.asarray(kannan_bound(f, a, n, grid)) for a in alphas]
            for lo, hi in zip(values[1:], values[:-1]):
                assert np.all(lo <= hi + 1e-15)  # larger rate, weaker bound
            for v in values:
                assert np.all(np.diff(v) >= -1e-15)  # non-decreasing in t

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            kannan_bound(DiracStep(1.0), 0.5, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            kannan_bound(DiracStep(1.0), 0.25, -1, 1.0)
        with pytest.raises(InvalidParameterError):
            kannan_bound(DiracStep(1.0), 0.25, 1, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_t_is_refused(self, bad):
        # as cauchy_chain_bound refuses it; NaN used to give 0.0 and +inf 1.0
        for t in (bad, np.array([1.0, bad])):
            with pytest.raises(InvalidParameterError, match="t must be positive"):
                kannan_bound(DiracStep(1.0), 0.25, 0, t)


class TestCauchyChainBound:
    def test_single_term_reduces_to_step_bound(self):
        f = from_samples([0.2, 0.7, 1.4])
        for n in (0, 2, 5):
            got = cauchy_chain_bound(f, 0.3, n, n + 1, 1.0, TNorm.MINIMUM)
            assert got == kannan_bound(f, 0.3, n, 1.0)

    def test_zero_first_step_gives_one(self):
        f = DiracStep(0.0)
        assert cauchy_chain_bound(f, 0.25, 0, 7, 0.5, TNorm.PRODUCT) == 1.0

    def test_dirac_example(self):
        # terms at t / (2 * (1/2)^j) for j = 2, 3: both past the unit step
        got = cauchy_chain_bound(DiracStep(1.0), 0.25, 2, 4, 1.0, TNorm.MINIMUM)
        assert got == 1.0

    def test_underflowing_divisor_evaluates_at_infinity(self):
        # (1/2)^1075 is 0.0, so the later terms sit at t / 0 = inf
        assert cauchy_chain_bound(DiracStep(1.0), 0.25, 1070, 1080, 1.0, TNorm.MINIMUM) == 1.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            cauchy_chain_bound(DiracStep(1.0), 0.25, 3, 3, 1.0, TNorm.MINIMUM)
        with pytest.raises(InvalidParameterError):
            cauchy_chain_bound(DiracStep(1.0), 0.25, 0, 2, -1.0, TNorm.MINIMUM)


def _reference_fold(tnorm, values):
    # TNorm.fold as the scalar chain bound used it: validate, then apply left to right
    acc = 1.0
    for i, v in enumerate(values):
        v = _check_unit(v, f"values[{i}]")
        acc = tnorm.apply(acc, float(v))
    return float(acc)


def _reference_chain_bound(first_step, alpha, n, m, t, tnorm):
    gap = float(m - n)
    terms = []
    for j in range(n, m):
        with np.errstate(divide="ignore", over="ignore"):
            arg = t / (gap * (2.0 * alpha) ** j)
        terms.append(float(first_step.eval(arg)))
    return _reference_fold(tnorm, terms)


def _reference_chain_bound_on_grid(first_step, alpha, n, m, t, tnorm):
    gap = float(m - n)
    acc = np.ones_like(t)
    for j in range(n, m):
        with np.errstate(divide="ignore", over="ignore"):
            arg = t / (gap * (2.0 * alpha) ** j)
        acc = tnorm.apply(acc, np.asarray(first_step.eval(arg)))
    return acc


class TestChainBoundFold:
    """The one-array chain fold against the per-term ``apply``/``fold`` loops, bit for bit."""

    FIRST_STEPS = {
        "dirac": DiracStep(0.7),
        "dirac-zero": DiracStep(0.0),
        "empirical": from_samples([0.05, 0.2, 0.2, 0.9, 1.7, 3.0, 11.0]),
        "empirical-wide": from_samples(np.random.default_rng(3).exponential(2.0, 101)),
    }
    WINDOWS = [(0, 1), (0, 2), (0, 7), (2, 5), (3, 40), (10, 11), (25, 90)]
    ALPHAS = [0.05, 0.25, 0.3, 0.45, 0.499]

    @pytest.mark.parametrize("tnorm", list(TNorm), ids=lambda k: k.value)
    @pytest.mark.parametrize("first", sorted(FIRST_STEPS))
    def test_matches_reference_loops(self, tnorm, first):
        f = self.FIRST_STEPS[first]
        rng = np.random.default_rng(7)
        grids = [TimeGrid.default().points, np.sort(rng.uniform(1e-3, 30.0, 23)), np.array([1e-300, 0.5, 1e300])]
        for alpha in self.ALPHAS:
            for n, m in self.WINDOWS:
                for t in grids:
                    got = _chain_bound_on_grid(f, alpha, n, m, t, tnorm)
                    assert_bitwise(got, _reference_chain_bound_on_grid(f, alpha, n, m, t, tnorm))
                for t in grids[1][::4]:
                    expected = np.float64(_reference_chain_bound(f, alpha, n, m, float(t), tnorm)).tobytes()
                    got = cauchy_chain_bound(f, alpha, n, m, float(t), tnorm)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == expected
                    terms = [f.eval(t / ((m - n) * (2.0 * alpha) ** j)) for j in range(n, m)]
                    folded = tnorm.fold(terms)
                    assert type(folded) is float
                    assert np.float64(folded).tobytes() == np.float64(_reference_fold(tnorm, terms)).tobytes()

    def test_out_of_range_terms_rejected(self):
        class Broken(DiracStep):
            def eval(self, t):
                return np.full(np.shape(t), 1.5)

        with pytest.raises(InvalidParameterError):
            cauchy_chain_bound(Broken(1.0), 0.25, 0, 3, 1.0, TNorm.MINIMUM)


class TestCheckBounds:
    def test_holds_for_certified_map(self):
        mapping = scale_map(0.2)
        alpha = 0.3
        cert = check_kannan(SPACE, mapping, alpha, pairs=64, seed=1)
        assert cert.passed
        trace = picard(SPACE, mapping, [0.9, -0.7], eps=1e-9, max_iter=200)
        check = check_bounds(trace, alpha)
        assert check.holds
        assert check.n_violations == 0

    def test_single_step_trace_vacuous(self):
        trace = picard(SPACE, constant_map([0.3, 0.3]), [1.0, 0.0], eps=1e-6)
        check = check_bounds(trace, 0.25)
        assert check.holds
        assert check.step_margins.shape[0] == trace.n_iters

    def test_violations_reported_for_non_contractive_map(self):
        # constant unit steps: the guaranteed bound climbs to 1 while the
        # observed step distribution stays at the unit step
        trace = picard(SPACE, shift_map([1.0, 0.0]), [0.0, 0.0], eps=0.5, max_iter=30)
        check = check_bounds(trace, 0.25)
        assert not check.holds
        assert check.n_violations > 0
        assert check.worst_margin <= -1.0

    def test_nan_margins_are_violations(self):
        # the Dirac step, but NaN at every t once the gap drops below 0.05
        class NanBelow(DistFn):
            def __init__(self, d):
                self.d = d

            def eval(self, t):
                t = np.asarray(t, dtype=float)
                return np.full(t.shape, np.nan) if self.d < 0.05 else np.where(t > self.d, 1.0, 0.0)

        space = PCMSpace(dim=1, distance=lambda x, y: NanBelow(float(np.linalg.norm(x - y))), tnorm=TNorm.MINIMUM)
        trace = picard(space, scale_map(0.5), [1.0], max_iter=10)
        check = check_bounds(trace, 0.3)
        margins = np.concatenate([check.step_margins.ravel(), check.chain_margins.ravel()])
        assert np.isnan(margins).sum() > 0
        assert not check.holds
        assert check.n_violations == int(np.sum(np.isnan(margins) | (margins < 0.0)))
        assert repr(check.worst_margin) == "nan"

    def test_deterministic_chain_sampling(self):
        trace = picard(SPACE, scale_map(0.2), [1.0, 0.5], eps=1e-12, max_iter=200)
        a = check_bounds(trace, 0.3, seed=5)
        b = check_bounds(trace, 0.3, seed=5)
        assert a.chain_pairs == b.chain_pairs
        assert np.array_equal(a.chain_margins, b.chain_margins)

    @pytest.mark.parametrize(
        "space,mapping,x0",
        [
            (SPACE, scale_map(0.2), [1.0, 0.5]),
            (cone_gaussian_space(tnorm=TNorm.LUKASIEWICZ), ROTATE, [1.0, 0.0]),
            (TABLELESS, scale_map(0.3), [0.4, -0.9]),
        ],
        ids=["dirac", "gauss-rotation", "tableless"],
    )
    def test_matches_per_step_and_per_pair_loops(self, space, mapping, x0):
        # 40 steps give 741 chain pairs, so 32 are sampled
        trace = picard(space, mapping, x0, eps=1e-12, max_iter=40)
        grid = TimeGrid(np.geomspace(1e-3, 50.0, 29))
        check = check_bounds(trace, 0.3, grid=grid, seed=4)
        t = grid.points
        first = space.distance(trace.points[0], trace.points[1])
        step_lhs = np.asarray([np.asarray(d.eval(t)) for d in trace.step_dists])
        step_rhs = np.asarray([kannan_bound(first, 0.3, n, t) for n in range(trace.n_iters)])
        assert_bitwise(check.step_lhs, step_lhs)
        assert_bitwise(check.step_rhs, step_rhs)
        assert len(check.chain_pairs) == 32
        for row, (n, m) in enumerate(check.chain_pairs):
            lhs = np.asarray(space.distance(trace.points[n], trace.points[m]).eval(t))
            assert_bitwise(check.chain_lhs[row], lhs)
            rhs = _reference_chain_bound_on_grid(first, 0.3, n, m, t, space.tnorm)
            assert_bitwise(check.chain_rhs[row], rhs)

    def test_step_bounds_take_one_first_step_eval(self, monkeypatch):
        # the dirac table serves the observed sides; each chain pair adds one eval
        calls = []
        original = DiracStep.eval
        monkeypatch.setattr(DiracStep, "eval", lambda self, t: calls.append(1) or original(self, t))
        check = check_bounds(_SHIFT_ORBIT, 0.25)
        assert len(calls) == 1 + len(check.chain_pairs)

    def test_chain_pairs_match_the_enumerated_list(self):
        def enumerated(n_steps, k, seed):
            listed = [(n, m) for n in range(n_steps) for m in range(n + 1, n_steps + 1) if m - n >= 2]
            if len(listed) <= k:
                return listed
            idx = np.random.default_rng(seed).choice(len(listed), size=k, replace=False)
            return [listed[i] for i in sorted(idx)]

        for n_steps in range(1, 80):
            for k in (1, 5, 32):
                for seed in range(4):
                    n, m = _chain_ends(n_steps, k, seed)
                    assert list(zip(n.tolist(), m.tolist())) == enumerated(n_steps, k, seed)

    def test_long_trace_samples_chain_pairs_without_listing_them(self, traced_peak):
        # 10,000 steps have about 5e7 chain pairs; listing them took gigabytes
        points = np.column_stack([0.01 * np.arange(10_001.0), np.zeros(10_001)])
        trace = IterationTrace(points, TimeGrid.default(), "max_iter", 1e-6, SPACE)
        check, peak = traced_peak(check_bounds, trace, 0.25, grid=[0.5, 1.0, 2.0], max_chain_pairs=4)
        assert len(check.chain_pairs) == 4 and all(m - n >= 2 for n, m in check.chain_pairs)
        assert peak < 8 * 2**20

    def test_requires_two_points(self):
        trace = picard(SPACE, identity_map(), [0.0, 0.0], eps=0.5)
        check_bounds(trace, 0.25)  # 2 points: fine
        with pytest.raises(InvalidParameterError):
            check_bounds(trace, 0.75)


_SHIFT_ORBIT = picard(SPACE, shift_map([0.1, 0.0]), [0.0, 0.0], eps=1e-6, max_iter=30)
_HALF = RandomOperator(lambda j, x: 0.5 * x)
_ENSEMBLES = [(Ensemble(np.array([[1.0, 0.0], [0.0, 1.0]])), Ensemble(np.array([[0.5, 0.5], [2.0, 0.0]])))]
_TOL_CHECKS = {
    "check_bounds": lambda tol: check_bounds(_SHIFT_ORBIT, 0.25, tol=tol),
    "verify_fixed_point": lambda tol: verify_fixed_point(SPACE, ROTATE, [1.0, 0.0], tol=tol),
    "check_banach": lambda tol: check_banach(SPACE, ROTATE, 0.5, pairs=4, tol=tol),
    "check_kannan": lambda tol: check_kannan(SPACE, ROTATE, 0.25, pairs=4, tol=tol),
    "check_chatterjea": lambda tol: check_chatterjea(SPACE, ROTATE, 0.25, pairs=4, tol=tol),
    "check_zamfirescu": lambda tol: check_zamfirescu(SPACE, ROTATE, 0.5, 0.25, 0.25, pairs=4, tol=tol),
    "check_axioms": lambda tol: check_axioms(SPACE, 4, tol=tol),
    "check_random_kannan": lambda tol: check_random_kannan(_HALF, _ENSEMBLES, 0.25, tol=tol),
    "dominates": lambda tol: dominates(DiracStep(0.5), DiracStep(1.0), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("check", sorted(_TOL_CHECKS))
def test_non_finite_tol_rejected(check, tol):
    # a NaN or +inf tolerance would pass every margin, a -inf one fail every margin
    with pytest.raises(InvalidParameterError, match=f"tol must be finite, got {tol}"):
        _TOL_CHECKS[check](tol)


_KANNAN_RATE_CHECKS = {
    "kannan_bound": lambda alpha: kannan_bound(DiracStep(1.0), alpha, 1, 1.0),
    "cauchy_chain_bound": lambda alpha: cauchy_chain_bound(DiracStep(1.0), alpha, 0, 2, 1.0, TNorm.MINIMUM),
    "check_bounds": lambda alpha: check_bounds(_SHIFT_ORBIT, alpha),
    "check_random_kannan": lambda alpha: check_random_kannan(_HALF, _ENSEMBLES, alpha),
}


@pytest.mark.parametrize("alpha", [0.5, 0.0, math.nan], ids=["half", "zero", "nan"])
@pytest.mark.parametrize("check", sorted(_KANNAN_RATE_CHECKS))
def test_kannan_rate_refused_in_the_condition_tables_words(check, alpha):
    # each reads contract._check_rates, so its words are classify's
    with pytest.raises(InvalidParameterError, match=re.escape(f"kannan rate must lie in (0, 1/2), got {alpha}")):
        _KANNAN_RATE_CHECKS[check](alpha)


class TestVerifyFixedPoint:
    def test_rotation_fixed_point_at_origin(self):
        assert verify_fixed_point(SPACE, ROTATE, [0.0, 0.0]).is_fixed

    @pytest.mark.parametrize(
        "x,message",
        [
            ([0.0], "x must have dimension 2, got shape (1,)"),
            ([0.0, 0.0, 0.0], "x must have dimension 2, got shape (3,)"),
            (0.0, "x must have dimension 2, got shape ()"),
            ([[0.0], [0.0, 1.0]], "x must be a numeric point: "),
        ],
        ids=["short", "long", "scalar", "ragged"],
    )
    def test_point_of_the_wrong_shape_is_refused(self, x, message):
        # [0.0] used to be mapped to [0.0] and reported fixed
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            verify_fixed_point(SPACE, scale_map(0.5), x)
        # picard's start is checked by the same rule
        with pytest.raises(InvalidParameterError, match=re.escape(message.replace("x ", "x0 ", 1))):
            picard(SPACE, scale_map(0.5), x)

    @pytest.mark.parametrize("space", [SPACE, cone_gaussian_space()], ids=["dirac", "cone-gaussian"])
    @pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, -np.inf]], ids=["nan", "-inf"])
    def test_non_finite_point_is_refused(self, space, x):
        # the cone-Gaussian gap of [nan, 1] used to fall outside the gate and read
        # delta Phi(t): is_fixed False with a finite worst, and tau_converged False
        with np.errstate(invalid="ignore"), pytest.raises(InvalidParameterError, match="must be finite"):
            verify_fixed_point(space, identity_map(), x)  # x - Tx is nan at an infinite coordinate
        with pytest.raises(InvalidParameterError, match="must be finite"):
            tau_converged(space, x, [0.0, 0.0], 0.1)

    def test_non_fixed_point(self):
        result = verify_fixed_point(SPACE, ROTATE, [1.0, 0.0])
        assert not result.is_fixed
        assert result.worst == 0.0  # small grid times sit below the step

    def test_identity_everywhere_fixed(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert verify_fixed_point(SPACE, identity_map(), x).is_fixed

    @pytest.mark.parametrize(
        "space", [SPACE, cone_gaussian_space(), TABLELESS], ids=["dirac", "cone-gaussian", "tableless"]
    )
    def test_table_read_is_the_distribution_read_bitwise(self, space):
        grid = TimeGrid(np.geomspace(1e-3, 1e2, 50))
        rng = np.random.default_rng(15)
        for mapping in (ROTATE, scale_map(0.5), shift_map([0.3, 0.2]), identity_map()):
            for x in [np.zeros(2), *rng.uniform(-2, 2, (6, 2))]:
                # the single-pair path verify_fixed_point read before it read the table
                values = np.asarray(space.distance(mapping(x), x).eval(grid.points))
                worst = float(values.min())
                for tol in (0.0, 1e-6):
                    result = verify_fixed_point(space, mapping, x, grid=grid, tol=tol)
                    assert repr(result.worst) == repr(worst)
                    assert result.is_fixed == (worst >= 1.0 - tol)

    def test_a_map_with_a_table_builds_no_distribution(self):
        calls = []

        def counting(x, y):
            calls.append(1)
            return SPACE.distance(x, y)

        counting.table = SPACE.distance.table
        space = PCMSpace(dim=2, distance=counting, tnorm=TNorm.MINIMUM)
        assert not verify_fixed_point(space, ROTATE, [1.0, 0.0]).is_fixed
        assert verify_fixed_point(space, ROTATE, [0.0, 0.0]).is_fixed
        assert calls == []

    def test_non_finite_image_raises_the_step_rule(self):
        message = "DiracStep distance must be finite and >= 0, got inf"
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            verify_fixed_point(SPACE, Mapping(lambda u: u + np.inf, name="to-inf"), [1.0, 0.0])


def _record_picard_starts(monkeypatch):
    """Patch ``solver.picard`` to record the start of each call; returns the record."""
    import probcone.solver as solver

    seen = []

    def recording_picard(space, mapping, x0, **kwargs):
        seen.append(x0)
        return picard(space, mapping, x0, **kwargs)

    monkeypatch.setattr(solver, "picard", recording_picard)
    return seen


class TestUniquenessProbe:
    def test_rotation_limits_agree(self):
        rng = np.random.default_rng(15)
        starts = rng.uniform(-1, 1, (10, 2))
        result = uniqueness_probe(SPACE, ROTATE, starts, eps=1e-8, agree_tol=1e-6)
        assert result.unique
        assert np.all(np.linalg.norm(result.limits, axis=1) < 1e-6)

    def test_identity_not_unique(self):
        result = uniqueness_probe(
            SPACE, identity_map(), [[0.0, 0.0], [1.0, 0.0]], eps=0.5, agree_tol=1e-6
        )
        assert not result.unique
        assert np.array_equal(result.limits, [[0.0, 0.0], [1.0, 0.0]])

    def test_constant_map_unique(self):
        target = [0.25, -0.5]
        result = uniqueness_probe(
            SPACE, constant_map(target), [[1.0, 1.0], [-1.0, 0.3], [0.0, 0.9]], eps=1e-9
        )
        assert result.unique
        assert np.allclose(result.limits, target)

    def test_divergence_propagates(self):
        blowup = Mapping(lambda u: np.exp(u) * 1e30, name="blowup")
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            uniqueness_probe(SPACE, blowup, [[1.0, 0.0], [0.0, 1.0]], eps=1e-6, max_iter=20)

    def test_worker_independence(self):
        rng = np.random.default_rng(16)
        starts = rng.uniform(-1, 1, (6, 2))
        a = uniqueness_probe(SPACE, ROTATE, starts, eps=1e-8, workers=1)
        b = uniqueness_probe(SPACE, ROTATE, starts, eps=1e-8, workers=4)
        assert np.array_equal(a.limits, b.limits)

    def test_orbits_run_on_the_calling_thread(self):
        threads = set()

        def rotate(u):
            threads.add(threading.get_ident())
            return ROTATE(u)

        uniqueness_probe(SPACE, Mapping(rotate, name="rotate"), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], workers=4)
        assert threads == {threading.get_ident()}

    def test_orbits_are_stacked_not_run_through_picard(self, monkeypatch):
        import probcone.solver as solver

        calls = []

        def recording_picard(*args, **kwargs):
            calls.append(1)
            return picard(*args, **kwargs)

        monkeypatch.setattr(solver, "picard", recording_picard)
        starts = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        result = uniqueness_probe(SPACE, ROTATE, starts, eps=1e-8)
        assert calls == []
        assert_same_probe(result, None, *_outcome(lambda: reference_probe(SPACE, ROTATE, starts, eps=1e-8)))

    def test_a_map_without_rows_is_stacked_too(self, monkeypatch):
        seen = _record_picard_starts(monkeypatch)
        starts = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        mapping = Mapping(ROTATE.fn, name="rotate")
        result = uniqueness_probe(SPACE, mapping, starts, eps=1e-8)
        assert seen == []
        assert_same_probe(result, None, *_outcome(lambda: reference_probe(SPACE, mapping, starts, eps=1e-8)))

    def test_a_failing_stack_is_replayed_through_picard(self, monkeypatch):
        seen = _record_picard_starts(monkeypatch)
        # the second start's first iterate is NaN, so picard stops there
        starts = [[1.0, 1.0], [-1.0, 1.0], [0.5, 0.5]]
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as err:
            uniqueness_probe(SPACE, _PROBE_MAPS["sqrt-nan"], starts, eps=1e-6)
        assert_bitwise(np.array(seen), np.array(starts[:2]))
        assert_bitwise(err.value.trace.points, np.array([starts[1]]))

    def test_needs_two_starts(self):
        with pytest.raises(InvalidParameterError):
            uniqueness_probe(SPACE, ROTATE, [[1.0, 0.0]])

    def test_matches_pairwise_tau_converged(self):
        # identity keeps every start as its own limit; the lopsided distance
        # is asymmetric and has no batched table, so both orders and the
        # per-row fallback are exercised
        def lopsided(x, y):
            gap = float(np.linalg.norm(x - y))
            return DiracStep(gap if x[0] >= y[0] else 3.0 * gap)

        starts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.25], [0.05, 0.05]])
        seen = set()
        for space in (SPACE, PCMSpace(dim=2, distance=lopsided, tnorm=TNorm.MINIMUM)):
            for agree_tol in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
                result = uniqueness_probe(space, identity_map(), starts, eps=1.0, agree_tol=agree_tol)
                expected = all(
                    tau_converged(space, starts[i], starts[j], agree_tol)
                    for i in range(len(starts))
                    for j in range(len(starts))
                    if i != j
                )
                assert result.unique == expected
                seen.add(expected)
        assert seen == {True, False}

    def test_non_numeric_start_is_refused_by_name(self):
        with pytest.raises(InvalidParameterError, match="x0 must be a numeric point"):
            uniqueness_probe(SPACE, scale_map(0.5), [[1, 0], ["a", "b"]])

    def test_agree_tol_validated(self):
        with pytest.raises(InvalidParameterError):
            uniqueness_probe(SPACE, ROTATE, [[1.0, 0.0], [0.0, 1.0]], eps=1e-8, agree_tol=0.0)

    @pytest.mark.parametrize("agree_tol", [-1.0, np.nan, 0.0, np.inf])
    @pytest.mark.parametrize("max_iter", [2, 10_000], ids=["orbits-stop-at-max-iter", "orbits-converge"])
    def test_agree_tol_refused_before_any_orbit_runs(self, agree_tol, max_iter):
        calls = []

        def rotate(u):
            calls.append(u)
            return ROTATE(u)

        mapping = Mapping(rotate, name="rotate")
        starts = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvalidParameterError, match="agree_tol must be positive"):
            uniqueness_probe(SPACE, mapping, starts, eps=1e-12, max_iter=max_iter, agree_tol=agree_tol)
        assert calls == []

    def test_agreement_is_one_distance_values_read(self, monkeypatch):
        reads = []
        distance_values = PCMSpace.distance_values

        def recording(space, X, Y, t):
            reads.append((np.array(X), np.array(Y)))
            return distance_values(space, X, Y, t)

        monkeypatch.setattr(PCMSpace, "distance_values", recording)
        starts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.25], [0.05, 0.05]])
        result = uniqueness_probe(SPACE, identity_map(), starts, eps=1.0, agree_tol=0.5)
        assert result.unique
        # one stop test for the four orbits, then the 4 * 3 ordered pairs of limits row by row
        assert [len(X) for X, _ in reads] == [4, 12]
        i, j = zip(*[(i, j) for i in range(4) for j in range(4) if i != j])
        assert_bitwise(reads[1][0], starts[list(i)])
        assert_bitwise(reads[1][1], starts[list(j)])

    def test_agreement_reads_stop_after_the_first_disagreeing_read(self, monkeypatch):
        import probcone.space as space

        reads = []
        distance_values = PCMSpace.distance_values

        def recording(space, X, Y, t):
            reads.append((np.array(X), np.array(Y)))
            return distance_values(space, X, Y, t)

        monkeypatch.setattr(PCMSpace, "distance_values", recording)
        monkeypatch.setattr(space, "_AGREEMENT_PAIRS", 5)
        starts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.25], [0.05, 0.05]])
        i, j = map(list, zip(*[(i, j) for i in range(4) for j in range(4) if i != j]))
        # every pair agrees: the 12 pairs in reads of 5, 5 and 2, row by row
        assert uniqueness_probe(SPACE, identity_map(), starts, eps=1.0, agree_tol=0.5).unique
        assert [len(X) for X, _ in reads] == [4, 5, 5, 2]
        assert_bitwise(np.concatenate([X for X, _ in reads[1:]]), starts[i])
        assert_bitwise(np.concatenate([Y for _, Y in reads[1:]]), starts[j])
        # pair (0, 1) disagrees at this tolerance, so the first read is the last
        reads.clear()
        assert not uniqueness_probe(SPACE, identity_map(), starts, eps=1.0, agree_tol=0.05).unique
        assert [len(X) for X, _ in reads] == [4, 5]

    @pytest.mark.parametrize("pairs_per_read", [5, 12])
    def test_a_raising_pair_raises_only_in_a_read_that_is_made(self, monkeypatch, pairs_per_read):
        import probcone.space as space

        monkeypatch.setattr(space, "_AGREEMENT_PAIRS", pairs_per_read)
        # row 0 disagrees at pair (0, 1); the gap of pair (2, 3), the ninth, overflows
        starts = [[0.0, 0.0], [1.0, 0.0], [1e308, 0.0], [-1e308, 0.0]]
        assert_probe_matches_reference(SPACE, identity_map(), starts, eps=0.5, agree_tol=1e-6)
        with np.errstate(over="ignore"):
            if pairs_per_read == 5:
                assert not uniqueness_probe(SPACE, identity_map(), starts, eps=0.5, agree_tol=1e-6).unique
            else:
                with pytest.raises(InvalidParameterError, match="DiracStep distance must be finite"):
                    uniqueness_probe(SPACE, identity_map(), starts, eps=0.5, agree_tol=1e-6)

    def test_agreement_peak_memory_is_bounded(self, traced_peak):
        # 2000 limits make 3,998,000 ordered pairs; read all at once they would
        # hold about 300 MB of index arrays, gathers and table temporaries
        starts = np.random.default_rng(0).uniform(0.0, 1e-3, size=(2000, 2))
        result, peak = traced_peak(uniqueness_probe, SPACE, identity_map(), starts, eps=1.0, agree_tol=0.5)
        assert result.unique
        assert peak < 4 * 2**20


class TestTheoremConsistency:
    """Certified rate implies orbit bounds, across maps and rates."""

    @pytest.mark.parametrize(
        "mapping,alpha",
        [
            (scale_map(0.2), 0.3),
            (scale_map(0.25), 0.4),
            (constant_map([0.1, -0.2]), 0.2),
        ],
    )
    def test_certificate_implies_bounds(self, mapping, alpha):
        cert = check_kannan(SPACE, mapping, alpha, pairs=64, seed=21)
        assert cert.passed
        trace = picard(SPACE, mapping, [0.8, 0.6], eps=1e-10, max_iter=300)
        check = check_bounds(trace, alpha, tnorm=TNorm.MINIMUM)
        assert check.holds
        assert check.n_violations == 0


# ---------------------------------------------------------------------------
# The stacked uniqueness probe against the per-start loop it replaced
# ---------------------------------------------------------------------------


def reference_picard(space, mapping, x0, eps=None, max_iter=10_000, grid=None):
    """``picard`` as it was when ``uniqueness_probe`` ran one orbit per start."""
    if max_iter < 1:
        raise InvalidParameterError(f"max_iter must be >= 1, got {max_iter}")
    grid = TimeGrid.coerce(grid)
    x = np.asarray(x0, dtype=float)
    if x.shape != (space.dim,):
        raise InvalidParameterError(f"x0 must have dimension {space.dim}, got shape {x.shape}")
    if not space.feasible(x):
        raise InvalidParameterError("x0 is outside the declared cone")
    if eps is None:
        eps = 1e-2 if empirical_sample_count(space.distance(x, x)) is not None else 1e-6
    if not np.isfinite(eps) or eps <= 0.0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")

    points = [x]
    reason = "max_iter"
    for _ in range(max_iter):
        x_next = mapping(x)
        if not np.all(np.isfinite(x_next)):
            partial = IterationTrace(np.asarray(points), grid, "diverged", eps, space)
            raise DivergenceError(f"non-finite iterate after {len(points)} steps", trace=partial)
        points.append(x_next)
        if tau_converged(space, x, x_next, eps):
            reason = "converged"
            break
        x = x_next
    return IterationTrace(np.asarray(points), grid, reason, eps, space)


def reference_probe(space, mapping, starts, eps=None, max_iter=10_000, agree_tol=1e-6):
    """``uniqueness_probe`` as one ``reference_picard`` orbit per start, in order."""
    starts = [np.asarray(s, dtype=float) for s in starts]
    if len(starts) < 2:
        raise InvalidParameterError("need at least two starts to probe uniqueness")
    if not np.isfinite(agree_tol) or agree_tol <= 0.0:
        raise InvalidParameterError(f"agree_tol must be positive, got {agree_tol}")
    grid = TimeGrid.default()
    traces = [reference_picard(space, mapping, s, eps=eps, max_iter=max_iter, grid=grid) for s in starts]
    limits = np.asarray([tr.limit for tr in traces])
    reasons = tuple(tr.stopped_reason for tr in traces)
    unique = all(r == "converged" for r in reasons)
    if unique:
        from probcone.space import _AGREEMENT_PAIRS as per_read

        # the ordered pairs row by row, read per_read at a time until a read disagrees; every
        # pair of a read is evaluated, so a raising pair raises after a disagreeing one in its read
        pairs = [(i, j) for i in range(len(limits)) for j in range(len(limits)) if i != j]
        unique = all(
            all([tau_converged(space, limits[i], limits[j], agree_tol) for i, j in pairs[p : p + per_read]])
            for p in range(0, len(pairs), per_read)
        )
    return UniquenessResult(unique=unique, limits=limits, stopped_reasons=reasons)


def _outcome(call):
    with np.errstate(all="ignore"):
        try:
            return call(), None
        except Exception as exc:  # compared with the other side's outcome
            return None, exc


def assert_same_probe(got, got_error, expected, expected_error):
    if expected_error is None:
        assert got_error is None, repr(got_error)
        assert got.unique == expected.unique
        assert got.stopped_reasons == expected.stopped_reasons
        assert_bitwise(got.limits, expected.limits)
        return
    assert type(got_error) is type(expected_error)
    assert str(got_error) == str(expected_error)
    if isinstance(expected_error, DivergenceError):
        got_trace, expected_trace = got_error.trace, expected_error.trace
        assert_bitwise(got_trace.points, expected_trace.points)
        assert got_trace.stopped_reason == expected_trace.stopped_reason == "diverged"
        assert repr(got_trace.eps) == repr(expected_trace.eps) and got_trace.space is expected_trace.space
        assert_bitwise(got_trace.grid.points, expected_trace.grid.points)


def assert_probe_matches_reference(space, mapping, starts, **kwargs):
    assert_same_probe(
        *_outcome(lambda: uniqueness_probe(space, mapping, starts, **kwargs)),
        *_outcome(lambda: reference_probe(space, mapping, starts, **kwargs)),
    )


def _mixed_distance(x, y):
    # empirical where x[0] > 0, so eps=None resolves to 1e-2 for some starts
    # and 1e-6 for others; no table
    gap = math.hypot(*(x - y))
    if x[0] > 0.0:
        return from_samples(gap * np.linspace(0.5, 1.5, 10))
    return DiracStep(gap)


def _per_row(fn):
    """A user map with ``rows`` that is the per-row loop, so a raising row raises the stack."""
    return Mapping(fn, name="user-rows", rows=lambda X: np.array([fn(x) for x in X]))


def _halve_or_raise(u):
    """u / 2, undefined below the anti-diagonal u[0] + u[1] = 0."""
    if u[0] + u[1] < 0.0:
        raise ValueError(f"map undefined at {u.tolist()}")
    return 0.5 * u


_PROBE_SPACES = {
    "dirac": SPACE,
    "cone-gaussian": cone_gaussian_space(),
    "tableless": TABLELESS,
    "mixed-eps": PCMSpace(dim=2, distance=_mixed_distance, tnorm=TNorm.MINIMUM),
}

_PROBE_MAPS = {
    "identity": identity_map(),
    "rotation-half": ROTATE,
    "scale-half": scale_map(0.5),
    "scale-grow": scale_map(1.7),
    "constant": constant_map([0.25, -0.5]),
    "shift": shift_map([1e-3, -2e-3]),
    "affine": affine_map([[0.5, -0.2], [0.1, 0.4]], [0.05, 0.0]),
    "user-no-rows": Mapping(lambda u: 0.6 * np.tanh(u), name="tanh"),
    # rows maps that fail on part of [-2, 2]^2, so the oracle draws replays too
    "sqrt-nan": _per_row(lambda u: 0.5 * np.sqrt(u)),
    "halve-or-raise": _per_row(_halve_or_raise),
}


def _tagged(fn):
    """Starts (1, k) for orbit k; the map halves u[0] and keeps the tag u[1] = k."""

    def step(u):
        out = fn(u)
        return np.array([0.5 * u[0], u[1]]) if out is None else out

    return step


def _diverge_2_at_5_and_4_at_1(u):
    if u[1] == 2.0 and u[0] == 0.5**5:
        return np.array([np.nan, u[1]])
    if u[1] == 4.0:
        return np.array([np.inf, u[1]])
    return None


def _raise_on_1_and_3(u):
    if u[1] in (1.0, 3.0) and u[0] < 0.5 ** (6 - u[1]):
        raise ValueError(f"map undefined at {u.tolist()}")
    return None


def _tag_starts(n):
    return [[1.0, float(k)] for k in range(n)]


class TestStackedProbeOracle:
    """Limits, stop reasons, verdicts and errors equal the per-start ``picard`` loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        space_name=st.sampled_from(sorted(_PROBE_SPACES)),
        map_name=st.sampled_from(sorted(_PROBE_MAPS)),
        starts=st.lists(
            st.tuples(*[st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e-300]))] * 2),
            min_size=2,
            max_size=7,
        ),
        eps=st.one_of(st.none(), st.sampled_from([0.3, 1e-2, 1e-6, 1e-10]), st.floats(1e-9, 0.9)),
        max_iter=st.integers(1, 60),
        agree_tol=st.sampled_from([1e-6, 0.3]),
    )
    def test_matches_per_start_loop(self, space_name, map_name, starts, eps, max_iter, agree_tol):
        assert_probe_matches_reference(
            _PROBE_SPACES[space_name], _PROBE_MAPS[map_name], starts, eps=eps, max_iter=max_iter, agree_tol=agree_tol
        )

    @pytest.mark.parametrize("space_name", sorted(_PROBE_SPACES))
    @pytest.mark.parametrize("map_name", sorted(_PROBE_MAPS))
    def test_some_orbits_hit_max_iter_while_others_converge(self, space_name, map_name):
        # start norms from 1e-7 to 2: with eps 1e-6 the short orbits stop
        # after a step or two, the long ones run into max_iter
        starts = [[1e-7, 0.0], [2.0, -1.0], [0.0, 0.0], [1e-3, 1e-3], [-0.5, 1.5]]
        for max_iter in (1, 3, 12, 400):
            assert_probe_matches_reference(
                _PROBE_SPACES[space_name], _PROBE_MAPS[map_name], starts, eps=1e-6, max_iter=max_iter
            )

    @pytest.mark.parametrize("map_name", ["scale-half", "rotation-half", "user-no-rows"])
    def test_per_start_eps_and_stop_test_ties(self, map_name):
        # eps=None resolves to 1e-2 where x[0] > 0 (empirical distance) and
        # to 1e-6 elsewhere; at eps=0.3 an empirical value of 7/10 equals
        # 1 - eps, which the strict stop test must not accept
        starts = [[1.0, 0.5], [-1.0, 0.5], [0.3, -0.2], [-0.02, 0.01], [2.0, 2.0], [0.45, 0.0], [0.5, 0.0]]
        for eps in (None, 0.3):
            assert_probe_matches_reference(
                _PROBE_SPACES["mixed-eps"], _PROBE_MAPS[map_name], starts, eps=eps, max_iter=200
            )

    def test_no_orbit_after_a_failure_keeps_running(self):
        # orbit 0 diverges at its first step: the stack stops after that one
        # step over all four orbits, and the replay through picard then
        # runs orbit 0 alone, which raises; the others never run again
        calls = []

        def blow_up_first(u):
            calls.append(u[1])
            return np.array([np.inf, u[1]]) if u[1] == 0.0 else u + 1.0

        with pytest.raises(DivergenceError):
            uniqueness_probe(SPACE, Mapping(blow_up_first), _tag_starts(4), eps=1e-6, max_iter=10_000)
        assert calls == [0.0, 1.0, 2.0, 3.0, 0.0]

    @pytest.mark.parametrize("wrap", [lambda fn: Mapping(fn, name="user"), _per_row], ids=["no-rows", "rows"])
    @pytest.mark.parametrize("space_name", ["dirac", "tableless"])
    def test_divergence_is_the_lowest_failing_orbit(self, wrap, space_name):
        # orbit 4 diverges at its first step, orbit 2 at its sixth; the
        # per-start loop reaches orbit 2 first, so that is the error
        mapping = wrap(_tagged(_diverge_2_at_5_and_4_at_1))
        space = _PROBE_SPACES[space_name]
        for n in (3, 5, 6):
            assert_probe_matches_reference(space, mapping, _tag_starts(n), eps=1e-6, max_iter=60)
        with pytest.raises(DivergenceError) as err:
            uniqueness_probe(space, mapping, _tag_starts(6), eps=1e-6, max_iter=60)
        assert err.value.trace.n_iters == 5
        assert_bitwise(err.value.trace.points[:, 0], 0.5 ** np.arange(6))

    @pytest.mark.parametrize("wrap", [lambda fn: Mapping(fn, name="user"), _per_row], ids=["no-rows", "rows"])
    def test_map_raising_is_the_lowest_failing_orbit(self, wrap):
        # orbit 3 raises at step 3, orbit 1 at step 5: orbit 1's error is raised
        mapping = wrap(_tagged(_raise_on_1_and_3))
        for n in (2, 3, 4, 5):
            assert_probe_matches_reference(SPACE, mapping, _tag_starts(n), eps=1e-6)
        with pytest.raises(ValueError, match=r"map undefined at \[0\.015625, 1\.0\]"):
            uniqueness_probe(SPACE, mapping, _tag_starts(5), eps=1e-6)

    def test_stop_test_raising_is_that_orbits_failure(self):
        # (1e308, 0) maps to (-1e308, 0): both finite, but their gap
        # overflows, so the Dirac table raises and the rows are redone
        def flip_or_halve(u):
            return -u if abs(u[0]) > 1e300 else 0.5 * u

        for wrap in (lambda fn: Mapping(fn, name="user"), _per_row):
            mapping = wrap(flip_or_halve)
            for starts in ([[0.5, 0.0], [1e308, 0.0], [0.25, 0.0]], [[1e308, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.25, 0.0]]):
                assert_probe_matches_reference(SPACE, mapping, starts, eps=1e-6)
        with np.errstate(over="ignore"), pytest.raises(InvalidParameterError, match="finite"):
            uniqueness_probe(SPACE, Mapping(flip_or_halve), [[0.5, 0.0], [1e308, 0.0]], eps=1e-6)

    def test_invalid_start_raised_after_earlier_orbits(self):
        space = dirac_space(point_cone=Orthant(2))
        mapping = Mapping(_tagged(_diverge_2_at_5_and_4_at_1), name="user")
        outside = [-1.0, 3.0]
        cases = [
            # a diverging orbit before the infeasible start decides the error
            [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], outside],
            [[1.0, 0.0], [1.0, 4.0], outside, [1.0, 1.0]],
            # otherwise the infeasible start does, after the orbits before it
            [[1.0, 0.0], [1.0, 1.0], outside, [1.0, 2.0]],
            [outside, [1.0, 2.0]],
            # wrong dimension and a bad eps are start errors too
            [[1.0, 0.0], [1.0, 2.0, 0.0]],
        ]
        for starts in cases:
            assert_probe_matches_reference(space, mapping, starts, eps=1e-6)
        assert_probe_matches_reference(space, mapping, [[1.0, 0.0], [1.0, 2.0]], eps=-1.0)
        assert_probe_matches_reference(space, mapping, [[1.0, 0.0], [1.0, 2.0]], max_iter=0)
        with pytest.raises(DivergenceError):
            uniqueness_probe(space, mapping, cases[0], eps=1e-6)
        with pytest.raises(InvalidParameterError, match="outside the declared cone"):
            uniqueness_probe(space, mapping, cases[2], eps=1e-6)
