import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probcone import (
    DiracStep,
    DistFn,
    GaussianShift,
    Halfspaces,
    InfeasibleRegionError,
    InvalidParameterError,
    Orthant,
    PCMSpace,
    TimeGrid,
    TNorm,
    cauchy_window,
    check_axioms,
    sample_points,
    tau_converged,
)
import probcone.space
from probcone.dist import _first_worst
from probcone.registry import cone_gaussian_space, dirac_space, rotation_half_map
from probcone.report import axiom_report_to_dict, canonical_json
from probcone.space import _passfail
from probcone.tnorm import _MaxCombine

# an inf - inf or 0 * inf in a kernel's masking fails here instead of leaving a quiet NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def squared_distance_space(tnorm=TNorm.MINIMUM):
    # squared Euclidean gaps are not a metric: d(x,z) can exceed
    # d(x,y) + d(y,z), which a fine grid witnesses under the min t-norm
    def squared_distance(x, y):
        return DiracStep(float(np.linalg.norm(x - y) ** 2))

    return PCMSpace(
        dim=2,
        distance=squared_distance,
        tnorm=tnorm,
        sampling_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
    )


def lopsided_space():
    """A table-less, asymmetric map: F(x, y) steps at the gap, or at three times it when x[0] > y[0]."""

    def lopsided(x, y):
        gap = float(np.linalg.norm(x - y))
        return DiracStep(gap if x[0] <= y[0] else 3.0 * gap)

    return PCMSpace(dim=2, distance=lopsided, tnorm=TNorm.MINIMUM)


class Decay(DistFn):
    """F(t) = c * e / (e + t): at most c, and falling in t, as no distribution function does."""

    def __init__(self, c, e):
        self.c, self.e = c, e

    def eval(self, t):
        return self.c * self.e / (self.e + np.asarray(t, dtype=float))


def diagonal_one_space(tnorm):
    """A table-less map with F(x, x) = 1 and F(x, y) at most 0.25 elsewhere.

    An unmasked j == i or k == j term, T(1, F_ik(s)) or T(F_ik(t), 1),
    would be the largest T of its cell; its margin F_ik(t + s) - F_ik(t)
    is negative, so it would choose another row to replay than the valid
    triples do.
    """

    def distance(x, y):
        if np.array_equal(x, y):
            return Constant(1.0)
        return Decay(0.05 + 0.1 * (min(x[0], y[0]) + 1.0), 1.5 + x[1])

    return PCMSpace(dim=2, distance=distance, tnorm=tnorm)


class SignedZeroStep(DistFn):
    """The Dirac step at d, with ``zero`` (0.0 or -0.0) below it."""

    def __init__(self, d, zero):
        self.d, self.zero = d, zero

    def eval(self, t):
        return np.where(np.asarray(t, dtype=float) > self.d, 1.0, self.zero)


def signed_zero_space(tnorm):
    """A table-less Dirac space whose zeros are -0.0 when x[0] > y[0]."""

    def distance(x, y):
        return SignedZeroStep(float(np.linalg.norm(x - y)), -0.0 if x[0] > y[0] else 0.0)

    return PCMSpace(dim=2, distance=distance, tnorm=tnorm)


def reference_triangle(space, n_points, grid, seed):
    """Worst triangle margin and its witness, one ordered triple at a time.

    The plain loop that the block reduction in ``check_axioms`` must
    reproduce: a ``TNorm.apply`` per triple, triples in lexicographic order,
    the first flat argmin over (t, s) within a triple, and a strict ``<``
    across triples.
    """
    grid = TimeGrid.coerce(grid)
    pts = sample_points(space, n_points, np.random.default_rng(seed))
    t = grid.points
    ts_matrix = t[:, None] + t[None, :]
    dists = [[space.distance(pts[i], pts[j]) for j in range(n_points)] for i in range(n_points)]
    worst = None
    witness = None
    for i in range(n_points):
        for j in range(n_points):
            for k in range(n_points):
                if i == j or j == k or i == k:
                    continue
                rhs = space.tnorm.apply(dists[i][j].eval(t)[:, None], dists[j][k].eval(t)[None, :])
                margins = np.asarray(dists[i][k].eval(ts_matrix)) - rhs
                flat = int(np.argmin(margins))
                margin = float(margins.flat[flat])
                if worst is None or margin < worst:
                    ti, si = divmod(flat, len(t))
                    worst = margin
                    witness = {"i": i, "j": j, "k": k, "t": float(t[ti]), "s": float(t[si])}
    return worst, witness


def assert_triangle_matches_reference(space, n_points, grid=None, seed=0):
    # A tolerance below -1 fails every check, so the witness is always reported;
    # 2 and 3 workers split the rows into runs of unequal length unless they divide n.
    worst, witness = reference_triangle(space, n_points, grid, seed)
    for workers in (1, 2, 3):
        report = check_axioms(space, n_points=n_points, grid=grid, tol=-2.0, seed=seed, workers=workers)
        # repr tells -0.0 from 0.0, and the sign of a zero reaches the report bytes
        assert repr(report.triangle.worst_margin) == repr(worst)
        assert report.triangle.witness == witness


def replay_triangle(space, n_points, grid=None, seed=0):
    """Worst triangle margin and its witness by the per-(i, j) block replay.

    Each block holds one (i, j)'s (k, t, s) margins, F_ik(t + s) -
    T(F_ij(t), F_jk(s)) from one ``_combine`` pass, with k == i and k == j
    masked by +inf; ``_first_worst`` reads the blocks in lexicographic (i, j)
    order. The witness search in ``check_axioms`` must reproduce this bit
    for bit, the sign of a zero included.
    """
    grid = TimeGrid.coerce(grid)
    pts = sample_points(space, n_points, np.random.default_rng(seed))
    t = grid.points
    g = len(t)
    sums = (t[:, None] + t[None, :]).ravel()
    rows, cols = np.divmod(np.arange(n_points * n_points), n_points)
    on_grid = space.distance_values(pts[rows], pts[cols], t).reshape(n_points, n_points, g)

    def blocks():
        for i in range(n_points):
            lhs = space.distance_values(pts[[i] * n_points], pts, sums).reshape(n_points, g, g)
            lhs[i] = np.inf  # masks k == i
            for j in range(n_points):
                if j != i:
                    margins = lhs - space.tnorm._combine(on_grid[i, j][None, :, None], on_grid[j][:, None, :])
                    margins[j] = np.inf  # masks k == j
                    yield margins

    worst, _, (b, k, ti, si) = _first_worst(blocks(), 0.0)
    i, j = divmod(b, n_points - 1)
    j += j >= i  # block b is the j-th point other than i
    return worst, {"i": i, "j": j, "k": k, "t": float(t[ti]), "s": float(t[si])}


def assert_triangle_matches_replay(space, n_points, grid=None, seeds=range(1)):
    for seed in seeds:
        worst, witness = replay_triangle(space, n_points, grid, seed)
        for workers in (1, 2, 3):
            report = check_axioms(space, n_points=n_points, grid=grid, tol=-2.0, seed=seed, workers=workers)
            assert repr(report.triangle.worst_margin) == repr(worst)
            assert report.triangle.witness == witness


class ColumnLoopMaxCombine(_MaxCombine):
    """``_MaxCombine`` without operand grouping: one t-norm pass over the whole table per column."""

    def __call__(self, a, out):
        scratch = np.empty(self._table.shape)
        for p in range(a.shape[1]):
            self._ufunc(a[:, p, None], self._table, out=scratch)
            np.maximum.reduce(scratch, axis=0, out=out[p])
        if self._clamp:
            np.maximum(out, 0.0, out=out)
        return out


def reference_sample_points(space, n, rng):
    """The one-candidate-per-draw rejection loop that block sampling replaces."""
    lo = space.sampling_box[:, 0]
    hi = space.sampling_box[:, 1]
    out = np.empty((n, space.dim))
    filled = 0
    for _ in range(100_000):
        candidate = rng.uniform(lo, hi)
        if space.feasible(candidate):
            out[filled] = candidate
            filled += 1
            if filled == n:
                return out
    raise InfeasibleRegionError(f"infeasible sampling region: {filled}/{n} points after 100000 attempts")


class TestSampling:
    def test_inside_box(self):
        space = dirac_space(sampling_box=np.array([[0.0, 1.0], [2.0, 3.0]]))
        pts = sample_points(space, 100, np.random.default_rng(0))
        assert pts.shape == (100, 2)
        assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 1.0)
        assert np.all(pts[:, 1] >= 2.0) and np.all(pts[:, 1] <= 3.0)

    def test_rejection_against_cone(self):
        space = dirac_space(point_cone=Orthant(2))
        pts = sample_points(space, 200, np.random.default_rng(1))
        assert np.all(pts >= -1e-12)

    def test_infeasible_region_errors(self):
        # same message and final generator state as the one-candidate loop
        space = dirac_space(
            point_cone=Orthant(2), sampling_box=np.array([[-2.0, -1.0], [-2.0, -1.0]])
        )
        block_rng = np.random.default_rng(2)
        ref_rng = np.random.default_rng(2)
        with pytest.raises(InfeasibleRegionError) as raised:
            sample_points(space, 3, block_rng)
        with pytest.raises(InfeasibleRegionError) as expected:
            reference_sample_points(space, 3, ref_rng)
        assert str(raised.value) == str(expected.value)
        assert "0/3 points after 100000 attempts" in str(raised.value)
        assert block_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_more_points_than_the_cap_refused_before_a_draw(self):
        # the CLI schema refuses these counts first; library callers get this
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="cannot sample 100001 points: at most 100000 candidates"):
            sample_points(dirac_space(), 100_001, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "box",
        [
            [[-1e308, 1e308], [0.0, 1.0]],
            [[0.0, np.nan], [0.0, 1.0]],
            [[np.nan, np.nan], [0.0, 1.0]],
            [[-np.inf, 0.0], [0.0, 1.0]],
            [[0.0, 1.0], [0.0, np.inf]],
            [[np.inf, np.inf], [0.0, 1.0]],
        ],
        ids=["overflowing-width", "nan-bound", "nan-box", "minus-inf", "plus-inf", "inf-to-inf"],
    )
    def test_box_without_a_finite_width_is_refused_without_a_warning(self, box):
        # the module turns a RuntimeWarning into an error, so hi - lo warns nothing
        with pytest.raises(InvalidParameterError, match=r"^sampling box widths hi - lo must be finite and >= 0, got "):
            dirac_space(sampling_box=np.array(box))

    def test_widest_finite_box_samples(self):
        space = dirac_space(sampling_box=np.array([[-1e308, 0.0], [0.0, 1e308]]))
        pts = sample_points(space, 20, np.random.default_rng(7))
        assert np.all(np.isfinite(pts))
        assert np.all((pts[:, 0] <= 0.0) & (pts[:, 1] >= 0.0))

    def test_reversed_box_is_refused(self):
        with pytest.raises(InvalidParameterError, match=r"must be finite and >= 0, got \[-1.0, 1.0\]"):
            dirac_space(sampling_box=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_degenerate_box_repeats_one_point(self):
        space = dirac_space(sampling_box=np.array([[0.3, 0.3], [0.7, 0.7]]))
        pts = sample_points(space, 5, np.random.default_rng(3))
        assert np.all(pts == np.array([0.3, 0.7]))


class TestCheckAxioms:
    def test_dirac_space_passes(self):
        report = check_axioms(dirac_space(), n_points=8, seed=0)
        assert report.all_passed
        assert report.identity.witness is None
        assert report.sub_distribution_pairs == ()

    def test_dirac_space_passes_for_many_seeds(self):
        for seed in range(5):
            assert check_axioms(dirac_space(tnorm=TNorm.MINIMUM), n_points=6, seed=seed).all_passed

    def test_single_repeated_point(self):
        space = dirac_space(sampling_box=np.array([[0.3, 0.3], [0.7, 0.7]]))
        report = check_axioms(space, n_points=4, seed=0)
        assert report.all_passed
        # every pair is a diagonal pair, indistinguishable from identity
        assert len(report.identity_ambiguous_pairs) == 6

    def test_cone_gaussian_space_flags(self):
        report = check_axioms(cone_gaussian_space(delta=0.5), n_points=8, seed=3)
        assert len(report.sub_distribution_pairs) > 0
        assert not report.symmetry.passed
        witness = report.symmetry.witness
        assert witness is not None
        assert abs(witness["forward"] - witness["reverse"]) > 0.05
        assert any("sub-distribution" in note for note in report.notes)

    def test_explicit_asymmetry_orientation(self):
        # pick a pair with u - v in the orthant: forward sees the shifted
        # Gaussian, reverse sees the scaled sub-distribution
        space = cone_gaussian_space(delta=0.5)
        u = np.array([0.6, 0.7])
        v = np.array([0.2, 0.3])
        forward = space.distance(u, v)
        reverse = space.distance(v, u)
        assert forward.is_proper
        assert not reverse.is_proper

    def test_user_sub_distribution_without_override(self):
        class HalfStep(DistFn):
            """Half the Dirac step at d: F(+inf) = 0.5, with no ``is_proper`` of its own."""

            def __init__(self, d):
                self.d = d

            def eval(self, t):
                return np.where(np.asarray(t, dtype=float) > self.d, 0.5, 0.0)

        def distance(x, y):
            d = float(np.linalg.norm(x - y))
            return HalfStep(d) if x[0] > y[0] else DiracStep(d)

        assert not HalfStep(1.0).is_proper
        report = check_axioms(PCMSpace(dim=2, distance=distance, tnorm=TNorm.MINIMUM), n_points=5, seed=2)
        x = report.points[:, 0]
        assert report.sub_distribution_pairs == tuple(
            (i, j) for i in range(5) for j in range(5) if x[i] > x[j]
        )
        assert report.sub_distribution_pairs

    def test_feasibility_check_with_cone(self):
        space = dirac_space(point_cone=Orthant(2))
        report = check_axioms(space, n_points=6, seed=1)
        assert report.feasibility.passed
        assert report.feasibility.worst_margin >= -1e-12

    def test_requires_three_points(self):
        with pytest.raises(InvalidParameterError):
            check_axioms(dirac_space(), n_points=2)

    def test_worker_count_does_not_change_report(self):
        # the cone-gaussian report fails three checks, so witnesses are compared
        # too; every Lukasiewicz triangle margin ties at 0
        spaces = (
            dirac_space(),
            cone_gaussian_space(delta=0.5),
            dirac_space(dim=3, tnorm=TNorm.LUKASIEWICZ, point_cone=Orthant(3)),
        )
        for space in spaces:
            for n_points in (5, 7):
                first = check_axioms(space, n_points=n_points, seed=5, workers=1)
                one = canonical_json(axiom_report_to_dict(first))
                for workers in (2, 3, 8):
                    many = check_axioms(space, n_points=n_points, seed=5, workers=workers)
                    assert canonical_json(axiom_report_to_dict(many)) == one

    def test_triangle_failure_carries_witness(self):
        grid = TimeGrid(np.linspace(0.05, 8.0, 160))
        report = check_axioms(squared_distance_space(), n_points=8, seed=2, grid=grid)
        assert not report.triangle.passed
        assert report.triangle.witness is not None
        assert {"i", "j", "k", "t", "s"} <= set(report.triangle.witness)
        assert report.identity.passed and report.symmetry.passed


class TestTriangleKernel:
    """The block reduction in ``check_axioms`` against the per-triple loop."""

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_squared_distance_space(self, tnorm):
        grid = TimeGrid(np.linspace(0.05, 8.0, 160))
        assert_triangle_matches_reference(squared_distance_space(tnorm), 8, grid, seed=2)

    def test_dirac_lukasiewicz_ties_everywhere(self):
        # every margin is 0 here, so the witness is decided by tie-breaking alone
        space = dirac_space(dim=3, tnorm=TNorm.LUKASIEWICZ, point_cone=Orthant(3))
        for n_points in (5, 6, 7):
            report = check_axioms(space, n_points=n_points, seed=1)
            assert report.triangle.passed and report.triangle.worst_margin == 0.0
            assert_triangle_matches_reference(space, n_points, seed=1)

    def test_repeated_point(self):
        space = dirac_space(sampling_box=np.array([[0.3, 0.3], [0.7, 0.7]]), tnorm=TNorm.PRODUCT)
        assert_triangle_matches_reference(space, 4, seed=0)

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_three_points(self, tnorm):
        # one j per (i, k): every row's max over j is a single term
        grid = [0.25, 0.5, 1.0, 2.0]
        for space in (dirac_space(tnorm=tnorm), cone_gaussian_space(delta=0.5, tnorm=tnorm)):
            for seed in range(4):
                assert_triangle_matches_reference(space, 3, seed=seed)
                assert_triangle_matches_reference(space, 3, grid, seed)
        assert_triangle_matches_reference(squared_distance_space(tnorm), 3, TimeGrid(np.linspace(0.05, 8.0, 160)), 2)

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_diagonal_one_is_masked(self, tnorm):
        for n_points, seed in ((3, 0), (4, 0), (5, 0), (6, 1)):
            assert_triangle_matches_reference(diagonal_one_space(tnorm), n_points, seed=seed)

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_signed_zeros(self, tnorm):
        # every margin is 1 or a zero of either sign: the replayed row decides the sign
        space = signed_zero_space(tnorm)
        signs = set()
        for seed in range(6):
            report = check_axioms(space, n_points=5, seed=seed)
            signs.add(repr(report.triangle.worst_margin))
            assert_triangle_matches_reference(space, 5, seed=seed)
        assert "-0.0" in signs

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["dirac", "gauss", "squared"]),
        tnorm=st.sampled_from(list(TNorm)),
        n_points=st.integers(3, 6),
        grid=st.one_of(
            st.none(),
            st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True).map(sorted),
            st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8, unique=True).map(sorted),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_triple_loop(self, kind, tnorm, n_points, grid, seed):
        if kind == "dirac":
            space = dirac_space(tnorm=tnorm)
        elif kind == "gauss":
            space = cone_gaussian_space(delta=0.5, tnorm=tnorm)
        else:
            space = squared_distance_space(tnorm)
        assert_triangle_matches_reference(space, n_points, grid, seed)

    @pytest.mark.parametrize("tnorm", list(TNorm))
    @pytest.mark.parametrize(
        "make_space",
        [
            lambda tnorm: cone_gaussian_space(delta=0.5, tnorm=tnorm),
            lambda tnorm: dirac_space(dim=3, tnorm=tnorm, point_cone=Orthant(3)),
        ],
        ids=["cone-gaussian", "orthant3-dirac"],
    )
    def test_reports_equal_the_column_loop(self, monkeypatch, make_space, tnorm):
        # the benchmark's spaces and size; tol=-2 fails every check, so every witness is shown
        space = make_space(tnorm)

        def reports():
            return [
                repr(check_axioms(space, n_points=24, tol=-2.0, seed=seed, workers=workers))
                for seed in range(5)
                for workers in (1, 2)
            ]

        grouped = reports()
        monkeypatch.setattr(probcone.space, "_MaxCombine", ColumnLoopMaxCombine)
        assert grouped == reports()

    @pytest.mark.parametrize(
        "space",
        [
            cone_gaussian_space(delta=0.5, tnorm=TNorm.MINIMUM),
            cone_gaussian_space(delta=0.5, tnorm=TNorm.PRODUCT),
            dirac_space(dim=3, tnorm=TNorm.LUKASIEWICZ, point_cone=Orthant(3)),
        ],
        ids=["cone-gaussian-min", "cone-gaussian-product", "orthant3-dirac-lukasiewicz"],
    )
    def test_witness_matches_the_block_replay_at_benchmark_size(self, space):
        # the orthant Dirac rows tie at 0 in tens of thousands of cells; a
        # cone-Gaussian row keeps about one
        assert_triangle_matches_replay(space, 24, seeds=range(10))

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_witness_matches_the_block_replay_on_ties_zeros_and_nans(self, tnorm):
        repeated = dirac_space(sampling_box=np.array([[0.3, 0.3], [0.7, 0.7]]), tnorm=tnorm)
        assert_triangle_matches_replay(repeated, 4)
        assert_triangle_matches_replay(signed_zero_space(tnorm), 5, seeds=range(6))
        # NaN in F_ik(t + s) past t + s = 150, only in the rows of points with x[0] > 0
        nan_above = PCMSpace(
            dim=2,
            distance=lambda x, y: NanAbove(float(np.linalg.norm(x - y)), 150.0 if x[0] > 0.0 else np.inf),
            tnorm=tnorm,
        )
        assert_triangle_matches_replay(nan_above, 5, seeds=range(4))
        assert_triangle_matches_replay(BROKEN_SPACES["nan-identity"], 5, grid=[0.5, 1.0, 2.0], seeds=range(6))

    def test_table_of_another_dtype(self):
        # a float32 table of Dirac steps holds the same 0s and 1s
        space = dirac_space(dim=3, point_cone=Orthant(3))

        def distance(x, y):
            return space.distance(x, y)

        distance.table = lambda X, Y, t: space.distance.table(X, Y, t).astype(np.float32)
        narrow = PCMSpace(dim=3, distance=distance, tnorm=space.tnorm, point_cone=space.point_cone)
        assert repr(check_axioms(narrow, n_points=6, tol=-2.0)) == repr(check_axioms(space, n_points=6, tol=-2.0))

    def test_operands_outside_unit_interval_rejected(self):
        class Doubled(DistFn):
            def eval(self, t):
                return np.full(np.shape(t), 2.0)

        space = PCMSpace(dim=1, distance=lambda x, y: Doubled(), tnorm=TNorm.MINIMUM)
        with pytest.raises(InvalidParameterError, match="must lie in"):
            check_axioms(space, n_points=3)

    def test_peak_memory_at_benchmark_size(self, traced_peak):
        # Each task streams F_ik(t + s) through two (n, G, G) buffers (0.46 MiB
        # each at n=24 on the default grid); an (n, n, G, G) table of F_ik(t + s)
        # alone would be 11 MiB.
        space = cone_gaussian_space(delta=0.5)
        for workers in (1, 2):
            _, peak = traced_peak(check_axioms, space, n_points=24, seed=1, workers=workers)
            assert peak < 6 * 2**20

    def test_peak_memory_grows_with_n_not_n_squared(self, traced_peak):
        # an (n, n, G, G) table of F_ik(t + s) alone would be 44 MiB at n=48,
        # 4.4 times the bound
        _, peak = traced_peak(check_axioms, cone_gaussian_space(delta=0.5), n_points=48, seed=1)
        assert peak < 10 * 2**20


def reference_pair_checks(space, n_points, grid, tol, seed):
    """Identity, symmetry and the pair lists, one ``DistFn`` per ordered pair.

    The per-pair loops that the table reductions in ``check_axioms`` must
    reproduce: each row's (pair's) worst t, then a strict ``<`` across rows
    (pairs i < j in lexicographic order). Across identity rows a NaN margin
    counts as smaller than any number, so the first NaN row is the witness.
    """
    grid = TimeGrid.coerce(grid)
    pts = sample_points(space, n_points, np.random.default_rng(seed))
    t = grid.points
    dists = [[space.distance(pts[i], pts[j]) for j in range(n_points)] for i in range(n_points)]
    on_grid = np.array([[dists[i][j].eval(t) for j in range(n_points)] for i in range(n_points)], dtype=float)
    id_worst = id_witness = None
    for i in range(n_points):
        vals = on_grid[i][i]
        k = int(np.argmin(vals))
        margin = float(vals[k] - 1.0)
        if id_worst is None or margin < id_worst or (np.isnan(margin) and not np.isnan(id_worst)):
            id_worst = margin
            id_witness = {"index": i, "point": pts[i].tolist(), "t": float(t[k]), "value": float(vals[k])}
    ambiguous, sub_pairs = [], []
    sym_worst = sym_witness = None
    for i in range(n_points):
        for j in range(i + 1, n_points):
            fij, fji = on_grid[i][j], on_grid[j][i]
            gap = np.abs(fij - fji)
            k = int(np.argmax(gap))
            margin = -float(gap[k])
            if sym_worst is None or margin < sym_worst:
                sym_worst = margin
                sym_witness = {"i": i, "j": j, "t": float(t[k]), "forward": float(fij[k]), "reverse": float(fji[k])}
            if np.all(fij >= 1.0 - tol) and np.all(fji >= 1.0 - tol):
                ambiguous.append((i, j))
            if not dists[i][j].is_proper:
                sub_pairs.append((i, j))
            if not dists[j][i].is_proper:
                sub_pairs.append((j, i))
    return (id_worst, id_witness), (sym_worst, sym_witness), tuple(ambiguous), tuple(sorted(set(sub_pairs)))


def assert_pair_checks_match_reference(space, n_points, grid=None, seed=0):
    # tol = -2 fails every check, so the witnesses are always reported; tol = 0
    # lets pairs at 1 across the grid count as consistent with identity.
    for tol in (-2.0, 0.0):
        report = check_axioms(space, n_points=n_points, grid=grid, tol=tol, seed=seed)
        (id_worst, id_witness), (sym_worst, sym_witness), ambiguous, sub_pairs = reference_pair_checks(
            space, n_points, grid, tol, seed
        )
        # repr tells -0.0 from 0.0 and prints NaN, so equal reprs mean equal bits; a
        # reference check passes iff its worst margin is >= -tol, which a NaN fails
        assert repr(report.identity) == repr(_passfail("identity", id_worst, id_worst >= -tol, id_witness))
        assert repr(report.symmetry) == repr(_passfail("symmetry", sym_worst, sym_worst >= -tol, sym_witness))
        assert repr(report.identity_ambiguous_pairs) == repr(ambiguous)
        assert repr(report.sub_distribution_pairs) == repr(sub_pairs)


class Constant(DistFn):
    """F(t) = value for every t; NaN breaks the contract, as a user map may."""

    def __init__(self, value):
        self.value = value

    def eval(self, t):
        return np.full(np.shape(t), self.value)


def broken_space(diagonal=None, one_sided=False):
    """A Dirac space with a user-supplied F(x, x), or with F(x, y) = 1 when x[0] >= y[0]."""

    def distance(x, y):
        if diagonal is not None and np.array_equal(x, y):
            return Constant(diagonal(x))
        if one_sided and x[0] >= y[0]:
            return DiracStep(0.0)
        return DiracStep(float(np.linalg.norm(x - y)))

    return PCMSpace(dim=2, distance=distance, tnorm=TNorm.MINIMUM)


BROKEN_SPACES = {
    # NaN only for x[0] > 0, so row 0 holds a NaN margin for some seeds and a number for others
    "nan-identity": broken_space(diagonal=lambda x: np.nan if x[0] > 0.0 else 1.0),
    # distinct values whose margins v - 1.0 all round to -1.0: the first row wins, not the smallest value
    "tiny-identity": broken_space(diagonal=lambda x: 1e-17 * (2.0 + x[0])),
    # F(x, y) sits at 1 in one direction only, so no pair is consistent with identity
    "one-sided": broken_space(one_sided=True),
}


class TestPairChecks:
    """Identity, symmetry and the pair lists in ``check_axioms`` against the per-pair loops."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["dirac", "gauss", "squared"]),
        tnorm=st.sampled_from(list(TNorm)),
        n_points=st.integers(3, 7),
        grid=st.one_of(
            st.none(),
            st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True).map(sorted),
            st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8, unique=True).map(sorted),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_pair_loops(self, kind, tnorm, n_points, grid, seed):
        if kind == "dirac":
            space = dirac_space(tnorm=tnorm)
        elif kind == "gauss":
            space = cone_gaussian_space(delta=0.5, tnorm=tnorm)
        else:
            space = squared_distance_space(tnorm)
        assert_pair_checks_match_reference(space, n_points, grid, seed)

    @pytest.mark.parametrize("tnorm", list(TNorm))
    def test_repeated_point(self, tnorm):
        # every pair ties at 1 everywhere, so every witness is decided by tie-breaking
        space = dirac_space(sampling_box=np.array([[0.3, 0.3], [0.7, 0.7]]), tnorm=tnorm)
        report = check_axioms(space, n_points=5, seed=0)
        assert len(report.identity_ambiguous_pairs) == 10
        assert_pair_checks_match_reference(space, 5, seed=0)
        assert_pair_checks_match_reference(space, 5, grid=[0.5, 1.0, 2.0], seed=3)

    @pytest.mark.parametrize("name", sorted(BROKEN_SPACES))
    def test_broken_axioms(self, name):
        for seed in range(6):
            assert_pair_checks_match_reference(BROKEN_SPACES[name], 5, grid=[0.5, 1.0, 2.0], seed=seed)

    def test_distance_values_supplies_the_grid_table(self):
        space = cone_gaussian_space(delta=0.5)
        calls = []

        def table(X, Y, t):
            calls.append((len(X), t.size))
            return space.distance.table(X, Y, t)

        def distance(x, y):
            calls.append("distance")
            return space.distance(x, y)

        distance.table = table
        n, g = 6, 7
        check_axioms(PCMSpace(dim=2, distance=distance, tnorm=space.tnorm), n_points=n, grid=np.arange(1.0, g + 1))
        # the (n, n, G + 1) table of the grid and F(+inf), then one
        # (n - 1, G(G + 1)/2) block of F_ik at the distinct sums t + s per row;
        # the witness is found with no further read
        sums = g * (g + 1) // 2
        assert calls == [(n * n, g + 1)] + [(n - 1, sums)] * n

    def test_table_less_map_distance_calls(self):
        # one DistFn per ordered pair for the grid and F(+inf), then one per
        # off-diagonal pair for the sums t + s: 2n^2 - n
        space = dirac_space()
        calls = []

        def distance(x, y):
            calls.append(1)
            return space.distance(x, y)

        n = 8
        check_axioms(PCMSpace(dim=2, distance=distance, tnorm=space.tnorm), n_points=n)
        assert len(calls) == 2 * n * n - n == 120


class NanAbove(DistFn):
    """The Dirac step at d, but NaN for t > t_nan: a user map that breaks the contract."""

    def __init__(self, d, t_nan):
        self.d, self.t_nan = d, t_nan

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > self.t_nan, np.nan, np.where(t > self.d, 1.0, 0.0))


class TestNaNMargins:
    """A NaN margin is the worst: it fails the check, and the first NaN is the witness."""

    def test_nan_identity_outside_row_zero_fails(self):
        report = check_axioms(BROKEN_SPACES["nan-identity"], 5, grid=[0.5, 1.0, 2.0], seed=2)
        first = int(np.flatnonzero(report.points[:, 0] > 0.0)[0])
        assert first > 0
        check = report.identity
        assert not check.passed and np.isnan(check.worst_margin)
        assert (check.witness["index"], check.witness["t"]) == (first, 0.5)
        assert np.isnan(check.witness["value"])

    def test_nan_only_in_f_ik_at_t_plus_s_fails_the_triangle(self):
        # NaN past the grid's last time (100), so only F_ik(t + s) holds it, and
        # only in the rows of points with x[0] > 0: the rows before hold numbers
        def distance(x, y):
            return NanAbove(float(np.linalg.norm(x - y)), 150.0 if x[0] > 0.0 else np.inf)

        space = PCMSpace(dim=2, distance=distance, tnorm=TNorm.MINIMUM)
        t = TimeGrid.default().points
        ti, si = divmod(int(np.flatnonzero(t[:, None] + t[None, :] > 150.0)[0]), len(t))
        for workers in (1, 2, 3):
            report = check_axioms(space, n_points=5, seed=2, workers=workers)
            first = int(np.flatnonzero(report.points[:, 0] > 0.0)[0])
            assert first > 0
            assert report.identity.passed and report.symmetry.passed
            assert not report.triangle.passed and np.isnan(report.triangle.worst_margin)
            k = min({0, 1, 2} - {0, first})
            assert report.triangle.witness == {"i": first, "j": 0, "k": k, "t": float(t[ti]), "s": float(t[si])}

    def test_nan_distance_value_names_the_pair_and_time(self):
        space = PCMSpace(dim=2, distance=lambda x, y: NanAbove(float(np.linalg.norm(x - y)), 50.0), tnorm=TNorm.MINIMUM)
        k = int(np.flatnonzero(TimeGrid.default().points > 50.0)[0])
        with pytest.raises(InvalidParameterError) as info:
            check_axioms(space, n_points=5)
        assert str(info.value) == (
            f"distance values F(x_i, x_j)(t_k) must be finite; entry (0, 1, {k}) of the (5, 5, 50) array is nan"
        )


class TestTauConverged:
    def test_dirac_reduction(self):
        space = dirac_space()
        assert tau_converged(space, [0.0, 0.0], [0.5, 0.0], eps=1.0)
        # boundary: distance 0.5 is not < 0.5, by left-continuity
        assert not tau_converged(space, [0.0, 0.0], [0.5, 0.0], eps=0.5)

    def test_identical_points(self):
        space = dirac_space()
        for eps in (0.9, 0.5, 1e-6):
            assert tau_converged(space, [0.2, 0.1], [0.2, 0.1], eps=eps)

    def test_eps_validation(self):
        with pytest.raises(InvalidParameterError):
            tau_converged(dirac_space(), [0.0, 0.0], [1.0, 0.0], eps=0.0)

    def test_symmetric_when_axiom2_holds(self):
        space = dirac_space()
        rng = np.random.default_rng(9)
        for _ in range(100):
            x, y = rng.uniform(-1, 1, (2, 2))
            eps = rng.uniform(0.05, 2.0)
            assert tau_converged(space, x, y, eps) == tau_converged(space, y, x, eps)

    @pytest.mark.parametrize(
        "make",
        [lambda: dirac_space(), lambda: cone_gaussian_space(delta=0.5), squared_distance_space],
        ids=["dirac", "cone-gaussian", "tableless"],
    )
    def test_is_the_definition(self, make):
        space = make()
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(200):
            x, y = rng.uniform(-1, 1, (2, 2))
            eps = rng.uniform(0.05, 2.0)
            expected = float(space.distance(x, y).eval(eps)) > 1.0 - eps
            assert tau_converged(space, x, y, eps) is expected
            seen.add(expected)
        assert seen == {True, False}

    def test_reads_the_table_without_a_distance_call(self):
        base = dirac_space().distance
        calls = []

        def distance(x, y):
            calls.append((x, y))
            return base(x, y)

        distance.table = base.table
        space = PCMSpace(dim=2, distance=distance, tnorm=TNorm.MINIMUM)
        assert tau_converged(space, [0.0, 0.0], [0.5, 0.0], eps=1.0)
        assert not tau_converged(space, [0.0, 0.0], [0.5, 0.0], eps=0.5)
        assert calls == []

    def test_monotone_in_eps(self):
        space = dirac_space()
        rng = np.random.default_rng(10)
        for _ in range(200):
            x, y = rng.uniform(-1, 1, (2, 2))
            eps = rng.uniform(0.05, 2.0)
            if tau_converged(space, x, y, eps):
                assert tau_converged(space, x, y, eps * 1.5)


class TestCauchyWindow:
    def test_constant_window(self):
        space = dirac_space()
        x = np.array([0.4, -0.2])
        assert cauchy_window(space, [x, x, x], eps=1e-3)

    def test_spread_window_fails(self):
        space = dirac_space()
        assert not cauchy_window(space, [[0.0, 0.0], [1.0, 0.0]], eps=0.5)

    def test_orbit_tail(self):
        space = dirac_space()
        mapping = rotation_half_map()
        orbit = [np.array([1.0, 0.0])]
        for _ in range(30):
            orbit.append(mapping(orbit[-1]))
        assert cauchy_window(space, orbit[20:31], eps=0.1)
        assert not cauchy_window(space, orbit[0:5], eps=0.1)

    def test_reads_pairs_in_row_major_order_until_the_first_disagreeing_read(self, monkeypatch):
        monkeypatch.setattr(probcone.space, "_AGREEMENT_PAIRS", 5)
        lopsided = lopsided_space().distance  # (m, k) and (k, m) may disagree
        seen = []

        def recording(x, y):
            seen.append((float(x[0]), float(y[0])))
            return lopsided(x, y)

        space = PCMSpace(dim=2, distance=recording, tnorm=TNorm.MINIMUM)

        def window(*xs):
            return [[x, 0.0] for x in xs]

        def ordered_pairs(xs):
            return [(a, b) for m, a in enumerate(xs) for k, b in enumerate(xs) if m != k]

        # pair 7 of 12, (0.2, 0.0), is the first 0.5 or more apart: the second read of five is the last
        xs = (0.0, 0.1, 0.2, 0.3)
        assert not cauchy_window(space, window(*xs), eps=0.5)
        assert seen == ordered_pairs(xs)[:10]
        # pair 1, (0.0, 0.6), disagrees: the first read is the last
        seen.clear()
        xs = (0.0, 0.6, 0.1, 0.2)
        assert not cauchy_window(space, window(*xs), eps=0.5)
        assert seen == ordered_pairs(xs)[:5]
        # every pair is close: reads of 5, 5 and 2
        seen.clear()
        xs = (0.0, 0.05, 0.1, 0.15)
        assert cauchy_window(space, window(*xs), eps=0.5)
        assert seen == ordered_pairs(xs)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["dirac", "cone-gaussian", "squared", "lopsided"]),
        n=st.integers(1, 9),
        spread=st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
        eps=st.floats(0.01, 1.5),
        per_read=st.sampled_from([1, 4, 1 << 14]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_per_pair_loop(self, kind, n, spread, eps, per_read, seed):
        space = {
            "dirac": dirac_space,
            "cone-gaussian": lambda: cone_gaussian_space(delta=0.5),
            "squared": squared_distance_space,
            "lopsided": lopsided_space,
        }[kind]()
        pts = spread * np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(probcone.space, "_AGREEMENT_PAIRS", per_read)
            assert cauchy_window(space, pts, eps) is loop_cauchy_window(space, pts, eps)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            cauchy_window(dirac_space(), [], eps=0.1)
        with pytest.raises(InvalidParameterError, match="window must contain at least one point"):
            cauchy_window(dirac_space(), np.empty((0, 2)), eps=0.1)
        with pytest.raises(InvalidParameterError):
            cauchy_window(dirac_space(), [[0.0, 0.0]], eps=-1.0)


def loop_cauchy_window(space, pts, eps):
    """``cauchy_window`` as one ``tau_converged`` call per ordered pair, row by row."""
    return all(tau_converged(space, x, y, eps) for m, x in enumerate(pts) for k, y in enumerate(pts) if m != k)


class TestPointShapes:
    """A window or point of the wrong shape is refused, naming its shape."""

    @pytest.mark.parametrize(
        "window,message",
        [
            ([[0, 0], [0]], "window must be numeric points: "),
            ([[0, 0, 0], [0, 0, 0]], "window must have shape (n, 2), got shape (2, 3)"),
            ([0.5, 0.5], "window must have shape (n, 2), got shape (2,)"),
            (0.5, "window must have shape (n, 2), got shape ()"),
            ([["a", "b"]], "window must be numeric points: "),
        ],
        ids=["ragged", "3-d", "scalar-points", "scalar", "non-numeric"],
    )
    def test_cauchy_window(self, window, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            cauchy_window(dirac_space(), window, 0.1)

    @pytest.mark.parametrize(
        "x,y,message",
        [
            ([0, 0], [0], "y must have dimension 2, got shape (1,)"),
            ([0, 0, 0], [0, 0], "x must have dimension 2, got shape (3,)"),
            (0.0, [0, 0], "x must have dimension 2, got shape ()"),
            ([0, 0], 0.0, "y must have dimension 2, got shape ()"),
            ([0, 0], [[0, 0]], "y must have dimension 2, got shape (1, 2)"),
            ([0, 0], ["a", "b"], "y must be a numeric point: "),
        ],
        ids=["short-y", "long-x", "scalar-x", "scalar-y", "stacked-y", "non-numeric-y"],
    )
    def test_tau_converged(self, x, y, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            tau_converged(dirac_space(), x, y, 0.1)


def per_row_values(space, X, Y, t):
    return np.array([np.asarray(space.distance(x, y).eval(t), dtype=float) for x, y in zip(X, Y)])


class TestDistanceValues:
    """``PCMSpace.distance_values`` against one ``distance(x, y).eval(t)`` per row."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 3),
        n=st.integers(0, 40),
        scale=st.sampled_from([1e-9, 1.0, 1e150]),
        repeat=st.booleans(),
        grid=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8, unique=True).map(sorted),
        seed=st.integers(0, 2**16),
    )
    def test_dirac_bitwise(self, dim, n, scale, repeat, grid, seed):
        rng = np.random.default_rng(seed)
        X = scale * rng.uniform(-1, 1, (n, dim))
        Y = X.copy() if repeat else scale * rng.uniform(-1, 1, (n, dim))
        space = dirac_space(dim=dim)
        t = np.asarray(grid)
        values = space.distance_values(X, Y, t)
        assert values.shape == (n, len(t))
        assert np.array_equal(values, per_row_values(space, X, Y, t).reshape(n, len(t)))

    def test_cone_gaussian_gate_boundary_bitwise(self):
        # diff components exactly at 0 and at +-1e-12 straddle the gate's tolerance
        comps = [0.0, 1e-12, -1e-12, -1.0000001e-12, 0.3, -0.3]
        diffs = np.array([[a, b] for a in comps for b in comps])
        # X - Y reproduces each diff exactly: (diff, 0) and (0, -diff)
        X = np.concatenate([diffs, np.zeros_like(diffs)])
        Y = np.concatenate([np.zeros_like(diffs), -diffs])
        space = cone_gaussian_space(delta=0.5)
        t = np.geomspace(1e-3, 1e2, 50)
        values = space.distance_values(X, Y, t)
        assert np.array_equal(values, per_row_values(space, X, Y, t))
        # both branches occur
        assert {space.distance(x, y).is_proper for x, y in zip(X, Y)} == {True, False}

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 40),
        grid=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8, unique=True).map(sorted),
        seed=st.integers(0, 2**16),
    )
    def test_cone_gaussian_bitwise(self, n, grid, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (n, 2))
        Y = rng.uniform(-1, 1, (n, 2))
        space = cone_gaussian_space(delta=0.5)
        t = np.asarray(grid)
        assert np.array_equal(space.distance_values(X, Y, t), per_row_values(space, X, Y, t).reshape(n, len(t)))

    def test_user_map_without_table(self):
        space = squared_distance_space()
        rng = np.random.default_rng(6)
        X, Y = rng.uniform(-1, 1, (2, 9, 2))
        t = np.linspace(0.1, 3.0, 7)
        assert np.array_equal(space.distance_values(X, Y, t), per_row_values(space, X, Y, t))

    @pytest.mark.parametrize("make", [lambda: dirac_space(), lambda: cone_gaussian_space(delta=0.5)])
    def test_non_finite_distance_raises_like_distance(self, make):
        space = make()
        X = np.array([[0.0, 0.0], [1.5e308, 1.5e308]])
        Y = np.array([[0.0, 0.0], [-1.5e308, -1.5e308]])
        t = np.array([1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidParameterError) as expected:
                space.distance(X[1], Y[1])
            with pytest.raises(InvalidParameterError) as raised:
                space.distance_values(X, Y, t)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "make,family,gap",
        [
            (dirac_space, DiracStep, np.inf),
            (dirac_space, DiracStep, np.nan),
            (cone_gaussian_space, GaussianShift, np.inf),
        ],
        ids=["dirac-inf", "dirac-nan", "cone-gaussian-inf"],
    )
    def test_bad_gap_raises_the_constructors_words(self, make, family, gap):
        # the gap of the second row is `gap`; a cone-gaussian row is inside the gate
        X = np.array([[0.5, 0.0], [gap, 0.0]])
        Y = np.zeros((2, 2))
        with pytest.raises(InvalidParameterError) as expected:
            family(gap)
        with pytest.raises(InvalidParameterError) as raised:
            make().distance_values(X, Y, np.array([1.0]))
        assert str(raised.value) == str(expected.value)

    def test_cone_gaussian_nan_gap_agrees_with_distance(self):
        # a NaN difference is not inside the gate, but both forms check the gap before the gate
        X = np.array([[np.nan, 1.0], [1.0, np.nan]])
        Y = np.zeros((2, 2))
        space = cone_gaussian_space(delta=0.5)
        with pytest.raises(InvalidParameterError) as expected:
            space.distance(X[0], Y[0])
        with pytest.raises(InvalidParameterError) as raised:
            space.distance_values(X, Y, np.array([0.5, 1.0, np.inf]))
        assert str(raised.value) == str(expected.value) == "GaussianShift offset must be finite, got nan"


class TestBlockSampling:
    """Block draws yield the same points and leave the generator in the same state."""

    @pytest.mark.parametrize(
        "space",
        [
            dirac_space(dim=2),
            dirac_space(dim=3, point_cone=Orthant(3)),
            # a thin wedge: about 1 draw in 16 is accepted
            dirac_space(dim=2, point_cone=Halfspaces(np.array([[0.0, 1.0], [1.0, -2.0]]))),
        ],
        ids=["no-cone", "orthant3", "wedge"],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_one_at_a_time(self, space, n):
        for seed in range(3):
            block_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            assert np.array_equal(sample_points(space, n, block_rng), reference_sample_points(space, n, ref_rng))
            assert block_rng.bit_generator.state == ref_rng.bit_generator.state
