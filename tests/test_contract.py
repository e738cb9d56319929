import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probcone import (
    DiracStep,
    DistFn,
    InvalidParameterError,
    Orthant,
    PCMSpace,
    RateNotCertifiedError,
    TimeGrid,
    TNorm,
    check_banach,
    check_chatterjea,
    check_kannan,
    check_zamfirescu,
    sample_pairs,
    zamfirescu_delta,
)
from probcone.contract import Mapping, _LeftSide
from probcone.report import canonical_json, certificate_to_dict
from probcone.space import sample_points
from probcone.registry import (
    affine_map,
    cone_gaussian_space,
    constant_map,
    dirac_space,
    identity_map,
    make_mapping,
    rotation_half_map,
    scale_map,
    shift_map,
)

SPACE = dirac_space()
SWEEP = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]


class TestBanach:
    def test_halving_map_passes(self):
        cert = check_banach(SPACE, scale_map(0.5), alpha=0.6, pairs=64, seed=0)
        assert cert.passed
        assert cert.worst_margin >= 0.0
        assert cert.witness is None

    def test_identity_fails_with_witness(self):
        grid = TimeGrid(np.linspace(0.05, 3.0, 120))
        cert = check_banach(SPACE, identity_map(), alpha=0.5, pairs=64, grid=grid, seed=0)
        assert not cert.passed
        w = cert.witness
        gap = np.linalg.norm(np.asarray(w["x"]) - np.asarray(w["y"]))
        # the step comparison can only fail strictly between alpha*gap and gap
        assert 0.5 * gap < w["t"] <= gap

    def test_diagonal_pairs_vacuous(self):
        x = np.array([0.3, -0.4])
        cert = check_banach(SPACE, identity_map(), alpha=0.5, pairs=[(x, x)], seed=0)
        assert cert.passed

    def test_alpha_range(self):
        with pytest.raises(InvalidParameterError):
            check_banach(SPACE, identity_map(), alpha=1.0)
        with pytest.raises(InvalidParameterError):
            check_banach(SPACE, identity_map(), alpha=0.0)


class TestKannan:
    def test_scale_map_passes(self):
        # scale by c passes iff the gap/displacement ratio fits: needs
        # 2*alpha*(1-c) >= 2c, i.e. alpha >= c/(1-c); c=0.2 -> 0.25
        cert = check_kannan(SPACE, scale_map(0.2), alpha=0.3, pairs=64, seed=1)
        assert cert.passed

    def test_constant_map_passes_any_alpha(self):
        for alpha in (0.05, 0.25, 0.49):
            cert = check_kannan(SPACE, constant_map([0.1, 0.2]), alpha=alpha, pairs=32, seed=2)
            assert cert.passed

    def test_identity_fails(self):
        # fixed points make the right side 1 while the left stays below it
        cert = check_kannan(SPACE, identity_map(), alpha=0.25, pairs=64, seed=3)
        assert not cert.passed
        assert cert.witness is not None

    def test_alpha_monotonicity_on_fixed_pairs(self):
        rng = np.random.default_rng(4)
        mapping = scale_map(0.2)
        pairs = sample_pairs(SPACE, mapping, 48, rng)
        previous = -np.inf
        for alpha in (0.26, 0.3, 0.35, 0.4, 0.45):
            cert = check_kannan(SPACE, mapping, alpha, pairs=pairs)
            assert cert.worst_margin >= previous
            assert cert.passed
            previous = cert.worst_margin

    def test_cone_gaussian_sweep_recorded(self):
        # sampled falsification of the plane-rotation example: on these
        # pairs no rate in the sweep passes; margins improve with the rate
        # and approach delta - 1 = -0.5, the cross-branch gap
        space = cone_gaussian_space(delta=0.5)
        mapping = rotation_half_map()
        margins = []
        for alpha in SWEEP:
            cert = check_kannan(space, mapping, alpha, pairs=64, seed=3)
            assert not cert.passed
            assert cert.worst_margin <= -0.5
            margins.append(cert.worst_margin)
        assert margins == sorted(margins)
        assert margins[-1] == pytest.approx(-0.5, abs=1e-5)

    def test_alpha_range(self):
        with pytest.raises(InvalidParameterError):
            check_kannan(SPACE, identity_map(), alpha=0.5)


class TestChatterjea:
    def test_constant_map_passes(self):
        cert = check_chatterjea(SPACE, constant_map([0.0, 0.0]), alpha=0.25, pairs=32, seed=5)
        assert cert.passed

    def test_identity_fails_where_step_sits_between(self):
        # unit gap, alpha=0.25: at t=0.75 the left side is 0 while both
        # cross distances evaluate at 1.5 past the step, so the margin is -1
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 0.0])
        grid = TimeGrid(np.array([0.75]))
        cert = check_chatterjea(SPACE, identity_map(), alpha=0.25, pairs=[(x, y)], grid=grid)
        assert not cert.passed
        assert cert.worst_margin == -1.0
        assert cert.witness["t"] == 0.75

    def test_fixed_equal_pairs_zero_margin(self):
        x = np.array([0.4, 0.4])
        cert = check_chatterjea(SPACE, identity_map(), alpha=0.25, pairs=[(x, x)])
        assert cert.passed
        assert cert.worst_margin == 0.0


class TestZamfirescu:
    def test_banach_passing_map_passes(self):
        cert = check_zamfirescu(SPACE, scale_map(0.5), 0.6, 0.25, 0.2, pairs=64, seed=6)
        assert cert.passed

    def test_constant_map_passes(self):
        cert = check_zamfirescu(SPACE, constant_map([0.5, 0.5]), 0.5, 0.25, 0.2, pairs=32, seed=7)
        assert cert.passed

    def test_identity_fails_with_expected_witness_margins(self):
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 0.0])
        grid = TimeGrid(np.array([0.6]))
        cert = check_zamfirescu(SPACE, identity_map(), 0.5, 0.25, 0.2, pairs=[(x, y)], grid=grid)
        assert not cert.passed
        # all three clause margins are -1 at t = 0.6 for the unit gap
        assert cert.worst_margin == -1.0

    def test_passes_whenever_single_clause_does(self):
        rng = np.random.default_rng(8)
        mapping = scale_map(0.2)
        pairs = sample_pairs(SPACE, mapping, 32, rng)
        single = check_kannan(SPACE, mapping, 0.3, pairs=pairs)
        assert single.passed
        hybrid = check_zamfirescu(SPACE, mapping, 0.9, 0.3, 0.05, pairs=pairs)
        assert hybrid.passed
        assert hybrid.worst_margin >= single.worst_margin

    def test_parameter_ranges(self):
        with pytest.raises(InvalidParameterError):
            check_zamfirescu(SPACE, identity_map(), 1.2, 0.2, 0.2)
        with pytest.raises(InvalidParameterError):
            check_zamfirescu(SPACE, identity_map(), 0.5, 0.6, 0.2)
        with pytest.raises(InvalidParameterError):
            check_zamfirescu(SPACE, identity_map(), 0.5, 0.2, 0.5)


class TestExplicitPairs:
    @pytest.mark.parametrize(
        "pairs",
        [
            [(np.zeros(2), np.ones(3))],
            [(np.zeros(2), np.ones(2)), (np.zeros(3), np.ones(3))],
            [(np.zeros(2), ["a", "b"])],
            [({"x": 0}, {"y": 1})],
        ],
        ids=["mixed-dims-in-pair", "mixed-dims-across-pairs", "string-coordinates", "dict-points"],
    )
    def test_ragged_or_non_numeric_pairs_are_refused(self, pairs):
        with pytest.raises(InvalidParameterError, match="points of one dimension"):
            check_banach(SPACE, identity_map(), 0.5, pairs=pairs)

    @pytest.mark.parametrize("kind", ["banach", "kannan", "chatterjea", "zamfirescu"])
    def test_pairs_of_another_dimension_are_refused(self, kind):
        # a pair of 3-d points on the plane used to be certified: passed=True, n_pairs=1
        check, _, params = KINDS[kind]
        with pytest.raises(InvalidParameterError, match=r"points of dimension 2, got shape \(1, 2, 3\)$"):
            check(SPACE, scale_map(0.5), pairs=[(np.zeros(3), np.ones(3))], **params)

    def test_left_side_refuses_pairs_of_another_dimension(self):
        with pytest.raises(InvalidParameterError, match=r"points of dimension 2, got shape \(4, 2, 1\)$"):
            _LeftSide.build(SPACE, scale_map(0.5), np.zeros((4, 2, 1)))

    @pytest.mark.parametrize(
        "bad", [None, float("nan"), float("inf"), -float("inf")], ids=["none", "nan", "inf", "-inf"]
    )
    def test_non_finite_coordinates_are_refused(self, bad):
        with pytest.raises(InvalidParameterError, match="pairs must have finite coordinates"):
            check_banach(SPACE, identity_map(), 0.5, pairs=[([bad, bad], [1.0, 2.0])])
        with pytest.raises(InvalidParameterError, match="pairs must have finite coordinates"):
            check_kannan(SPACE, identity_map(), 0.25, pairs=[([0.0, 0.0], [1.0, 2.0]), ([1.0, 0.0], [0.5, bad])])


def _tuple_list_pairs(space, mapping, n_pairs, rng):
    """``sample_pairs`` as it was when it returned a list of (x, y) tuples."""
    left = sample_points(space, n_pairs, rng)
    right = sample_points(space, n_pairs, rng)
    pairs = [(left[i], right[i]) for i in range(n_pairs)]
    pairs[0] = (left[0], left[0])
    if n_pairs >= 2:
        pairs[1] = (left[1], mapping(left[1]))
    return pairs


def _sqrt_half(u):
    with np.errstate(invalid="ignore"):
        return 0.5 * np.sqrt(u)


class TestPairArray:
    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 130])
    @pytest.mark.parametrize(
        "space,mapping",
        [
            (SPACE, scale_map(0.5)),
            (dirac_space(point_cone=Orthant(2)), Mapping(lambda u: u[::-1], name="swap")),
            (cone_gaussian_space(delta=0.5), rotation_half_map()),
        ],
        ids=["dirac-scale", "orthant-swap", "gauss-rotation"],
    )
    def test_sample_pairs_is_the_tuple_list_as_one_array(self, space, mapping, n_pairs):
        rng, oracle_rng = np.random.default_rng(21), np.random.default_rng(21)
        pairs = sample_pairs(space, mapping, n_pairs, rng)
        expected = _tuple_list_pairs(space, mapping, n_pairs, oracle_rng)
        assert pairs.dtype == np.float64 and pairs.shape == (n_pairs, 2, space.dim)
        for (x, y), (ex, ey) in zip(pairs, expected):
            assert x.tobytes() == ex.tobytes() and y.tobytes() == ey.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["banach", "kannan", "chatterjea", "zamfirescu"])
    def test_lists_and_arrays_of_pairs_give_identical_certificates(self, kind):
        check, _, params = KINDS[kind]
        space, mapping = cone_gaussian_space(delta=0.5), rotation_half_map()
        drawn = sample_pairs(space, mapping, 40, np.random.default_rng(22))
        forms = [40, drawn, [(x, y) for x, y in drawn], drawn.tolist()]
        # tol=-2 fails every certificate (margins are >= -1), so each carries its witness
        certs = [check(space, mapping, pairs=pairs, tol=-2.0, seed=22, **params) for pairs in forms]
        for cert in certs[1:]:
            assert repr(cert.worst_margin) == repr(certs[0].worst_margin)
            assert cert.witness == certs[0].witness
            assert (cert.n_pairs, cert.tol) == (certs[0].n_pairs, certs[0].tol)

    def test_one_shot_iterator_of_pairs_is_refused(self):
        pairs = iter([([0.0, 0.0], [1.0, 0.0])])
        with pytest.raises(InvalidParameterError, match="points of one dimension"):
            check_banach(SPACE, identity_map(), 0.5, pairs=pairs)


class TestMapImages:
    """Every image the classifiers use is a finite point of the space's dimension."""

    @pytest.mark.parametrize("with_rows", [False, True], ids=["fn", "rows"])
    @pytest.mark.parametrize(
        "fn,image",
        [
            (lambda u: 0.5, "has shape ()"),
            (lambda u: np.zeros(3), "has shape (3,)"),
            (_sqrt_half, "is [nan, "),
        ],
        ids=["scalar", "wrong-dimension", "nan"],
    )
    def test_bad_image_at_the_sampled_displacement_point(self, fn, image, with_rows):
        mapping = Mapping(fn, name="bad", rows=fn if with_rows else None)
        x = sample_points(SPACE, 8, np.random.default_rng(1))[1]
        with pytest.raises(InvalidParameterError) as err:
            check_banach(SPACE, mapping, 0.5, pairs=8, seed=1)
        rule = "map 'bad' must send each point to a point of dimension 2 with finite coordinates"
        assert f"{rule}; its image of x = {x.tolist()} {image}" in str(err.value)

    @pytest.mark.parametrize("with_rows", [False, True], ids=["fn", "rows"])
    def test_nan_image_of_an_explicit_pair_names_the_first_bad_point(self, with_rows):
        mapping = Mapping(_sqrt_half, rows=_sqrt_half if with_rows else None)
        pairs = [([1.0, 1.0], [0.25, 0.0]), ([1.0, 1.0], [-1.0, 0.0]), ([-4.0, 1.0], [1.0, 1.0])]
        with pytest.raises(InvalidParameterError, match=r"map '_sqrt_half' .* image of x = \[-4\.0, 1\.0\] is \[nan, 0\.5\]"):
            check_kannan(SPACE, mapping, 0.25, pairs=pairs)
        with pytest.raises(InvalidParameterError, match=r"image of x = \[-1\.0, 0\.0\] is \[nan, 0\.0\]"):
            check_chatterjea(SPACE, mapping, 0.25, pairs=pairs[:2])

    def test_infinite_image_names_the_map_not_the_pairs(self):
        # exp(1000 u) overflows at the sampled displacement point x
        mapping = Mapping(lambda u: np.exp(1000 * u), name="exp1000")
        x = sample_points(SPACE, 8, np.random.default_rng(1))[1]
        with np.errstate(over="ignore"):
            image = np.exp(1000 * x).tolist()
            with pytest.raises(InvalidParameterError) as err:
                check_banach(SPACE, mapping, 0.5, pairs=8, seed=1)
        assert np.isinf(image).any()
        rule = "map 'exp1000' must send each point to a point of dimension 2 with finite coordinates"
        assert f"{rule}; its image of x = {x.tolist()} is {image}" in str(err.value)

    def test_negative_infinite_image_of_an_explicit_pair(self):
        mapping = Mapping(lambda u: u / np.array([0.0, 1.0]), name="divide")
        pairs = [([-1.0, 1.0], [0.0, 0.5])]
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InvalidParameterError, match=r"map 'divide' .* image of x = \[-1\.0, 1\.0\] is \[-inf, 1\.0\]"):
                check_kannan(SPACE, mapping, 0.25, pairs=pairs)


class TestZamfirescuDelta:
    def test_exact_values(self):
        assert zamfirescu_delta(0.5, 0.25, 0.2) == 2.0 / 3.0
        assert zamfirescu_delta(0.3, 0.3, 0.3) == pytest.approx(6.0 / 7.0, abs=1e-15)

    def test_rate_not_certified(self):
        with pytest.raises(RateNotCertifiedError) as err:
            zamfirescu_delta(0.5, 0.4, 0.2)
        assert err.value.delta == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            zamfirescu_delta(0.0, 0.2, 0.2)
        with pytest.raises(InvalidParameterError):
            zamfirescu_delta(0.5, 0.5, 0.2)


class TestDeterminismAndSampling:
    def test_same_seed_same_certificate(self):
        a = check_kannan(SPACE, scale_map(0.2), 0.3, pairs=64, seed=9)
        b = check_kannan(SPACE, scale_map(0.2), 0.3, pairs=64, seed=9)
        assert a.worst_margin == b.worst_margin
        assert a.passed == b.passed

    def test_sample_pairs_includes_special_pairs(self):
        rng = np.random.default_rng(10)
        mapping = scale_map(0.5)
        pairs = sample_pairs(SPACE, mapping, 8, rng)
        assert len(pairs) == 8
        x0, y0 = pairs[0]
        assert np.array_equal(x0, y0)
        x1, y1 = pairs[1]
        assert np.array_equal(y1, mapping(x1))

    def test_constant_maps_pass_all_four(self):
        mapping = constant_map([0.2, -0.3])
        assert check_banach(SPACE, mapping, 0.7, pairs=24, seed=11).passed
        assert check_kannan(SPACE, mapping, 0.2, pairs=24, seed=11).passed
        assert check_chatterjea(SPACE, mapping, 0.2, pairs=24, seed=11).passed
        assert check_zamfirescu(SPACE, mapping, 0.7, 0.2, 0.2, pairs=24, seed=11).passed

    def test_empirical_space_gets_sampling_tolerance(self):
        rng_outer = np.random.default_rng(12)

        def noisy_distance(x, y):
            gap = np.linalg.norm(x - y)
            child = np.random.default_rng(int(gap * 1e6) % (2**32))
            return_from = np.abs(gap + 0.01 * child.standard_normal(400))
            from probcone import from_samples

            return from_samples(return_from)

        from probcone import PCMSpace, TNorm

        space = PCMSpace(dim=2, distance=noisy_distance, tnorm=TNorm.MINIMUM)
        cert = check_banach(space, scale_map(1.0), alpha=0.99, pairs=4, seed=13)
        assert cert.tol == pytest.approx(2.0 / np.sqrt(400))


# ---------------------------------------------------------------------------
# The batched margins against the per-pair loop they replaced
# ---------------------------------------------------------------------------


def _ref_banach(space, mapping, x, y, t, alpha):
    lhs = np.asarray(space.distance(mapping(x), mapping(y)).eval(t))
    rhs = np.asarray(space.distance(x, y).eval(t / alpha))
    return lhs - rhs


def _ref_kannan(space, mapping, x, y, t, alpha):
    tx, ty = mapping(x), mapping(y)
    lhs = np.asarray(space.distance(tx, ty).eval(t))
    scaled = t / (2.0 * alpha)
    rhs = np.minimum(
        np.asarray(space.distance(x, tx).eval(scaled)),
        np.asarray(space.distance(y, ty).eval(scaled)),
    )
    return lhs - rhs


def _ref_chatterjea(space, mapping, x, y, t, alpha):
    tx, ty = mapping(x), mapping(y)
    lhs = np.asarray(space.distance(tx, ty).eval(t))
    scaled = t / (2.0 * alpha)
    rhs = np.minimum(
        np.asarray(space.distance(x, ty).eval(scaled)),
        np.asarray(space.distance(y, tx).eval(scaled)),
    )
    return lhs - rhs


def _ref_zamfirescu(space, mapping, x, y, t, alpha, beta, gamma):
    m1 = _ref_banach(space, mapping, x, y, t, alpha)
    m2 = _ref_kannan(space, mapping, x, y, t, beta)
    m3 = _ref_chatterjea(space, mapping, x, y, t, gamma)
    return np.maximum(np.maximum(m1, m2), m3)


KINDS = {
    "banach": (check_banach, _ref_banach, {"alpha": 0.6}),
    "kannan": (check_kannan, _ref_kannan, {"alpha": 0.3}),
    "chatterjea": (check_chatterjea, _ref_chatterjea, {"alpha": 0.2}),
    "zamfirescu": (check_zamfirescu, _ref_zamfirescu, {"alpha": 0.5, "beta": 0.25, "gamma": 0.2}),
}


def reference_certify(space, mapping, margins_fn, pair_list, grid, params):
    """Worst margin and witness, one pair at a time: the first argmin over t
    within a pair, and a strict ``<`` across pairs in pair order, under
    which a NaN margin counts as smaller than any number."""
    t = TimeGrid.coerce(grid).points
    worst = np.inf
    witness = None
    for x, y in pair_list:
        margins = margins_fn(space, mapping, x, y, t, **params)
        k = int(np.argmin(margins))
        if margins[k] < worst or (np.isnan(margins[k]) and not np.isnan(worst)):
            worst = float(margins[k])
            witness = {"x": x.tolist(), "y": y.tolist(), "t": float(t[k])}
    return worst, witness


def assert_matches_reference(kind, space, mapping, pairs, grid=None, seed=0):
    check, ref_margins, params = KINDS[kind]
    # tol=-2 fails every certificate (margins are >= -1), so the witness is always reported
    cert = check(space, mapping, pairs=pairs, grid=grid, tol=-2.0, seed=seed, **params)
    if isinstance(pairs, int):
        pair_list = sample_pairs(space, mapping, pairs, np.random.default_rng(seed))
    else:
        pair_list = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for x, y in pairs]
    worst, witness = reference_certify(space, mapping, ref_margins, pair_list, grid, params)
    # by repr, so a -0.0 against 0.0 or a NaN differs
    assert repr(cert.worst_margin) == repr(worst)
    assert cert.witness == witness


_MAPS_2D = {
    "identity": identity_map(),
    "scale": scale_map(0.2),
    "shift": shift_map([0.3, -0.1]),
    "affine": affine_map([[0.5, -0.2], [0.1, 0.4]], [0.05, 0.0]),
    "rotation-half": rotation_half_map(),
}


class TestBatchedMargins:
    """``_certify`` over blocks of pairs against the per-pair loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(sorted(KINDS)),
        space_name=st.sampled_from(["dirac", "gauss"]),
        map_name=st.sampled_from(sorted(_MAPS_2D)),
        n_pairs=st.one_of(st.sampled_from([1, 2, 127, 128, 129]), st.integers(1, 20)),
        grid=st.one_of(
            st.none(),
            st.lists(st.integers(1, 8), min_size=1, max_size=6, unique=True).map(sorted),
            st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=8, unique=True).map(sorted),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_sampled_pairs_match_per_pair_loop(self, kind, space_name, map_name, n_pairs, grid, seed):
        space = dirac_space() if space_name == "dirac" else cone_gaussian_space(delta=0.5)
        assert_matches_reference(kind, space, _MAPS_2D[map_name], n_pairs, grid, seed)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("space_name", ["dirac", "gauss"])
    def test_tie_heavy_pairs_across_blocks(self, kind, space_name):
        # lattice points and a grid on the lattice gaps: step margins take
        # few distinct values, repeated in every 128-pair block
        space = dirac_space() if space_name == "dirac" else cone_gaussian_space(delta=0.5)
        lattice = [np.array([a, b]) for a in (0.0, 0.5, 1.0) for b in (0.0, 0.5, 1.0)]
        pairs = [(lattice[i % 9], lattice[(i * 4) % 9]) for i in range(300)]
        grid = [0.25, 0.5, 0.75, 1.0, 1.5]
        for mapping in (identity_map(), scale_map(0.5)):
            assert_matches_reference(kind, space, mapping, pairs, grid)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_other_dimensions(self, kind):
        for dim in (1, 3):
            space = dirac_space(dim=dim)
            for mapping in (scale_map(0.2), shift_map(np.full(dim, 0.1)), identity_map()):
                assert_matches_reference(kind, space, mapping, 129, seed=dim)

    def test_user_distance_without_table(self):
        # a user-supplied map has no table and takes the per-row fallback
        def squared(x, y):
            return DiracStep(float(np.linalg.norm(x - y) ** 2))

        space = PCMSpace(dim=2, distance=squared, tnorm=TNorm.MINIMUM)
        for kind in KINDS:
            assert_matches_reference(kind, space, scale_map(0.7), 130, seed=4)

    def test_zamfirescu_evaluates_each_distance_once_per_block(self, monkeypatch):
        # F(TX, TY) once, plus one banach and two displacement terms per clause
        calls = []
        original = PCMSpace.distance_values
        monkeypatch.setattr(PCMSpace, "distance_values", lambda *args: calls.append(1) or original(*args))
        check_zamfirescu(SPACE, scale_map(0.5), 0.5, 0.25, 0.25, pairs=129, seed=2)
        assert len(calls) == 2 * 6

    def test_user_distance_with_clause_margins_tied_at_zero(self):
        # every distribution is the unit step at 0, so every clause margin is exactly 0
        space = PCMSpace(dim=2, distance=lambda x, y: DiracStep(0.0), tnorm=TNorm.MINIMUM)
        for kind in KINDS:
            assert_matches_reference(kind, space, shift_map([0.3, -0.1]), 130, seed=4)


def _cert_fields(cert):
    """Every field of a certificate, floats by repr so -0.0 and NaN count."""
    return (cert.kind, cert.params, cert.n_pairs, cert.grid.points.tolist(), repr(cert.worst_margin),
            cert.passed, repr(cert.tol), cert.witness)


class TestLeftSide:
    """Certificates read F(Tx, Ty)(t) from one ``_LeftSide`` with the bits of their own evaluation."""

    @pytest.mark.parametrize("space_name", ["dirac", "gauss"])
    @pytest.mark.parametrize("tol", [None, -2.0, 0.05])
    def test_certificates_equal_those_from_the_pairs(self, space_name, tol):
        space = dirac_space() if space_name == "dirac" else cone_gaussian_space(delta=0.5)
        mapping = rotation_half_map()
        pairs = sample_pairs(space, mapping, 300, np.random.default_rng(7))  # three blocks, the last partial
        grid = TimeGrid(np.geomspace(0.01, 5.0, 23))
        left = _LeftSide.build(space, mapping, pairs, grid, tol)
        for kind, (check, _, params) in KINDS.items():
            alone = check(space, mapping, pairs=pairs, grid=grid, tol=tol, **params)
            shared = check(space, mapping, pairs=left, grid=grid, tol=tol, **params)
            assert _cert_fields(shared) == _cert_fields(alone)

    def test_none_takes_the_left_sides_grid_and_tol(self):
        mapping = scale_map(0.5)
        grid = TimeGrid([0.1, 0.5, 2.0])
        left = _LeftSide.build(SPACE, mapping, 40, grid, 0.25, seed=1)
        cert = check_kannan(SPACE, mapping, 0.3, pairs=left)
        assert cert.grid is grid and cert.tol == 0.25 and cert.n_pairs == 40

    def test_refuses_another_space_map_grid_or_tol(self):
        mapping = scale_map(0.5)
        left = _LeftSide.build(SPACE, mapping, 16, [0.5, 1.0], 0.1)
        for space, other_map, grid, tol in [
            (dirac_space(), mapping, None, None),
            (SPACE, scale_map(0.5), None, None),
            (SPACE, mapping, [0.5, 2.0], None),
            (SPACE, mapping, None, 0.2),
        ]:
            with pytest.raises(InvalidParameterError, match="left side was built"):
                check_banach(space, other_map, 0.6, pairs=left, grid=grid, tol=tol)
        # an equal grid in another object, and the same tol, are this left side's
        check_banach(SPACE, mapping, 0.6, pairs=left, grid=TimeGrid([0.5, 1.0]), tol=0.1)

    def test_rates_are_checked_before_the_left_side(self):
        left = _LeftSide.build(SPACE, scale_map(0.5), 4)
        with pytest.raises(InvalidParameterError, match="kannan rate"):
            check_kannan(dirac_space(), scale_map(0.5), 0.7, pairs=left)


class NanTail(DistFn):
    """The Dirac step at d, but NaN for t > 50: a user map that breaks the contract."""

    def __init__(self, d):
        self.d = d

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 50.0, np.nan, np.where(t > self.d, 1.0, 0.0))


NAN_TAIL_SPACE = PCMSpace(dim=1, distance=lambda x, y: NanTail(float(np.linalg.norm(x - y))), tnorm=TNorm.MINIMUM)


class TestNaNMargins:
    """A NaN margin is the worst: it fails the certificate, and the first NaN is the witness."""

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("banach", {"alpha": 0.1}),
            ("kannan", {"alpha": 0.05}),
            ("kannan", {"alpha": 0.3}),
            ("chatterjea", {"alpha": 0.2}),
            ("zamfirescu", {"alpha": 0.5, "beta": 0.25, "gamma": 0.2}),
        ],
    )
    def test_nan_margin_fails_every_classifier(self, kind, params):
        check, ref_margins, _ = KINDS[kind]
        mapping = scale_map(0.9)
        for n_pairs in (64, 300):  # one block of pairs, and three
            cert = check(NAN_TAIL_SPACE, mapping, pairs=n_pairs, seed=0, **params)
            pair_list = sample_pairs(NAN_TAIL_SPACE, mapping, n_pairs, np.random.default_rng(0))
            worst, witness = reference_certify(NAN_TAIL_SPACE, mapping, ref_margins, pair_list, None, params)
            assert not cert.passed
            assert repr(cert.worst_margin) == repr(worst) == "nan"
            assert cert.witness == witness

    def test_nan_margin_serializes_as_strict_json(self):
        cert = check_kannan(NAN_TAIL_SPACE, scale_map(0.9), 0.05, pairs=8, seed=0)
        assert np.isnan(cert.worst_margin)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads(canonical_json(certificate_to_dict(cert)), parse_constant=refuse)
        assert report["worst_margin"] == "NaN"
        assert report["passed"] is False


# every mapping ``make_mapping`` builds, by the registry constructor behind it
_BUILT_MAPS = {
    "identity_map": [("identity", 2), ("identity", 3)],
    "rotation_half_map": [("rotation-half", 2)],
    "scale_map": [("scale:0.5", 2), ("scale:-3", 3), ("scale:1e300", 2), ("scale:0", 1)],
    "constant_map": [("constant:0.25,-1", 2), ("constant:-0.0", 3)],
    "shift_map": [("shift:0.3,-0.1", 2), ("shift:1e300", 1)],
    "affine_map": [
        ({"name": "affine", "matrix": np.random.default_rng(d).standard_normal((d, d)).tolist(), "offset": [0.1] * d}, d)
        for d in (1, 2, 3, 5, 8)
    ],
}
_BUILT_CASES = [case for cases in _BUILT_MAPS.values() for case in cases]
_BUILT_IDS = [f"{spec if isinstance(spec, str) else spec['name']}-{dim}d" for spec, dim in _BUILT_CASES]

_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
             np.inf, -np.inf, np.nan, 1.0, -2.5]


def _rows_cases(dim):
    """Special values in every position, plus ordinary points of many magnitudes."""
    rng = np.random.default_rng(dim)
    if dim <= 2:
        specials = np.array(np.meshgrid(*[_SPECIALS] * dim)).reshape(dim, -1).T
    else:
        specials = rng.choice(_SPECIALS, (400, dim))
    ordinary = rng.standard_normal((2000, dim)) * 10.0 ** rng.integers(-5, 6, (2000, 1))
    return np.concatenate([specials, ordinary])


def _outcome(call):
    """``(value, None)``, or ``(None, exception type)`` when ``call`` raises."""
    with np.errstate(all="ignore"):
        try:
            return call(), None
        except Exception as exc:  # compared by type with the other side's outcome
            return None, type(exc)


def _reprs(rows):
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    return [[repr(v) for v in row] for row in rows]


class TestMappingRows:
    """``Mapping.rows`` of every built-in equals ``fn`` row by row, bit for bit."""

    def test_every_constructor_is_covered(self):
        from probcone import registry

        assert {name for name in vars(registry) if name.endswith("_map")} == set(_BUILT_MAPS)

    @pytest.mark.parametrize("spec,dim", _BUILT_CASES, ids=_BUILT_IDS)
    def test_rows_equal_fn_per_row(self, spec, dim):
        mapping = make_mapping(spec, dim)
        assert mapping.rows is not None
        X = _rows_cases(dim)
        expected, _ = _outcome(lambda: [mapping(x) for x in X])
        for call in (mapping.rows, mapping.apply_rows):
            got, error = _outcome(lambda: call(X))
            assert error is None and got.shape == (len(X), dim)
            assert _reprs(got) == _reprs(expected)

    @pytest.mark.parametrize("spec,dim", _BUILT_CASES, ids=_BUILT_IDS)
    def test_rows_raise_what_fn_raises(self, spec, dim):
        mapping = make_mapping(spec, dim)
        for wrong in {1, dim + 1, dim + 2} - {dim}:
            X = np.random.default_rng(wrong).standard_normal((5, wrong))
            per_row, per_row_error = _outcome(lambda: np.array([mapping(x) for x in X]))
            stacked, stacked_error = _outcome(lambda: mapping.rows(X))
            assert stacked_error is per_row_error
            if per_row_error is None:
                assert stacked.shape == per_row.shape and _reprs(stacked) == _reprs(per_row)

    def test_map_without_rows_falls_back_per_row(self):
        calls = []

        def halve(u):
            calls.append(1)
            return u / 2.0

        mapping = Mapping(halve, "halve", "")  # the positional form stays
        assert mapping.rows is None
        X = np.random.default_rng(3).standard_normal((7, 2))
        assert mapping.apply_rows(X).tobytes() == (X / 2.0).tobytes()
        assert len(calls) == 7
