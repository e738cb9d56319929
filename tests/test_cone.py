import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from probcone import Halfspaces, InvalidParameterError, Orthant, normality_check
from probcone.cone import cone_from_config
from probcone.registry import cone_gaussian_space

WEDGE = Halfspaces(np.array([[1.0, 1.0], [1.0, -1.0]]))
THIN = Halfspaces(np.array([[1e-3, 1.0], [1e-3, -1.0]]))  # |x_2| <= 1e-3 x_1


class TestMembership:
    def test_orthant_examples(self):
        cone = Orthant(2)
        assert cone.contains([1.0, 2.0])
        assert not cone.contains([-1.0, 2.0])
        assert cone.contains([0.0, 0.0])

    def test_boundary_tolerance(self):
        cone = Orthant(2)
        assert cone.contains([0.0, -1e-13])
        assert not cone.contains([0.0, -1e-9])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            Orthant(2).contains([1.0, 2.0, 3.0])
        with pytest.raises(InvalidParameterError):
            WEDGE.leq([1.0], [2.0])

    def test_wedge(self):
        assert WEDGE.contains([1.0, 0.5])
        assert WEDGE.contains([1.0, -0.5])
        assert not WEDGE.contains([0.5, 1.0])


class TestOrder:
    def test_leq_examples(self):
        cone = Orthant(2)
        assert cone.leq([1.0, 1.0], [2.0, 3.0])
        assert not cone.leq([1.0, 1.0], [2.0, 0.0])

    def test_reflexive(self):
        rng = np.random.default_rng(3)
        for cone in (Orthant(3), WEDGE):
            for _ in range(20):
                x = rng.uniform(-2, 2, cone.dim)
                assert cone.leq(x, x)

    def test_transitive_on_sampled_chains(self):
        rng = np.random.default_rng(4)
        cone = Orthant(3)
        for _ in range(200):
            x = rng.uniform(-1, 1, 3)
            y = x + cone.sample_member(rng)
            z = y + cone.sample_member(rng)
            assert cone.leq(x, y) and cone.leq(y, z) and cone.leq(x, z)

    def test_antisymmetric_up_to_tol(self):
        rng = np.random.default_rng(5)
        for cone in (Orthant(2), WEDGE):
            for _ in range(500):
                x = rng.uniform(-1, 1, 2)
                y = rng.uniform(-1, 1, 2)
                if cone.leq(x, y) and cone.leq(y, x):
                    assert np.linalg.norm(x - y) <= 1e-12


class TestConeAxioms:
    @pytest.mark.parametrize("cone", [Orthant(2), Orthant(4), WEDGE])
    def test_contains_zero(self, cone):
        assert cone.contains(np.zeros(cone.dim))

    @pytest.mark.parametrize("cone", [Orthant(2), WEDGE])
    def test_nonnegative_combinations(self, cone):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            x = cone.sample_member(rng)
            y = cone.sample_member(rng)
            a, b = rng.uniform(0.0, 10.0, 2)
            assert cone.contains(a * x + b * y)

    @pytest.mark.parametrize("cone", [Orthant(2), WEDGE])
    def test_pointedness(self, cone):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            x = cone.sample_member(rng)
            if np.linalg.norm(x) < 1e-9:
                continue
            assert not cone.contains(-x)
            checked += 1


class TestNormality:
    def test_orthant_euclidean_is_one_normal(self):
        result = normality_check(Orthant(2), bound=1.0, sample_count=2000, seed=11)
        assert result.holds
        assert result.worst_ratio <= 1.0

    def test_tight_bound_fails_with_degenerate_witness(self):
        result = normality_check(Orthant(2), bound=0.5, sample_count=100, seed=11)
        assert not result.holds
        # the deliberate x == y probe forces ratio 1
        assert result.worst_ratio >= 1.0 - 1e-12

    def test_wedge_observed_ratio(self):
        # right-angle wedge: extreme rays are orthogonal, so the order
        # interval bound behaves like a rotated orthant; observed worst
        # ratio stays at 1 and the check holds comfortably at bound 2
        result = normality_check(WEDGE, bound=2.0, sample_count=10_000, seed=13)
        assert result.holds
        assert result.worst_ratio <= 1.0 + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            normality_check(Orthant(2), bound=0.0, sample_count=10)
        with pytest.raises(InvalidParameterError):
            normality_check(Orthant(2), bound=1.0, sample_count=0)


class TestConfig:
    def test_round_trip(self):
        assert cone_from_config(None) is None
        cone = cone_from_config({"type": "orthant", "dim": 3})
        assert isinstance(cone, Orthant) and cone.dim == 3
        cone = cone_from_config({"type": "halfspaces", "normals": [[1, 1], [1, -1]]})
        assert isinstance(cone, Halfspaces) and cone.dim == 2
        with pytest.raises(InvalidParameterError):
            cone_from_config({"type": "simplicial"})


def point_margin(cone, x):
    """The per-point margin the cones computed before their rows kernel: min over the constraints at x."""
    if isinstance(cone, Orthant):
        return float(np.asarray(x, dtype=float).min())
    return float((cone.normals @ np.asarray(x, dtype=float)).min())


# finite values of every size plus NaN, +-inf and -0.0, as sampled, gated and cone-ordered points carry
COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-13, -1e-12, 1e-300]),
)


@st.composite
def cones_and_rows(draw):
    """A cone (the orthant, the wedge, a thin cone or random halfspaces) and an (n, dim) array of rows."""
    kind = draw(st.sampled_from(["orthant", "wedge", "thin", "halfspaces"]))
    if kind == "orthant":
        cone = Orthant(draw(st.integers(1, 8)))
    elif kind == "halfspaces":
        shape = (draw(st.integers(1, 7)), draw(st.integers(1, 8)))
        cone = Halfspaces(draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0))))
    else:
        cone = WEDGE if kind == "wedge" else THIN
    rows = draw(arrays(np.float64, (draw(st.integers(1, 12)), cone.dim), elements=COORDINATES))
    return cone, rows


class TestRowsKernel:
    """Each cone's constraint is its rows kernel ``_margins``; the point methods are its one-row case."""

    @settings(max_examples=300, deadline=None)
    @given(cones_and_rows())
    def test_margins_equal_the_per_point_margin_bit_for_bit(self, case):
        cone, rows = case
        with np.errstate(all="ignore"):
            margins = cone._margins(rows)
            expected = np.array([point_margin(cone, x) for x in rows])
            members = cone._members(rows)
            one_row = [cone.membership_margin(x) for x in rows]
        assert margins.shape == (len(rows),)
        assert margins.tobytes() == expected.tobytes()
        assert np.array(one_row).tobytes() == expected.tobytes()
        assert members.tolist() == [bool(m >= -1e-12) for m in expected]  # a NaN margin fails

    def test_cone_gaussian_table_gate_is_the_per_pair_gate(self):
        # differences on, just inside and just outside the orthant's tolerance, with NaN and inf ones
        space = cone_gaussian_space(delta=0.5)
        diffs = np.array(
            [[1.0, 2.0], [0.0, 0.0], [-0.0, 3.0], [0.5, -1e-13], [0.5, -1e-12], [0.5, -2e-12], [-1.0, 1.0],
             [2.0, -3.0], [np.nan, 1.0], [1.0, -np.inf], [1e200, 1e200], [-1e-300, 0.0]]
        )
        Y = np.random.default_rng(0).uniform(-1.0, 1.0, diffs.shape)
        X = Y + diffs
        t = np.geomspace(0.01, 10.0, 17)
        finite = np.isfinite(diffs).all(axis=1)
        rows = [space.distance(x, y) for x, y in zip(X[finite], Y[finite])]
        table = space.distance_values(X[finite], Y[finite], t)
        for p, dist in enumerate(rows):
            assert table[p].tobytes() == np.asarray(dist.eval(t), dtype=float).tobytes()
        # a non-finite gap is outside the gate, yet both forms refuse it in the offset rule's words
        for p in np.flatnonzero(~finite):
            with pytest.raises(InvalidParameterError) as expected:
                space.distance(X[p], Y[p])
            with pytest.raises(InvalidParameterError) as raised:
                space.distance_values(X[[0, p]], Y[[0, p]], t)  # after a finite row
            assert str(raised.value) == str(expected.value)
            assert str(raised.value).startswith("GaussianShift offset must be finite, got ")


class TestPointCheck:
    """Every point method refuses a ragged, non-numeric or misshapen point by its argument's name."""

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: Orthant(2).contains(["a", "b"]), "^x must be a numeric point"),
            (lambda: Orthant(2).contains([[1], [2, 3]]), "^x must be a numeric point"),
            (lambda: Orthant(2).membership_margin([1.0, None, 2.0]), r"^x must have dimension 2, got shape \(3,\)"),
            (lambda: Orthant(2).leq([1, "x"], [1, 2]), "^x must be a numeric point"),
            (lambda: Orthant(2).leq([1, 2], [1, "y"]), "^y must be a numeric point"),
            (lambda: WEDGE.leq([1.0, 2.0], [[1.0, 2.0]]), r"^y must have dimension 2, got shape \(1, 2\)"),
        ],
        ids=["strings", "ragged", "wrong-length", "leq-x", "leq-y", "leq-matrix"],
    )
    def test_refused_naming_the_argument(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()
