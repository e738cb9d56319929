import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probcone import (
    DivergenceError,
    Ensemble,
    Halfspaces,
    InvalidParameterError,
    Orthant,
    RandomOperator,
    SIEProblem,
    check_random_kannan,
    empirical_metric,
    sie_apply,
    sie_conditions,
    sie_solve,
)
from probcone import cli, stochastic
from probcone.registry import make_forcing, make_kernel, make_nonlinearity, rotation_half_map
from probcone.dist import TimeGrid, _first_worst, _row_norms, default_comparison_tol, from_samples
from probcone.rng import mix_seed, path_generator
from probcone.stochastic import SIEConditions, causal_trapezoid_weights

FOLDED_AT_1 = 0.6826894921370859

CONST_KERNEL = make_kernel("constant")
LINEAR_04, L_04 = make_nonlinearity({"name": "linear", "coefficient": 0.4})
UNIT_FORCING = make_forcing({"name": "constant", "value": 1.0})


def loop_trapezoid_weights(t):
    """Reference: the composite trapezoid rule built one row at a time."""
    n = t.size
    w = np.zeros((n, n))
    for i in range(1, n):
        seg = np.diff(t[: i + 1])
        w[i, : i + 1][:-1] += seg / 2.0
        w[i, 1 : i + 1] += seg / 2.0
    return w


def kernel_meshes(problem):
    t_mesh, s_mesh = np.meshgrid(problem.time_grid, problem.time_grid, indexing="ij")
    paths = range(problem.n_paths) if problem.kernel_is_random else [0]
    return np.stack([np.asarray(problem.kernel(t_mesh, s_mesh, j), dtype=float) for j in paths])


def full_array_conditions(problem):
    """Reference: the conditions from full-size |k|, a causal mask and w * |k|.

    Only the causal half s <= t is read, so a NaN or infinity above the
    diagonal reaches neither the sup nor the masses M.
    """
    weights = loop_trapezoid_weights(problem.time_grid)
    abs_k = np.abs(kernel_meshes(problem))
    causal = np.tril(np.ones_like(weights, dtype=bool))
    sup_k = float(abs_k[:, causal].max())
    m_per_path = np.max(np.sum(np.where(causal, weights * abs_k, 0.0), axis=2), axis=1)
    if m_per_path.size == 1 and problem.n_paths > 1:
        m_per_path = np.repeat(m_per_path, problem.n_paths)
    m_hat = float(np.mean(m_per_path))
    stderr = float(np.std(m_per_path, ddof=1) / np.sqrt(m_per_path.size)) if m_per_path.size > 1 else 0.0
    rate = float(problem.lipschitz * np.sqrt(m_hat * sup_k))
    max_lm = float(problem.lipschitz * m_per_path.max())
    return SIEConditions(problem.lipschitz, sup_k, m_hat, stderr, max_lm, rate, rate < 0.5 and max_lm < 0.5)


def forward_substitution(problem):
    """Reference: the causal trapezoid system solved node by node.

    Node i solves X_i = h_i + sum_{l<i} w_il k_il f(X_l) + w_ii k_ii f(X_i),
    a scalar fixed point, by its own iteration; paths are independent.
    """
    t = problem.time_grid
    weights = loop_trapezoid_weights(t)
    kernels = kernel_meshes(problem)
    field = np.empty((problem.n_paths, t.size))
    for j in range(problem.n_paths):
        h = np.asarray(problem.forcing(t, j, path_generator(problem.seed, j)), dtype=float)
        wk = weights * kernels[j if problem.kernel_is_random else 0]
        f_vals = np.empty(t.size)
        for i in range(t.size):
            known = h[i] + wk[i, :i] @ f_vals[:i]
            x = h[i]
            for _ in range(200):
                nxt = known + wk[i, i] * problem.nonlinearity(t[i], x)
                done = abs(nxt - x) <= 1e-15 * max(1.0, abs(x))
                x = nxt
                if done:
                    break
            field[j, i] = x
            f_vals[i] = problem.nonlinearity(t[i], x)
    return field


def assert_same_conditions(actual, expected):
    for name in SIEConditions.__dataclass_fields__:
        a, e = getattr(actual, name), getattr(expected, name)
        assert np.array_equal(a, e, equal_nan=True), (name, a, e)


def linear_problem(n_time=100, n_paths=1, seed=0, forcing=UNIT_FORCING, coefficient=0.4):
    f, lip = make_nonlinearity({"name": "linear", "coefficient": coefficient})
    return SIEProblem(
        time_grid=np.linspace(0.0, 1.0, n_time + 1),
        kernel=CONST_KERNEL,
        forcing=forcing,
        nonlinearity=f,
        lipschitz=lip,
        n_paths=n_paths,
        seed=seed,
    )


class TestPathGenerator:
    @pytest.mark.parametrize("root", [0, 1, 7, 2**40 + 3])
    @pytest.mark.parametrize("index", [0, 1, 999, 10**6])
    def test_equals_philox_keyed_by_mix_seed(self, root, index):
        ours = path_generator(root, index)
        keyed = np.random.Generator(np.random.Philox(key=mix_seed(root, index)))
        assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state)
        for draw in (lambda g: g.standard_normal(33), lambda g: g.random(5), lambda g: g.integers(0, 10**12, 17)):
            np.testing.assert_array_equal(draw(ours), draw(keyed))
        assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state)

    def test_spawned_children_depend_on_root_and_index_only(self):
        first, second = path_generator(3, 8).spawn(2), path_generator(3, 8).spawn(2)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.random(8), b.random(8))
        other = path_generator(3, 9).spawn(1)[0]
        assert not np.array_equal(other.random(8), path_generator(3, 8).spawn(1)[0].random(8))

    def test_reads_no_os_entropy(self, monkeypatch):
        # SeedSequence() draws its entropy through this module-level name
        def refuse(*args):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr("numpy.random.bit_generator.randbits", refuse)
        with pytest.raises(AssertionError):
            np.random.SeedSequence()
        path_generator(5, 2).spawn(1)[0].random()


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Ensemble(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidParameterError):
            Ensemble(np.empty((0, 2)))

    @pytest.mark.parametrize("samples", [[], [[]], np.zeros((3, 0))], ids=["empty-list", "empty-row", "3x0"])
    def test_refuses_points_of_no_coordinates(self, samples):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            Ensemble(samples)

    def test_cone_constraint(self):
        Ensemble(np.array([[1.0, 2.0], [0.0, 0.5]]), cone=Orthant(2))
        with pytest.raises(InvalidParameterError):
            Ensemble(np.array([[1.0, -2.0]]), cone=Orthant(2))

    def test_cone_of_another_dimension_names_the_samples_shape(self):
        with pytest.raises(InvalidParameterError, match=r"^ensemble samples must have shape \(n, 2\), got shape \(3, 3\)$"):
            Ensemble(np.ones((3, 3)), cone=Orthant(2))

    @pytest.mark.parametrize("cone", [Orthant(2), Halfspaces([[1.0, 1.0], [1.0, -1.0]])], ids=["orthant", "wedge"])
    def test_cone_constraint_on_every_row(self, cone):
        rows = np.array([[1.0, 0.0], [2.0, -1e-13], [3.0, 1.0]])
        assert Ensemble(rows, cone=cone).n == 3
        for p in range(len(rows)):
            bad = rows.copy()
            bad[p] = [-1.0, 0.5]
            with pytest.raises(InvalidParameterError, match="a sample violates it"):
                Ensemble(bad, cone=cone)

    def test_immutable(self):
        ens = Ensemble(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            ens.samples[0, 0] = 5.0


class TestRandomOperatorApply:
    def test_scalar_image_refused(self):
        # broadcasting used to copy 0.5 * u[0] into every coordinate: [1, 0] -> [0.5, 0.5]
        op = RandomOperator(lambda j, u: 0.5 * u[0], name="first coordinate")
        with pytest.raises(InvalidParameterError, match=r"draw 0 to a point of shape \(2,\), got shape \(\)"):
            op.apply(Ensemble(np.array([[1.0, 0.0], [0.0, 1.0]])))

    def test_wrong_length_image_refused(self):
        op = RandomOperator(lambda j, u: np.zeros(3) if j == 1 else u, name="lifts draw 1")
        with pytest.raises(InvalidParameterError, match=r"'lifts draw 1' must send draw 1 .* got shape \(3,\)"):
            op.apply(Ensemble(np.array([[1.0, 0.0], [0.0, 1.0]])))

    def test_refused_inside_check_random_kannan(self):
        op = RandomOperator(lambda j, u: u[:1])
        x = Ensemble(np.array([[1.0, 0.0]]))
        with pytest.raises(InvalidParameterError, match=r"draw 0 .* got shape \(1,\)"):
            check_random_kannan(op, [(x, x)], 0.25)

    @staticmethod
    def blowup(j, u):
        with np.errstate(divide="ignore"):
            return u / 0.0 if j == 7 else 0.5 * u

    def test_non_finite_image_names_the_operator_and_draw(self):
        # the rebuilt ensemble used to refuse it as "ensemble samples must be finite"
        op = RandomOperator(self.blowup, name="blowup")
        x = Ensemble(np.ones((10, 2)))
        with pytest.raises(InvalidParameterError, match=r"^random operator 'blowup' must send draw 7 to a point with finite coordinates, got \[inf, inf\]$"):
            op.apply(x)

    def test_non_finite_image_refused_inside_check_random_kannan(self):
        op = RandomOperator(self.blowup, name="blowup")
        x, y = Ensemble(np.ones((10, 2))), Ensemble(np.zeros((10, 2)))
        with pytest.raises(InvalidParameterError, match="random operator 'blowup' must send draw 7 .* finite"):
            check_random_kannan(op, [(x, y)], 0.25)


class TestEmpiricalMetric:
    def test_identical_ensembles(self):
        x = Ensemble(np.random.default_rng(0).normal(size=(50, 3)))
        dist = empirical_metric(x, x)
        assert dist.eval(1e-12) == 1.0

    def test_two_distances(self):
        x = Ensemble(np.array([[0.0], [0.0]]))
        y = Ensemble(np.array([[1.0], [3.0]]))
        dist = empirical_metric(x, y)
        assert dist.eval(2.0) == 0.5

    def test_against_folded_normal(self):
        rng = np.random.default_rng(271828)
        x = Ensemble(rng.standard_normal((10_000, 1)))
        y = Ensemble(np.zeros((10_000, 1)))
        assert empirical_metric(x, y).eval(1.0) == pytest.approx(FOLDED_AT_1, abs=0.02)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        x = Ensemble(rng.normal(size=(200, 2)))
        y = Ensemble(rng.normal(size=(200, 2)))
        assert np.array_equal(empirical_metric(x, y).samples, empirical_metric(y, x).samples)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            empirical_metric(Ensemble(np.zeros((3, 2))), Ensemble(np.zeros((4, 2))))

    def test_huge_finite_gaps_stay_finite(self):
        # the squares of 1e200 overflow; the gaps themselves do not
        x = Ensemble(np.array([[1e200, 0.0], [0.0, 1e200]]))
        zero = Ensemble(np.zeros((2, 2)))
        assert empirical_metric(x, zero).samples.tolist() == [1e200, 1e200]
        to_origin = RandomOperator(lambda j, u: np.zeros(2), name="to origin")
        result = check_random_kannan(to_origin, [(x, zero)], 0.45)
        assert result.samplewise_violations == 0 and result.passed


class TestCheckRandomKannan:
    def _scaled_pair(self, n=2000, c=0.92, seed=11):
        rng = np.random.default_rng(seed)
        x = Ensemble(rng.uniform(0.1, 1.1, (n, 2)), cone=Orthant(2))
        y = Ensemble(c * x.samples, cone=Orthant(2))
        return x, y

    def test_rotation_on_scaled_ensembles(self):
        rot = rotation_half_map()
        op = RandomOperator(lambda j, u: rot(u), name="samplewise rotation-half")
        x, y = self._scaled_pair()
        for alpha in (0.1, 0.25, 0.45):
            result = check_random_kannan(op, [(x, y)], alpha, tol=0.02)
            assert result.samplewise_holds
            assert result.samplewise_fraction == 0.0
            assert result.certificate.passed
            assert result.passed

    def test_constant_operator_passes(self):
        op = RandomOperator(lambda j, u: np.array([0.5, 0.5]), name="constant")
        x, y = self._scaled_pair(n=500)
        result = check_random_kannan(op, [(x, y)], 0.1)
        assert result.passed
        assert result.samplewise_violations == 0

    def test_identity_operator_fails_on_distinct_ensembles(self):
        # identity leaves displacements at zero, so any gap violates
        op = RandomOperator(lambda j, u: u, name="identity")
        x, y = self._scaled_pair(n=500)
        result = check_random_kannan(op, [(x, y)], 0.45)
        assert not result.samplewise_holds
        assert result.samplewise_fraction == 1.0
        assert not result.passed

    def test_default_tol_follows_smallest_ensemble(self):
        # 2/sqrt(N) of the 100-sample pair, whichever position it takes
        op = RandomOperator(lambda j, u: 0.5 * u, name="halving")
        large = self._scaled_pair(n=400)
        small = self._scaled_pair(n=100, seed=12)
        for ensembles in ([large, small], [small, large]):
            result = check_random_kannan(op, ensembles, 0.25)
            assert result.certificate.tol == 2.0 / np.sqrt(100)

    def test_notes_mention_rescaling_form(self):
        op = RandomOperator(lambda j, u: u * 0.0, name="zero")
        x, y = self._scaled_pair(n=100)
        result = check_random_kannan(op, [(x, y)], 0.25)
        assert any("t/(2 alpha)" in note for note in result.certificate.notes)

    def test_validation(self):
        op = RandomOperator(lambda j, u: u)
        x, y = self._scaled_pair(n=10)
        with pytest.raises(InvalidParameterError):
            check_random_kannan(op, [(x, y)], 0.5)
        with pytest.raises(InvalidParameterError):
            check_random_kannan(op, [], 0.25)


def loop_random_kannan(operator, ensembles, alpha, grid=None, tol=None):
    """Reference: the margin loop ``check_random_kannan`` used before it read ``check_kannan``.

    Returns ``(worst, passed, tol, witness, violations, total)``.
    """
    t = TimeGrid.coerce(grid).points
    total = violations = 0
    margins = []
    default_tol = 0.0
    for x, y in ensembles:
        tx, ty = operator.apply(x), operator.apply(y)
        lhs_gap = _row_norms(tx.samples - ty.samples)
        x_disp = _row_norms(x.samples - tx.samples)
        y_disp = _row_norms(y.samples - ty.samples)
        violations += int(np.sum(lhs_gap > alpha * np.maximum(x_disp, y_disp) + 1e-12))
        total += x.n
        f_txty, f_xtx, f_yty = from_samples(lhs_gap), from_samples(x_disp), from_samples(y_disp)
        default_tol = max(default_tol, default_comparison_tol(f_txty, f_xtx, f_yty))
        scaled = t / (2.0 * alpha)
        margins.append(f_txty.eval(t) - np.minimum(f_xtx.eval(scaled), f_yty.eval(scaled)))
    resolved_tol = float(default_tol if tol is None else tol)
    worst, passed, (e, k) = _first_worst(margins, resolved_tol)
    witness = None if passed else {"t": float(t[k]), "n_samples": ensembles[e][0].n}
    return worst, passed, resolved_tol, witness, violations, total


_RANDOM_OPERATORS = {
    "halving": lambda j, u: 0.5 * u,
    "identity": lambda j, u: u,
    "constant": lambda j, u: np.full(u.shape, 0.5),
    "per-draw shrink": lambda j, u: u / (2.0 + j % 3),
    "noisy affine": lambda j, u: 0.4 * u + 0.1 * np.sin(j + u),
    "swap and scale": lambda j, u: 0.3 * u[::-1],
}


class TestCheckRandomKannanOracle:
    """``check_random_kannan`` through ``check_kannan`` against the loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(_RANDOM_OPERATORS)),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        dim=st.integers(1, 3),
        alpha=st.one_of(st.sampled_from([0.05, 0.2, 0.35, 0.49]), st.floats(0.01, 0.499)),
        tol=st.one_of(st.none(), st.just(0.0), st.floats(-0.1, 0.1)),
        grid=st.one_of(st.none(), st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=8, unique=True).map(sorted)),
        seed=st.integers(0, 2**16),
    )
    def test_matches_margin_loop(self, name, sizes, dim, alpha, tol, grid, seed):
        rng = np.random.default_rng(seed)
        ensembles = []
        for n in sizes:
            x = rng.uniform(-1.0, 1.0, (n, dim))
            y = rng.uniform(0.5, 1.0) * x + rng.normal(0.0, 0.1, (n, dim)) * (seed % 2)
            ensembles.append((Ensemble(x), Ensemble(y)))
        op = RandomOperator(_RANDOM_OPERATORS[name], name=name)
        result = check_random_kannan(op, ensembles, alpha, grid=grid, tol=tol)
        worst, passed, resolved_tol, witness, violations, total = loop_random_kannan(op, ensembles, alpha, grid, tol)
        cert = result.certificate
        assert np.float64(cert.worst_margin).tobytes() == np.float64(worst).tobytes()
        assert (cert.passed, cert.tol, cert.witness) == (passed, resolved_tol, witness)
        assert cert.notes == (
            f"samplewise violations: {violations} of {total} ({violations / total:.6f})",
            "distributional check uses the t/(2 alpha) rescaling; the t/alpha form implies it for rates below 1/2",
        )
        assert (result.n_samples, result.samplewise_violations) == (total, violations)

    def test_tied_pairs_give_the_first_witness(self):
        # the identity fails both pairs by -1 at the first grid time
        op = RandomOperator(lambda j, u: u, name="identity")
        three = (Ensemble(np.array([[0.0], [1.0], [3.0]])), Ensemble(np.array([[1.0], [1.5], [2.0]])))
        two = (Ensemble(three[0].samples[:2]), Ensemble(three[1].samples[:2]))
        for ensembles, n_samples in (([two, three], 2), ([three, two], 3)):
            witness = check_random_kannan(op, ensembles, 0.25, tol=0.0).certificate.witness
            assert witness == loop_random_kannan(op, ensembles, 0.25, tol=0.0)[3]
            assert witness["n_samples"] == n_samples


class TestTrapezoidWeights:
    def test_row_sums_equal_time(self):
        t = np.linspace(0.0, 1.0, 11)
        w = causal_trapezoid_weights(t)
        assert np.allclose(w.sum(axis=1), t, atol=1e-15)
        assert np.all(w[0] == 0.0)

    def test_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.4, 1.0])
        w = causal_trapezoid_weights(t)
        assert np.allclose(w.sum(axis=1), t)
        assert np.all(w[:, :1][1:] > 0.0)

    @pytest.mark.parametrize("n", [2, 3, 11, 201, 2001])
    def test_uniform_grid_matches_row_loop_bitwise(self, n):
        t = np.linspace(0.0, 1.0, n)
        assert np.array_equal(causal_trapezoid_weights(t), loop_trapezoid_weights(t))

    @pytest.mark.parametrize("n", [2, 3, 11, 201])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_grid_matches_row_loop_bitwise(self, n, seed):
        inner = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n - 2))
        t = np.concatenate([[0.0], inner, [1.0]])
        assert np.array_equal(causal_trapezoid_weights(t), loop_trapezoid_weights(t))


    @pytest.mark.parametrize("n", [2, 3, 13])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_row_slices_match_full_matrix_bitwise(self, n, seed):
        t = np.linspace(0.0, 1.0, n) if seed is None else nonuniform_grid(n, seed)
        full = causal_trapezoid_weights(t)
        assert np.array_equal(causal_trapezoid_weights(t, 0, n), full)
        for r0 in range(n):
            for r1 in range(r0 + 1, n + 1):
                rows = causal_trapezoid_weights(t, r0, r1)
                assert rows.shape == (r1 - r0, n)
                assert np.array_equal(rows, full[r0:r1]), (r0, r1)
        assert np.all(causal_trapezoid_weights(t, 0, 1) == 0.0)
        assert np.array_equal(causal_trapezoid_weights(t, n - 1, n)[0], full[-1])


class TestSieApply:
    def test_zero_nonlinearity_returns_forcing(self):
        f, lip = make_nonlinearity("zero")
        p = SIEProblem(np.linspace(0, 1, 51), CONST_KERNEL, UNIT_FORCING, f, lip)
        x = np.full((1, 51), 7.0)
        out = sie_apply(p, x)
        assert np.array_equal(out, np.ones((1, 51)))

    def test_unit_integrand_gives_time(self):
        f, lip = make_nonlinearity({"name": "constant", "value": 1.0})
        zero_forcing = make_forcing({"name": "constant", "value": 0.0})
        p = SIEProblem(np.linspace(0, 1, 101), CONST_KERNEL, zero_forcing, f, lip)
        out = sie_apply(p, np.zeros((1, 101)))
        # trapezoid is exact for constants
        assert np.allclose(out[0], p.time_grid, atol=1e-12)

    def test_linear_example_exact(self):
        p = linear_problem(n_time=100)
        out = sie_apply(p, np.ones((1, 101)))
        assert np.allclose(out[0], 1.0 + 0.4 * p.time_grid, atol=1e-12)

    def test_shape_validation(self):
        p = linear_problem(n_time=10)
        with pytest.raises(InvalidParameterError):
            sie_apply(p, np.zeros((2, 11)))
        with pytest.raises(InvalidParameterError):
            sie_apply(p, np.zeros((1, 10)))


class TestSieBuildChecks:
    """A problem that cannot run is refused before, or at, its first forcing call."""

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan]], ids=["inner", "last"])
    def test_nan_time_node_refused(self, grid):
        # np.diff(t) <= 0 is false at a NaN gap, so such a grid was accepted and its rate read nan
        with pytest.raises(InvalidParameterError, match="^time grid must be strictly increasing$"):
            SIEProblem(np.array(grid), CONST_KERNEL, UNIT_FORCING, LINEAR_04, L_04)

    def test_wrong_shaped_forcing_is_called_once(self):
        calls = []

        def forcing(t, j, rng):
            calls.append(j)
            return np.ones(t.size + 1)

        problem = SIEProblem(np.linspace(0.0, 1.0, 11), CONST_KERNEL, forcing, LINEAR_04, L_04, n_paths=5)
        message = r"^forcing must return one value per time node; got shape \(12,\) for path 0, expected \(11,\)$"
        with pytest.raises(InvalidParameterError, match=message):
            sie_solve(problem)
        assert calls == [0]

    def test_path_count_no_memory_holds_fails_before_any_forcing_call(self):
        # the schema's cap on a 3-node mesh: its 8 EiB forcing array fits no 64-bit
        # address space, so the allocation fails at once and nothing is allocated
        class ForcingCalled(Exception):
            pass

        def forcing(t, j, rng):
            raise ForcingCalled

        n_paths = cli._MAX_FLOAT64_LENGTH // 3
        problem = SIEProblem(np.linspace(0.0, 1.0, 3), CONST_KERNEL, forcing, LINEAR_04, L_04, n_paths=n_paths)
        with pytest.raises(MemoryError):
            sie_solve(problem)


GAUSSIAN_FORCING = make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.1})


def blas_threads():
    threads = stochastic._load_blas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    return threads


def matvec_apply(op, field):
    """Reference: one matrix-vector product per path."""
    f_vals = op.problem.nonlinearity(op.problem.time_grid[None, :], field)
    shared = op.weighted.shape[0] == 1
    return np.stack([op.h[j] + op.weighted[0 if shared else j] @ f_vals[j] for j in range(len(field))])


def paths_operator(n_paths, n_time=100, random=False):
    kernel = random_kernel if random else make_kernel("exp-decay")
    return stochastic._DiscreteOperator(
        SIEProblem(
            np.linspace(0.0, 1.0, n_time + 1), kernel, GAUSSIAN_FORCING, LINEAR_04, L_04,
            n_paths=n_paths, seed=3, kernel_is_random=random,
        )
    )


def positive_field(n_paths, n_time=100, seed=0):
    return 1.0 + np.random.default_rng(seed).uniform(0.0, 1.0, (n_paths, n_time + 1))


class TestBlockedApply:
    """A shared kernel on at most 511 steps is applied in fixed 64-path blocks."""

    def test_prefix_stable_across_block_boundaries(self):
        field = positive_field(130)
        full = paths_operator(130).apply(field)
        for n_paths in (1, 63, 64, 65, 130):
            assert np.array_equal(paths_operator(n_paths).apply(field[:n_paths]), full[:n_paths]), n_paths

    def test_path_ignores_the_other_paths_in_its_block(self):
        op = paths_operator(100)
        field = positive_field(100)
        other = field.copy()
        other[1:64] = -7.0 * positive_field(63, seed=1)
        other[65:] = 0.0
        keep = [0, 64]
        assert np.array_equal(op.apply(other)[keep], op.apply(field)[keep])

    @pytest.mark.parametrize("n_time", [100, 511])
    def test_within_a_few_ulps_of_the_matvec_loop(self, n_time):
        op = paths_operator(70, n_time)
        field = positive_field(70, n_time)
        np.testing.assert_array_max_ulp(op.apply(field), matvec_apply(op, field), maxulp=8)

    @pytest.mark.parametrize(
        "n_paths,n_time,random",
        [(5, 512, False), (1, 600, False), (3, 600, False), (1, 2000, False), (3, 2000, False),
         (5, 100, True), (2, 200, True), (4, 1000, True)],
        ids=["large-mesh", "600x1", "600x3", "2000x1", "2000x3", "random-kernel", "random-200x2", "random-1000x4"],
    )
    def test_matvec_loop_beyond_the_blocks(self, n_paths, n_time, random):
        # the stacked product is one matrix-vector product per path, bit for bit
        op = paths_operator(n_paths, n_time, random)
        field = positive_field(n_paths, n_time)
        with stochastic._ONE_BLAS_THREAD:
            expected = matvec_apply(op, field)
        assert np.array_equal(op.apply(field), expected)

    def test_nonlinearity_of_the_wrong_shape_is_refused(self):
        p = SIEProblem(np.linspace(0, 1, 11), CONST_KERNEL, UNIT_FORCING, lambda s, x: np.sin(s), 1.0, n_paths=3)
        with pytest.raises(InvalidParameterError, match=r"got shape \(1, 11\)"):
            sie_apply(p, np.zeros((3, 11)))


class TestOneBlasThread:
    """apply pins the BLAS to one thread and restores the count it found."""

    @pytest.mark.parametrize("n_time", [100, 600], ids=["blocks", "matvec"])
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_count_restored(self, monkeypatch, n_time, raises):
        get, set_ = blas_threads()
        op = paths_operator(3, n_time)
        field = positive_field(3, n_time)
        seen = []
        matmul = np.matmul

        def recording_matmul(*args, **kwargs):
            seen.append(get())
            if raises:
                raise FloatingPointError("matmul failed")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        before = get()
        try:
            set_(2)
            if raises:
                with pytest.raises(FloatingPointError):
                    op.apply(field)
            else:
                op.apply(field)
            assert get() == 2
        finally:
            set_(before)
        assert seen and set(seen) == {1}

    def test_overlapping_regions_share_one_pin(self):
        get, set_ = blas_threads()
        pin = stochastic._OneBlasThread()
        before = get()
        try:
            set_(2)
            with pin:
                with pin:
                    assert get() == 1
                assert get() == 1
            assert get() == 2
        finally:
            set_(before)


class TestSieConditions:
    def test_unit_kernel_rate_is_lipschitz(self):
        cond = sie_conditions(linear_problem())
        assert cond.sup_kernel == 1.0
        assert cond.m_hat == pytest.approx(1.0, abs=1e-12)
        assert cond.contraction_rate == pytest.approx(0.4, abs=1e-12)
        assert cond.satisfied

    def test_rate_above_half_not_satisfied(self):
        cond = sie_conditions(linear_problem(coefficient=0.6))
        assert cond.contraction_rate == pytest.approx(0.6, abs=1e-12)
        assert not cond.satisfied

    def test_zero_kernel_trivially_satisfied(self):
        zero_kernel = make_kernel({"name": "constant", "value": 0.0})
        p = SIEProblem(np.linspace(0, 1, 21), zero_kernel, UNIT_FORCING, LINEAR_04, L_04)
        cond = sie_conditions(p)
        assert cond.contraction_rate == 0.0
        assert cond.satisfied

    def test_exp_decay_kernel_mass(self):
        p = SIEProblem(
            np.linspace(0, 1, 401), make_kernel("exp-decay"), UNIT_FORCING, LINEAR_04, L_04
        )
        cond = sie_conditions(p)
        # max over t of the integral of e^{-(t-s)} is 1 - e^{-1}
        assert cond.m_hat == pytest.approx(1.0 - np.exp(-1.0), abs=1e-5)
        assert cond.sup_kernel == pytest.approx(1.0)


def random_kernel(t, s, path):
    # a different decay rate and sign per path
    return (-1.0) ** path * np.exp(-(1.0 + 0.3 * path) * (t - s))


class TestBlockedConditions:
    """The row-blocked conditions equal the full-array formula bit for bit."""

    @pytest.mark.parametrize(
        "kernel",
        [CONST_KERNEL, make_kernel("exp-decay"), make_kernel({"name": "constant", "value": -0.7})],
        ids=["constant", "exp-decay", "negative"],
    )
    @pytest.mark.parametrize("n_paths", [1, 5])
    def test_deterministic_kernels(self, kernel, n_paths):
        p = SIEProblem(np.linspace(0, 1, 41), kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths)
        assert_same_conditions(sie_conditions(p), full_array_conditions(p))

    @pytest.mark.parametrize("n_paths", [1, 4])
    def test_random_kernel(self, n_paths):
        p = SIEProblem(
            np.linspace(0, 1, 31), random_kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths,
            kernel_is_random=True,
        )
        cond = sie_conditions(p)
        assert_same_conditions(cond, full_array_conditions(p))
        if n_paths > 1:
            assert cond.m_hat_stderr > 0.0

    @pytest.mark.parametrize("block_elements", [1, 2 * 13, 3 * 13, 5 * 13, 12 * 13, 13 * 13, 1 << 18])
    @pytest.mark.parametrize("random", [False, True])
    def test_block_boundaries(self, monkeypatch, block_elements, random):
        # 13 nodes: blocks of 1, 2, 3, 5, 12 and 13 rows per layer, and one block
        n_paths = 3 if random else 1
        monkeypatch.setattr(stochastic, "_BLOCK_ELEMENTS", block_elements)
        inner = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 11))
        kernel = random_kernel if random else make_kernel("exp-decay")
        p = SIEProblem(
            np.concatenate([[0.0], inner, [1.0]]), kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths,
            kernel_is_random=random,
        )
        assert_same_conditions(sie_conditions(p), full_array_conditions(p))

    @pytest.mark.parametrize(
        "where",
        [(5, 2), (5, 5), (2, 9), (0, 0), (12, 12)],
        ids=["causal", "diagonal", "acausal", "origin", "last"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_entry(self, monkeypatch, where, value):
        monkeypatch.setattr(stochastic, "_BLOCK_ELEMENTS", 4 * 13)
        grid = np.linspace(0, 1, 13)
        t_at, s_at = grid[where[0]], grid[where[1]]

        def kernel(t, s, path):
            # the entry at mesh node (t_i, s_l), whichever rows the kernel is given
            k = np.exp(-(t - s))
            k[(t == t_at) & (s == s_at)] = value
            return k

        p = SIEProblem(grid, kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=2)
        with np.errstate(invalid="ignore"):
            actual, expected = sie_conditions(p), full_array_conditions(p)
        assert_same_conditions(actual, expected)
        # an entry above the diagonal is never read
        assert np.isfinite(actual.contraction_rate) == (where[1] > where[0])

    @pytest.mark.parametrize("n_paths,random", [(1, False), (4, False), (4, True)])
    def test_conditions_read_no_operator(self, n_paths, random):
        # the row masses come from the build pass, so a spoiled operator changes nothing
        p = SIEProblem(
            nonuniform_grid(41), random_kernel if random else make_kernel("exp-decay"), UNIT_FORCING, LINEAR_04,
            L_04, n_paths=n_paths, kernel_is_random=random,
        )
        op = stochastic._DiscreteOperator(p)
        op.weighted[...] = np.nan
        assert_same_conditions(op.conditions(), full_array_conditions(p))

    def test_solve_reports_the_same_conditions(self):
        gaussian = make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.1})
        p = linear_problem(n_time=60, n_paths=6, seed=3, forcing=gaussian)
        assert_same_conditions(sie_solve(p, eps=1e-10).conditions, full_array_conditions(p))

    def test_solve_peak_memory(self, traced_peak):
        # about three (n_time + 1)^2 float64 arrays (30.5 MiB each) at peak;
        # a build with a full-size |k|, causal mask and w * |k| peaks at 172 MiB
        p = linear_problem(n_time=2000)
        sol, peak = traced_peak(sie_solve, p, eps=1e-12, max_iter=50)
        assert sol.converged
        assert peak < 110 * 2**20


def old_build(problem):
    """Reference: the full-mesh build, ``weighted`` and the causal sup of |k|."""
    kernels = kernel_meshes(problem)
    causal = np.tril(np.ones(kernels.shape[1:], dtype=bool))
    return causal_trapezoid_weights(problem.time_grid) * kernels, float(np.abs(kernels)[:, causal].max())


def nonuniform_grid(n, seed=5):
    return np.concatenate([[0.0], np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n - 2)), [1.0]])


BUILD_KERNELS = {
    "constant": (CONST_KERNEL, False),
    "negative": (make_kernel({"name": "constant", "value": -0.7}), False),
    "exp-decay": (make_kernel("exp-decay"), False),
    "random": (random_kernel, True),
}


class TestBlockedBuild:
    """The one-array blocked build equals the full-mesh build bit for bit."""

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 5, 12, 13, None])
    @pytest.mark.parametrize("kernel", sorted(BUILD_KERNELS))
    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_matches_full_mesh_build(self, monkeypatch, block_rows, kernel, n_paths):
        fn, random = BUILD_KERNELS[kernel]
        if block_rows is not None:
            monkeypatch.setattr(stochastic, "_BLOCK_ELEMENTS", block_rows * 13 * (n_paths if random else 1))
        p = SIEProblem(
            nonuniform_grid(13), fn, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths, kernel_is_random=random,
        )
        weighted, sup = old_build(p)
        op = stochastic._DiscreteOperator(p)
        assert op.weighted.shape == weighted.shape
        assert np.array_equal(op.weighted, weighted)
        assert op.sup_kernel == sup

    def test_random_kernel_called_once_per_path(self):
        calls = []

        def kernel(t, s, path):
            calls.append(path)
            return random_kernel(t, s, path)

        p = SIEProblem(
            np.linspace(0, 1, 21), kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=5, kernel_is_random=True,
        )
        sie_solve(p, eps=1e-10)
        assert calls == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("kernel", ["constant", "exp-decay"])
    def test_solve_peak_memory_one_mesh(self, traced_peak, kernel):
        # one 2001^2 float64 array is 30.5 MiB; the build adds 2 MiB blocks
        f, lip = make_nonlinearity({"name": "linear", "coefficient": 0.4})
        p = SIEProblem(np.linspace(0, 1, 2001), make_kernel(kernel), UNIT_FORCING, f, lip)
        sol, peak = traced_peak(sie_solve, p, eps=1e-12, max_iter=50)
        assert sol.converged
        assert peak < 46 * 2**20


def meshes(n):
    t = np.linspace(0.0, 1.0, n)
    return np.meshgrid(t, t, indexing="ij")


def exp_decay_mesh(n=13):
    t_mesh, s_mesh = meshes(n)
    return np.exp(-(t_mesh - s_mesh))


def read_only(k):
    k.setflags(write=False)
    return k


class TestKernelContract:
    """The kernel is called on (r, n) row blocks of the mesh, and its results are only read."""

    # 13 nodes in blocks of 4 rows: rows 0..3, 4..7, 8..11 and 12
    BLOCKS = [(0, 4), (4, 8), (8, 12), (12, 13)]

    def problem(self, monkeypatch, kernel, n_paths=1, random=False):
        # blocks are sized per kernel layer, so a random kernel gets 4-row blocks too
        monkeypatch.setattr(stochastic, "_BLOCK_ELEMENTS", 4 * 13)
        return SIEProblem(
            np.linspace(0, 1, 13), kernel, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths, kernel_is_random=random,
        )

    @pytest.mark.parametrize("n_paths,random", [(1, False), (3, False), (3, True)])
    def test_read_only_zero_stride_row_blocks_in_order(self, monkeypatch, n_paths, random):
        seen = []

        def kernel(t, s, path):
            seen.append((t, s, path))
            return np.exp(-(t - s))

        stochastic._DiscreteOperator(self.problem(monkeypatch, kernel, n_paths, random))
        paths = range(n_paths) if random else [0]
        assert [path for _, _, path in seen] == [j for _ in self.BLOCKS for j in paths]
        ref_t, ref_s = meshes(13)
        calls = iter(seen)
        for r0, r1 in self.BLOCKS:
            for _ in paths:
                t_rows, s_rows, _ = next(calls)
                assert t_rows.shape == s_rows.shape == (r1 - r0, 13)
                assert np.array_equal(t_rows, ref_t[r0:r1]) and np.array_equal(s_rows, ref_s[r0:r1])
                for rows in (t_rows, s_rows):
                    assert not rows.flags.writeable
                    assert 0 in rows.strides

    @pytest.mark.parametrize(
        "convert",
        [
            lambda k: k,
            read_only,
            lambda k: np.asfortranarray(k),
            lambda k: k.astype(np.float32),
            lambda k: np.rint(k * 4.0).astype(np.int64),
            lambda k: k.tolist(),
        ],
        ids=["held", "read-only", "fortran", "float32", "int64", "nested-list"],
    )
    @pytest.mark.parametrize("n_paths,random", [(1, False), (3, True)])
    def test_results_are_converted_and_never_written(self, monkeypatch, convert, n_paths, random):
        held = []  # every result stays referenced here, so none is the build's to reuse

        def kernel(t, s, path):
            k = convert(np.exp(-(t - s)))
            held.append((k, np.array(k, dtype=float)))
            return k

        op = stochastic._DiscreteOperator(self.problem(monkeypatch, kernel, n_paths, random))
        for k, before in held:
            assert np.array_equal(np.asarray(k, dtype=float), before)
            if isinstance(k, np.ndarray):
                assert not np.shares_memory(op.weighted, k)
        # the values as floats, layer by layer, rows in block order
        layers = len(held) // len(self.BLOCKS)
        values = np.stack([np.concatenate([v for _, v in held[j::layers]]) for j in range(layers)])
        assert op.weighted.flags.c_contiguous and op.weighted.dtype == np.float64
        assert np.array_equal(op.weighted, causal_trapezoid_weights(op.problem.time_grid) * values)

    def test_shared_cached_rows_are_never_written(self, monkeypatch):
        # one cached (r, n) array per block, returned for every path and every build
        cache = {}

        def kernel(t, s, path):
            return cache.setdefault(t[0, 0], np.exp(-(t - s)))

        p = self.problem(monkeypatch, kernel, n_paths=3, random=True)
        first = stochastic._DiscreteOperator(p)
        before = {key: rows.copy() for key, rows in cache.items()}
        second = stochastic._DiscreteOperator(p)
        assert all(np.array_equal(cache[key], rows) for key, rows in before.items())
        assert np.array_equal(first.weighted, second.weighted)
        expected = old_build(self.problem(monkeypatch, make_kernel("exp-decay")))[0]
        assert np.array_equal(first.weighted, np.repeat(expected, 3, axis=0))

    @pytest.mark.parametrize(
        "shape",
        [
            lambda r, n: (),
            lambda r, n: (n,),
            lambda r, n: (r, 1),
            lambda r, n: (r + 1, n),
            lambda r, n: (r, n, 1),
            lambda r, n: (n, n),
        ],
        ids=["scalar", "one-row", "one-column", "extra-row", "extra-axis", "full-mesh"],
    )
    @pytest.mark.parametrize("bad_block", range(4))
    @pytest.mark.parametrize("n_paths,random", [(1, False), (2, True)])
    def test_wrong_shape_refused_in_every_block(self, monkeypatch, shape, bad_block, n_paths, random):
        r0, r1 = self.BLOCKS[bad_block]
        t_bad = np.linspace(0, 1, 13)[r0]

        def kernel(t, s, path):
            if t[0, 0] == t_bad and path == n_paths - 1:
                return np.ones(shape(r1 - r0, 13))
            return np.exp(-(t - s))

        p = self.problem(monkeypatch, kernel, n_paths, random)
        with pytest.raises(InvalidParameterError, match=rf"one value per mesh node.* rows {r0}\.\.{r1 - 1}"):
            stochastic._DiscreteOperator(p)

    def test_full_mesh_kernel_is_refused(self, monkeypatch):
        # a kernel that ignores its row block and returns the whole (n, n) mesh
        p = self.problem(monkeypatch, lambda t, s, path: exp_decay_mesh())
        with pytest.raises(InvalidParameterError, match=r"got shape \(13, 13\) for mesh rows 0\.\.3, expected \(4, 13\)"):
            stochastic._DiscreteOperator(p)


class TestKernelsAndNorm:
    @pytest.mark.parametrize("n", [13, 201, 1001])
    def test_exp_decay_bitwise(self, n):
        t_mesh, s_mesh = meshes(n)
        expected = np.exp(-(t_mesh - s_mesh))
        kernel = make_kernel("exp-decay")
        assert np.array_equal(kernel(t_mesh, s_mesh, 0), expected)
        grid = np.linspace(0.0, 1.0, n)
        views = np.meshgrid(grid, grid, indexing="ij", copy=False)
        assert np.array_equal(kernel(*views, 0), expected)

    @pytest.mark.parametrize("n_paths", [1, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_step_norm_matches_full_formula_bitwise(self, n_paths, seed):
        rng = np.random.default_rng(seed)
        t = nonuniform_grid(41, seed)
        old, new = rng.standard_normal((2, n_paths, t.size)) * 10.0 ** rng.integers(-8, 8, (2, n_paths, 1))
        old_copy, new_copy = old.copy(), new.copy()
        w = np.zeros_like(t)
        seg = np.diff(t)
        w[:-1] += seg / 2.0
        w[1:] += seg / 2.0
        expected = float(np.sqrt(np.mean(np.sum(w[None, :] * (new - old) ** 2, axis=1))))
        op = stochastic._DiscreteOperator(
            SIEProblem(t, CONST_KERNEL, UNIT_FORCING, LINEAR_04, L_04, n_paths=n_paths)
        )
        assert op.step_norm(new, old) == expected
        assert np.array_equal(old, old_copy) and np.array_equal(new, new_copy)


class TestDirectSolveOracle:
    """Picard's limit equals forward substitution on the causal system."""

    SINE = staticmethod(lambda s, x: 0.4 * np.sin(x))

    def test_nonlinear_sine(self):
        p = SIEProblem(
            np.linspace(0, 1, 201), make_kernel("exp-decay"), UNIT_FORCING, self.SINE, 0.4,
        )
        sol = sie_solve(p, eps=1e-14, max_iter=200)
        assert sol.converged
        assert np.max(np.abs(sol.field - forward_substitution(p))) <= 1e-10

    def test_multi_path_gaussian_forcing(self):
        gaussian = make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.3})
        for nonlinearity, lip in ((self.SINE, 0.4), (LINEAR_04, L_04)):
            p = SIEProblem(
                np.linspace(0, 1, 101), make_kernel("exp-decay"), gaussian, nonlinearity, lip,
                n_paths=12, seed=17,
            )
            sol = sie_solve(p, eps=1e-14, max_iter=200)
            assert sol.converged
            assert np.max(np.abs(sol.field - forward_substitution(p))) <= 1e-10

    def test_random_kernel_paths(self):
        p = SIEProblem(
            np.linspace(0, 1, 81), random_kernel, UNIT_FORCING, self.SINE, 0.4, n_paths=3,
            kernel_is_random=True,
        )
        sol = sie_solve(p, eps=1e-14, max_iter=200)
        assert np.max(np.abs(sol.field - forward_substitution(p))) <= 1e-10


class TestSieSolve:
    def test_deterministic_exponential(self):
        p = linear_problem(n_time=1000)
        sol = sie_solve(p, eps=1e-10)
        assert sol.converged
        assert sol.contraction_rate == pytest.approx(0.4, abs=1e-12)
        err = np.max(np.abs(sol.field[0] - np.exp(0.4 * p.time_grid)))
        assert err <= 1e-3

    def test_zero_nonlinearity_single_iteration(self):
        f, lip = make_nonlinearity("zero")
        p = SIEProblem(np.linspace(0, 1, 51), CONST_KERNEL, UNIT_FORCING, f, lip)
        sol = sie_solve(p, eps=1e-12)
        assert sol.converged
        assert sol.iterations == 1

    def test_stochastic_matches_per_path_closed_form(self):
        gaussian = make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.1})
        p = linear_problem(n_time=200, n_paths=64, seed=42, forcing=gaussian)
        sol = sie_solve(p, eps=1e-10)
        closed = sol.field[:, :1] * np.exp(0.4 * p.time_grid)[None, :]
        assert np.max(np.abs(sol.field - closed)) <= 1e-3

    def test_successive_ratio_bounded_by_rate(self):
        p = linear_problem(n_time=400)
        sol = sie_solve(p, eps=1e-12)
        assert sol.conditions.satisfied
        ratios = [b / a for a, b in zip(sol.step_norms, sol.step_norms[1:])]
        assert all(r <= sol.contraction_rate + 0.05 for r in ratios[1:])

    def test_warns_when_conditions_fail(self):
        p = linear_problem(n_time=50, coefficient=0.6)
        with pytest.warns(RuntimeWarning):
            sol = sie_solve(p, eps=1e-10)
        assert sol.converged  # rate 0.6 is still a discrete contraction here

    def test_kernel_undefined_above_the_diagonal(self):
        # sqrt(t - s) is NaN for s > t, which the equation never reads
        def undefined(t, s, path):
            with np.errstate(invalid="ignore"):
                return np.sqrt(t - s)

        def clamped(t, s, path):
            return np.sqrt(np.maximum(t - s, 0.0))

        grid = np.linspace(0, 1, 51)
        solutions = [
            sie_solve(SIEProblem(grid, kernel, UNIT_FORCING, LINEAR_04, L_04), eps=1e-8)
            for kernel in (undefined, clamped)
        ]
        assert all(sol.converged for sol in solutions)
        assert np.array_equal(solutions[0].field, solutions[1].field)
        assert solutions[0].step_norms == solutions[1].step_norms
        assert_same_conditions(solutions[0].conditions, solutions[1].conditions)

    def test_divergence_raises(self):
        # the coefficient must outrun the factorial decay of the iterated
        # integration operator before float range ends, hence the size
        p = linear_problem(n_time=50, coefficient=2000.0)
        with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
            with np.errstate(over="ignore", invalid="ignore"):
                sie_solve(p, eps=1e-12, max_iter=200)

    def test_cone_preservation_nonnegative_data(self):
        f, lip = make_nonlinearity({"name": "linear", "coefficient": 0.3})
        p = SIEProblem(np.linspace(0, 1, 101), CONST_KERNEL, UNIT_FORCING, f, lip)
        field = np.ones((1, 101))
        for _ in range(10):
            field = sie_apply(p, field)
            assert np.all(field >= 0.0)

    def test_path_stability_under_doubling(self):
        gaussian = make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.1})
        small = sie_solve(linear_problem(n_time=100, n_paths=50, seed=9, forcing=gaussian), eps=1e-10)
        large = sie_solve(linear_problem(n_time=100, n_paths=100, seed=9, forcing=gaussian), eps=1e-10)
        assert np.array_equal(small.field, large.field[:50])


class TestProblemValidation:
    def test_grid_must_span_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            SIEProblem(np.linspace(0, 2, 11), CONST_KERNEL, UNIT_FORCING, LINEAR_04, L_04)
        with pytest.raises(InvalidParameterError):
            SIEProblem(np.linspace(0.1, 1, 10), CONST_KERNEL, UNIT_FORCING, LINEAR_04, L_04)

    def test_negative_lipschitz_rejected(self):
        with pytest.raises(InvalidParameterError):
            SIEProblem(np.linspace(0, 1, 11), CONST_KERNEL, UNIT_FORCING, LINEAR_04, -0.4)

    def test_paths_positive(self):
        with pytest.raises(InvalidParameterError):
            SIEProblem(np.linspace(0, 1, 11), CONST_KERNEL, UNIT_FORCING, LINEAR_04, L_04, n_paths=0)
