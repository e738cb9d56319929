"""End-to-end acceptance suite.

One test per shipped criterion, each printing a PASS/FAIL line with its
wall time (run with ``pytest -s tests/test_acceptance.py`` to see them).
Tolerances are pinned here and nowhere else.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from probcone import (
    DiracStep,
    Empirical,
    GaussianShift,
    RandomOperator,
    Ensemble,
    Orthant,
    RateNotCertifiedError,
    ScaledGaussian,
    SIEProblem,
    TNorm,
    check_axioms,
    check_bounds,
    check_kannan,
    check_random_kannan,
    from_samples,
    picard,
    sie_conditions,
    sie_solve,
    uniqueness_probe,
    verify_fixed_point,
    zamfirescu_delta,
)
from probcone.cli import main
from probcone.registry import (
    cone_gaussian_space,
    constant_map,
    dirac_space,
    make_forcing,
    make_kernel,
    make_nonlinearity,
    rotation_half_map,
    scale_map,
)

FOLDED_NORMAL = {0.5: 0.38292492254802624, 1.0: 0.6826894921370859, 2.0: 0.9544997361036416}


@contextlib.contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL ({time.perf_counter() - start:.2f}s): {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {label}")


def test_01_tnorm_axiom_suite():
    with criterion(1, "t-norm axiom suite, 10^4 triples per kind", budget_s=1.0):
        rng = np.random.default_rng(1)
        a, b, c = rng.uniform(0.0, 1.0, (3, 10_000))
        for kind in TNorm:
            assert np.max(np.abs(kind.apply(a, b) - kind.apply(b, a))) <= 1e-15
            assert (
                np.max(np.abs(kind.apply(kind.apply(a, b), c) - kind.apply(a, kind.apply(b, c))))
                <= 1e-15
            )
            lo, hi = np.minimum(a, c), np.maximum(a, c)
            assert np.all(kind.apply(lo, b) <= kind.apply(hi, b))
            assert np.max(np.abs(kind.apply(a, np.ones_like(a)) - a)) <= 1e-15
        luk = TNorm.LUKASIEWICZ.apply(a, b)
        prod = TNorm.PRODUCT.apply(a, b)
        mini = TNorm.MINIMUM.apply(a, b)
        assert np.all(luk <= prod) and np.all(prod <= mini)


def test_02_distribution_invariants():
    with criterion(2, "distribution monotonicity, left-continuity, folded-normal MC"):
        rng = np.random.default_rng(2)
        emp_atoms = rng.uniform(0.0, 4.0, 10_000)
        variants = [
            DiracStep(1.5),
            GaussianShift(0.4),
            ScaledGaussian(0.5),
            Empirical(emp_atoms),
        ]
        # monotonicity: 10^4 ordered random pairs per variant
        for f in variants:
            t1 = rng.uniform(-5.0, 50.0, 10_000)
            t2 = t1 + rng.uniform(0.0, 10.0, 10_000)
            v1, v2 = np.asarray(f.eval(t1)), np.asarray(f.eval(t2))
            assert np.all((v1 >= 0.0) & (v2 <= 1.0))
            assert np.all(v1 <= v2)

        # left-continuity, 10^4 checks per variant
        eta = 1e-7
        emp = Empirical(emp_atoms)
        # every atom of a 10^4-sample empirical CDF keeps the strict count
        counts = np.searchsorted(emp.samples, emp.samples, side="left")
        assert np.array_equal(np.asarray(emp.eval(emp.samples)), counts / emp.n)
        # the step variants at their jump: value equals the left limit
        step = DiracStep(1.5)
        assert step.eval(1.5) == step.eval(1.5 - eta) == 0.0
        assert step.eval(1.5 + eta) == 1.0
        scaled = ScaledGaussian(0.5)
        assert scaled.eval(0.0) == scaled.eval(-eta) == 0.0
        # away from jumps: left increments are density-bounded (10^4 points)
        for f, slope in [(GaussianShift(0.4), 0.4), (ScaledGaussian(0.5), 0.2)]:
            t = rng.uniform(0.5, 6.0, 10_000)
            inc = np.asarray(f.eval(t)) - np.asarray(f.eval(t - eta))
            assert np.all(inc >= 0.0)
            assert np.all(inc <= slope * eta + 1e-12)
        t = rng.uniform(-5.0, 50.0, 10_000)
        t = t[np.abs(t - 1.5) > eta]
        step_inc = np.asarray(step.eval(t)) - np.asarray(step.eval(t - eta))
        assert np.all(step_inc == 0.0)

        folded = from_samples(np.abs(np.random.default_rng(31415).standard_normal(10_000)))
        for t_ref, expected in FOLDED_NORMAL.items():
            assert folded.eval(t_ref) == pytest.approx(expected, abs=0.02)


def test_03_menger_embedding():
    with criterion(3, "metric embedding passes the axiom suite on 10^3 triples", budget_s=30.0):
        # 12 points give 1320 ordered triples, each over the full 50x50 grid
        report = check_axioms(dirac_space(tnorm=TNorm.MINIMUM), n_points=12, tol=0.0, seed=7)
        assert report.all_passed
        assert report.identity.worst_margin >= 0.0
        assert report.symmetry.worst_margin >= -0.0
        assert report.triangle.worst_margin >= 0.0


def test_04_rotation_half_reproduction():
    with criterion(4, "rotation-half orbit, fixed point, and diagnostic flags"):
        space = dirac_space()
        mapping = rotation_half_map()
        trace = picard(space, mapping, [1.0, 0.0], eps=1e-10, max_iter=1000)
        assert trace.stopped_reason == "converged"
        norms = np.linalg.norm(trace.points, axis=1)
        ratios = norms[1:41] / norms[:40]
        assert np.max(np.abs(ratios - 2.0**-0.5)) < 1e-9
        assert np.linalg.norm(trace.limit) < 1e-9
        assert verify_fixed_point(space, mapping, [0.0, 0.0]).is_fixed

        report = check_axioms(cone_gaussian_space(delta=0.5), n_points=8, seed=3)
        assert len(report.sub_distribution_pairs) > 0
        assert not report.symmetry.passed
        assert report.symmetry.witness is not None


def test_05_bound_consistency():
    with criterion(5, "certified rate implies per-step and chain bounds"):
        space = dirac_space()
        cases = [
            (scale_map(0.2), 0.3),
            (scale_map(0.25), 0.4),
            (constant_map([0.1, -0.2]), 0.2),
        ]
        for mapping, alpha in cases:
            cert = check_kannan(space, mapping, alpha, pairs=64, seed=21)
            assert cert.passed, f"{mapping.name} must pass at rate {alpha}"
            trace = picard(space, mapping, [0.8, 0.6], eps=1e-10, max_iter=300)
            check = check_bounds(trace, alpha, tnorm=TNorm.MINIMUM, tol=0.0)
            assert check.holds
            assert check.n_violations == 0


def test_06_zamfirescu_delta_values():
    with criterion(6, "hybrid rate formula at the three reference inputs"):
        # max(alpha, 2 beta, 2 gamma / (1 - 2 gamma)), which reaches 1 at gamma = 1/4
        assert zamfirescu_delta(0.5, 0.25, 0.2) == 0.4 / 0.6
        assert zamfirescu_delta(0.5, 0.4, 0.2) == 0.8
        with pytest.raises(RateNotCertifiedError) as err:
            zamfirescu_delta(0.3, 0.3, 0.3)
        assert err.value.delta == 0.6 / 0.4


def test_07_random_operator_desk_scale():
    with criterion(7, "samplewise and distributional checks at N=10^4", budget_s=30.0):
        rng = np.random.default_rng(11)
        x = Ensemble(rng.uniform(0.1, 1.1, (10_000, 2)), cone=Orthant(2))
        y = Ensemble(0.92 * x.samples, cone=Orthant(2))
        rot = rotation_half_map()
        op = RandomOperator(lambda j, u: rot(u), name="samplewise rotation-half")
        for alpha in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45):
            result = check_random_kannan(op, [(x, y)], alpha, tol=0.02)
            assert result.samplewise_fraction == 0.0
            assert result.certificate.passed
            assert result.passed


def test_08_integral_equation_oracle():
    with criterion(8, "linear integral equation vs closed form, both variants", budget_s=60.0):
        kernel = make_kernel("constant")
        f, lip = make_nonlinearity({"name": "linear", "coefficient": 0.4})

        deterministic = SIEProblem(
            np.linspace(0.0, 1.0, 1001),
            kernel,
            make_forcing({"name": "constant", "value": 1.0}),
            f,
            lip,
            n_paths=1,
            seed=0,
        )
        cond = sie_conditions(deterministic)
        assert cond.contraction_rate == pytest.approx(0.4, abs=1e-12)
        assert cond.contraction_rate < 0.5
        sol = sie_solve(deterministic, eps=1e-10)
        assert sol.converged
        err = np.max(np.abs(sol.field[0] - np.exp(0.4 * deterministic.time_grid)))
        assert err <= 1e-3
        ratios = [b / a for a, b in zip(sol.step_norms, sol.step_norms[1:])]
        assert all(r <= 0.45 for r in ratios[1:])

        stochastic = SIEProblem(
            np.linspace(0.0, 1.0, 201),
            kernel,
            make_forcing({"name": "gaussian", "base": 1.0, "scale": 0.1}),
            f,
            lip,
            n_paths=1000,
            seed=42,
        )
        sol_paths = sie_solve(stochastic, eps=1e-10)
        assert sol_paths.converged
        closed = sol_paths.field[:, :1] * np.exp(0.4 * stochastic.time_grid)[None, :]
        assert np.max(np.abs(sol_paths.field - closed)) <= 1e-3


def test_09_uniqueness_probe():
    with criterion(9, "ten random starts share one limit to 1e-6"):
        rng = np.random.default_rng(15)
        starts = rng.uniform(-1.0, 1.0, (10, 2))
        result = uniqueness_probe(
            dirac_space(), rotation_half_map(), starts, eps=1e-8, agree_tol=1e-6
        )
        assert result.unique
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.linalg.norm(result.limits[i] - result.limits[j]) < 1e-6


def test_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical reports across worker counts"):
        configs = {
            "axioms": {
                "space": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"},
                "axioms": {"n_points": 8},
            },
            "solve": {
                "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
                "mapping": "rotation-half",
                "solve": {"x0": [1.0, 0.0], "eps": 1e-9, "max_iter": 300, "uniqueness_starts": 6},
            },
            "sie": {
                "sie": {
                    "n_time": 100,
                    "n_paths": 32,
                    "kernel": "constant",
                    "forcing": {"name": "gaussian", "base": 1.0, "scale": 0.1},
                    "nonlinearity": {"name": "linear", "coefficient": 0.4},
                }
            },
        }
        for command, payload in configs.items():
            cfg = tmp_path / f"{command}.json"
            cfg.write_text(json.dumps(payload))
            seen = []
            for workers in ("1", "8"):
                out = tmp_path / f"{command}-w{workers}"
                code = main(
                    [command, "--config", str(cfg), "--seed", "42", "--workers", workers, "--out", str(out)]
                )
                assert code == 0
                report = json.loads((out / "report.json").read_text())
                report.pop("wall_time_s")
                seen.append(json.dumps(report, sort_keys=True))
            assert seen[0] == seen[1], f"{command} report depends on worker count"
