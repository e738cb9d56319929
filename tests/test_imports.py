"""Import footprint: no CLI run imports scipy or ``scipy.special`` (a Gaussian
distance loads only the extension module that defines ``ndtr``), no module
imports jsonschema, even to word the error of an invalid config, and the
thread pool loads only for more than one worker.

Each check runs in a fresh interpreter, since this test process has long
since imported them itself. The package also imports no name it never
uses, computes a Euclidean norm in one place only, reduces margins to
their worst and compares them with -tol in one place each, spells the
tau-closeness test F(x, y)(eps) > 1 - eps in ``space`` only, states each
cone's membership in its rows kernel only, divides a
time by twice a rate in the Kannan bound only, raises twice a rate to a
power in ``solver._first_step_at`` only, and never calls
``sys.getrefcount``. Every public name is read by the CLI, named in the
README or deprecated.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import probcone
from probcone import cli, stochastic

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

DIRAC_AXIOMS = {"space": {"dim": 2, "distance": "dirac", "tnorm": "min"}, "axioms": {"n_points": 4}}
GAUSS_AXIOMS = {
    "space": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"},
    "axioms": {"n_points": 4},
}
SMALL_SIE = {"sie": {"n_time": 20, "n_paths": 2, "max_iter": 50}}
DIRAC_CLASSIFY = {
    "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
    "mapping": "scale:0.5",
    "classify": {"kinds": ["banach", "kannan"], "n_pairs": 4},
}
DIRAC_SOLVE = {
    "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
    "mapping": "scale:0.5",
    "solve": {"x0": [1.0, 2.0], "uniqueness_starts": 2},
}
GAUSS_CLASSIFY = {
    "space": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"},
    "mapping": "scale:0.5",
    "classify": {"kinds": ["banach", "kannan"], "n_pairs": 4},
}
WITH_POOL = ("scipy", "jsonschema", "concurrent.futures")
NDTR_EXTENSION = "scipy.special._special_ufuncs"
SCIPY_AND_NDTR = ("scipy", "scipy.special", NDTR_EXTENSION)


def run_fresh(code: str, *args: str, watched=("scipy", "jsonschema")):
    """Names among ``watched`` in sys.modules after running code, and its stderr."""
    probe = code + f"\nimport json, sys; print(json.dumps([m for m in {watched!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1])), done.stderr


def loaded_after(code: str, *args: str, watched=("scipy", "jsonschema")) -> set:
    return run_fresh(code, *args, watched=watched)[0]


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_library_import_loads_neither_scipy_nor_jsonschema():
    assert loaded_after("import probcone") == set()


def test_cli_import_does_not_load_numpy_random():
    # the first draw imports it: a refused config never pays for it, and set-up time does not grow
    assert loaded_after("import probcone.cli", watched=("numpy.random",)) == set()


def test_cli_config_validation_does_not_load_scipy(tmp_path):
    cfg = write_config(tmp_path, DIRAC_AXIOMS)
    loaded = loaded_after("import sys; from probcone.cli import load_config; load_config(sys.argv[1])", cfg)
    assert loaded == set()


RUN_MAIN = "import sys; from probcone import cli; assert cli.main(sys.argv[1:]) == 0"


@pytest.mark.parametrize(
    "command,payload,evaluates_phi",
    [
        ("sie", SMALL_SIE, False),
        ("axioms", DIRAC_AXIOMS, False),
        ("axioms", GAUSS_AXIOMS, True),
        ("classify", GAUSS_CLASSIFY, True),
        ("demo", None, True),
    ],
    ids=["sie", "axioms-dirac", "axioms-gaussian", "classify-gaussian", "demo"],
)
def test_cli_run_never_imports_scipy_special(tmp_path, command, payload, evaluates_phi):
    # a run that evaluates Phi loads the one extension module that defines ndtr
    config = ("--config", write_config(tmp_path, payload)) if payload else ()
    loaded = loaded_after(RUN_MAIN, command, *config, "--out", str(tmp_path / "out"), watched=SCIPY_AND_NDTR)
    assert loaded == ({NDTR_EXTENSION} if evaluates_phi else set())


@pytest.mark.parametrize(
    "command,payload",
    [("axioms", DIRAC_AXIOMS), ("classify", DIRAC_CLASSIFY), ("solve", DIRAC_SOLVE), ("sie", SMALL_SIE)],
    ids=["axioms", "classify", "solve", "sie"],
)
def test_valid_one_worker_run_loads_neither_jsonschema_nor_thread_pool(tmp_path, command, payload):
    cfg = write_config(tmp_path, payload)
    args = ("--config", cfg, "--workers", "1", "--out", str(tmp_path / "out"))
    assert loaded_after(RUN_MAIN, command, *args, watched=WITH_POOL) == set()


def test_two_worker_run_loads_thread_pool(tmp_path):
    cfg = write_config(tmp_path, DIRAC_AXIOMS)
    args = ("--config", cfg, "--workers", "2", "--out", str(tmp_path / "out"))
    assert loaded_after(RUN_MAIN, "axioms", *args, watched=WITH_POOL) == {"concurrent.futures"}


def test_invalid_config_message_loads_no_jsonschema(tmp_path):
    cfg = write_config(tmp_path, {"space": {"dim": 2, "tnorm": "median"}})
    code = "import sys; from probcone import cli; assert cli.main(sys.argv[1:]) == 2"
    loaded, stderr = run_fresh(code, "axioms", "--config", cfg, "--out", str(tmp_path / "out"), watched=WITH_POOL)
    assert loaded == set()
    assert stderr == "config error: config field 'space/tnorm': 'median' is not one of ['min', 'product', 'lukasiewicz']\n"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Reads the thread count without running probcone's __init__: a bare
# package object lets ``probcone.stochastic`` import on its own.
BARE_PROBCONE = (
    "import sys, types; package = types.ModuleType('probcone'); "
    f"package.__path__ = [{str(SRC / 'probcone')!r}]; sys.modules['probcone'] = package"
)
PRINT_THREADS = (
    "\nimport json, os; from probcone import stochastic; get, _ = stochastic._load_blas_threads(); "
    "threads = get(); import numpy as np; np.ones((512, 512)) @ np.ones((512, 512)); "
    "print(json.dumps([threads, get(), dict(os.environ) == environ]))"
)


def blas_threads_after(code: str, **variables: str) -> list:
    """[count after ``code``, count after a 512x512 matmul, os.environ unchanged]
    in a fresh interpreter whose only BLAS thread-count variables are ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(SRC))
    probe = "import os; environ = dict(os.environ)\n" + code + PRINT_THREADS
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.skipif(
    stochastic._load_blas_threads() is None or (os.cpu_count() or 1) < 2,
    reason="needs numpy's bundled OpenBLAS and at least two CPUs",
)
class TestBlasStartRule:
    """Importing probcone before numpy starts OpenBLAS on one thread, unless asked otherwise."""

    def test_probcone_first_starts_one_thread_and_restores_environ(self):
        assert blas_threads_after("import probcone") == [1, 1, True]

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_set_variable_keeps_its_count(self, variable):
        assert blas_threads_after("import probcone", **{variable: "2"}) == [2, 2, True]

    def test_numpy_first_keeps_numpys_own_count(self):
        bare = blas_threads_after("import numpy\n" + BARE_PROBCONE)
        assert blas_threads_after("import numpy; import probcone") == bare


def imports_outside_functions(path: Path) -> set:
    """Top-level package names ``path`` imports outside any function body."""
    names = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names.update(a.name.split(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names.add(child.module.split(".")[0])
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child)

    visit(ast.parse(path.read_text()))
    return names


def test_scipy_is_imported_only_inside_functions_and_jsonschema_nowhere():
    eager = {
        f"{path.stem}: {name}"
        for path in sorted((SRC / "probcone").glob("*.py"))
        for name in imports_outside_functions(path) & {"scipy", "jsonschema"}
    }
    assert eager == set()
    anywhere = {
        path.stem
        for path in sorted((SRC / "probcone").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "jsonschema" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jsonschema"
    }
    assert anywhere == set()


def schema_keywords(schema: dict):
    """Every (keyword, value) of ``schema`` and of each subschema in it."""
    for keyword, value in schema.items():
        yield keyword, value
        if keyword == "properties":
            for sub in value.values():
                yield from schema_keywords(sub)
        elif keyword == "anyOf":
            for sub in value:
                yield from schema_keywords(sub)
        elif keyword == "items":
            yield from schema_keywords(value)


def test_every_schema_keyword_is_one_the_fast_check_knows():
    # _first_error has no entry for any other keyword, and words
    # "additionalProperties" and "maxItems" only for the values below
    pairs = list(schema_keywords(cli.CONFIG_SCHEMA))
    assert {keyword for keyword, _ in pairs} <= set(cli._KEYWORDS)
    assert {value for keyword, value in pairs if keyword == "type"} <= set(cli._JSON_TYPES)
    assert {value for keyword, value in pairs if keyword == "additionalProperties"} == {False}
    assert min(value for keyword, value in pairs if keyword == "maxItems") > 0


def unused_imports(path: Path) -> set:
    """Names ``path`` imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return imported - used


def test_only_the_tracer_patch_points_are_imported_unused():
    # bench/tracer.py patches these two module attributes, so they stay imported
    unused = {f"{path.stem}.{name}" for path in sorted((SRC / "probcone").glob("*.py")) for name in unused_imports(path)}
    assert unused == {"cli.sie_conditions", "solver.ordered_map"}


def norm_uses(path: Path) -> list:
    """``module.function`` for each mention of ``hypot`` or ``linalg.norm`` in ``path``."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                name, owner = child.attr, getattr(child.value, "attr", getattr(child.value, "id", None))
            elif isinstance(child, ast.alias):  # from ... import hypot / norm
                name, owner = child.name, "linalg" if child.name == "norm" else None
            else:
                name, owner = getattr(child, "id", None), None
            if name == "hypot" or (name == "norm" and owner == "linalg"):
                uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_euclidean_norm_is_computed_only_in_row_norms():
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in norm_uses(path)]
    assert uses == ["dist._row_norms"]


ARG_REDUCTIONS = {"argmin", "argmax", "nanargmin", "nanargmax"}


def arg_reduction_calls(path: Path) -> list:
    """``module.function`` for each call of ``argmin``, ``argmax`` or their ``nan`` forms in ``path``."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in ARG_REDUCTIONS:
                    uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_margins_are_reduced_only_in_first_worst():
    # one worst-margin rule (first smallest, NaN first) for every verdict;
    # _checked_images finds the first bad row of a mask, which is no margin
    allowed = {"contract._checked_images"}
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in arg_reduction_calls(path)]
    assert [use for use in uses if use not in allowed] == ["dist._first_worst"]


def is_minus_tol(node) -> bool:
    """True for ``-tol``, ``-left.tol``, ``-resolved_tol``, ``-MEMBERSHIP_TOL``: a negated tolerance."""
    if not (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)):
        return False
    name = getattr(node.operand, "attr", getattr(node.operand, "id", ""))
    return name.lower().endswith("tol")


def minus_tol_comparisons(path: Path) -> list:
    """``module.function`` for each comparison in ``path`` with a negated tolerance on either side."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(map(is_minus_tol, [child.left, *child.comparators])):
                uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_margins_meet_minus_tol_only_in_passes():
    # one pass rule (margin >= -tol, which a NaN fails) for every verdict, violation
    # count and cone membership gate
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in minus_tol_comparisons(path)]
    assert uses == ["dist._passes"]


def refcount_uses(path: Path) -> list:
    """``module.function`` for each mention of ``getrefcount`` in ``path``: attribute, name or import."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Attribute, ast.Name, ast.alias)):
                name = getattr(child, "attr", getattr(child, "id", getattr(child, "name", None)))
                if name == "getrefcount":
                    uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_no_module_reads_reference_counts():
    # memory use and results must not depend on how CPython counts references
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in refcount_uses(path)]
    assert uses == []


def closeness_tests(path: Path) -> list:
    """``module.function`` for each comparison ``a > 1.0 - b`` (or ``1 - b``) in ``path``."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare):
                for op, right in zip(child.ops, child.comparators):
                    if (
                        isinstance(op, ast.Gt)
                        and isinstance(right, ast.BinOp)
                        and isinstance(right.op, ast.Sub)
                        and isinstance(right.left, ast.Constant)
                        and right.left.value == 1
                    ):
                        uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_tau_closeness_is_spelled_only_in_space():
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in closeness_tests(path)]
    assert uses == ["space._tau_close"]


def membership_uses(path: Path) -> list:
    """``(use, module.scope)`` in ``path`` for each ``_passes`` call given ``MEMBERSHIP_TOL`` ("tolerance"),
    each definition of ``_margins`` or ``membership_margin`` and each call of ``membership_margin`` or
    ``contains`` ("call membership_margin", "call contains"). The scope is the enclosing class or function."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                args = [getattr(arg, "attr", getattr(arg, "id", None)) for arg in child.args]
                if name == "_passes" and "MEMBERSHIP_TOL" in args:
                    uses.append(("tolerance", f"{path.stem}.{scope}"))
                if name in ("membership_margin", "contains"):
                    uses.append((f"call {name}", f"{path.stem}.{scope}"))
            if isinstance(child, ast.FunctionDef) and child.name in ("_margins", "membership_margin"):
                uses.append((child.name, f"{path.stem}.{scope}"))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_cone_membership_is_spelled_only_in_each_cones_rows_kernel():
    # each cone states its constraint once, in _margins; the tolerance meets it in Cone._members; the
    # point methods are their one-row case on Cone; and no caller loops over points to test membership
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in membership_uses(path)]
    assert sorted(uses) == sorted(
        [
            ("_margins", "cone.Cone"),
            ("_margins", "cone.Orthant"),
            ("_margins", "cone.Halfspaces"),
            ("membership_margin", "cone.Cone"),
            ("tolerance", "cone._members"),
            # one point per call: the cone order, sampling and the scalar gate of one pair
            ("call contains", "cone.leq"),
            ("call contains", "cone.sample_member"),
            ("call contains", "cone.normality_check"),
            ("call contains", "space.feasible"),
            ("call contains", "registry.distance"),
        ]
    )


def half_rate_rescalings(path: Path) -> list:
    """``module.function`` for each division by ``2 * rate`` (or ``rate * 2``) in ``path``."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Div)
                and isinstance(child.right, ast.BinOp)
                and isinstance(child.right.op, ast.Mult)
                and any(
                    isinstance(factor, ast.Constant) and factor.value == 2
                    for factor in (child.right.left, child.right.right)
                )
            ):
                uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_kannan_rescaling_is_spelled_only_in_the_kannan_bound():
    # the Kannan and Chatterjea bounds read F at t / (2 alpha); random operators
    # certify through check_kannan rather than a rescaling of their own
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in half_rate_rescalings(path)]
    assert uses == ["contract._kannan_bound"]


def twice_rate_powers(path: Path) -> list:
    """``module.function`` for each power of ``2 * rate`` (or ``rate * 2``) in ``path``."""
    uses = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.BinOp)
                and isinstance(child.op, ast.Pow)
                and isinstance(child.left, ast.BinOp)
                and isinstance(child.left.op, ast.Mult)
                and any(
                    isinstance(factor, ast.Constant) and factor.value == 2
                    for factor in (child.left.left, child.left.right)
                )
            ):
                uses.append(f"{path.stem}.{scope}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return uses


def test_step_divisors_are_spelled_only_in_first_step_at():
    # kannan_bound, the step rows of check_bounds and the chain bound all read
    # F(x_0, x_1) at t / (gap (2 alpha)^j) through this one helper
    uses = [use for path in sorted((SRC / "probcone").glob("*.py")) for use in twice_rate_powers(path)]
    assert uses == ["solver._first_step_at"]


PUBLIC_NAMES = [
    "AxiomCheck", "AxiomReport", "BoundCheck", "Cone", "ConfigError", "ContractionCertificate",
    "DiracStep", "DistFn", "DivergenceError", "DominanceResult", "Empirical", "Ensemble",
    "FixedPointCheck", "GaussianShift", "Halfspaces", "InfeasibleRegionError", "InvalidParameterError",
    "IterationTrace", "Mapping", "NormalityResult", "Orthant", "PCMSpace", "ProbconeError",
    "RandomKannanResult", "RandomOperator", "RateNotCertifiedError", "Rescaled", "SIEConditions",
    "SIEProblem", "SIESolution", "ScaledGaussian", "TNorm", "TimeGrid", "UniquenessResult",
    "cauchy_chain_bound", "cauchy_window", "check_axioms", "check_banach", "check_bounds",
    "check_chatterjea", "check_kannan", "check_random_kannan", "check_zamfirescu", "dominates",
    "empirical_metric", "from_samples", "kannan_bound", "normality_check", "picard", "pointwise_min",
    "sample_pairs", "sample_points", "sie_apply", "sie_conditions", "sie_solve", "tau_converged",
    "timescale", "uniqueness_probe", "verify_fixed_point", "zamfirescu_delta",
]  # fmt: skip

# The public names that only tests called (ROADMAP item 17). Each is named in the
# README: as a library entry, as deprecated, or, for Rescaled, as a replacement.
ITEM_17_NAMES = (
    "cauchy_window",
    "kannan_bound",
    "cauchy_chain_bound",
    "zamfirescu_delta",
    "RateNotCertifiedError",
    "sie_apply",
    "normality_check",
    "NormalityResult",
    "pointwise_min",
    "timescale",
    "Rescaled",
)
DEPRECATED = {"pointwise_min", "timescale"}


def readme_code_names() -> set:
    """Every identifier inside a fenced block or a code span of the README."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    text = README.read_text()
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return {word for span in code for word in re.findall(r"\w+", span)}


def names_the_cli_reads() -> set:
    """Module-level functions and classes of the package reached by name from ``cli.py``.

    A name read anywhere in a reached body (a call, an attribute, an
    annotation) reaches every module-level definition of that name, so this
    over-approximates what a CLI run calls.
    """
    definitions = defaultdict(list)
    for path in sorted((SRC / "probcone").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[node.name].append(node)
    reached, todo = set(), [ast.parse((SRC / "probcone" / "cli.py").read_text())]
    while todo:
        for node in ast.walk(todo.pop()):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in definitions and name not in reached:
                reached.add(name)
                todo.extend(definitions[name])
    return reached


def test_public_names_are_pinned():
    assert probcone.__all__ == PUBLIC_NAMES


def test_item_17_names_are_named_in_the_readme():
    assert set(ITEM_17_NAMES) - readme_code_names() == set()


def test_every_public_name_is_read_by_the_cli_named_in_the_readme_or_deprecated():
    assert set(PUBLIC_NAMES) - names_the_cli_reads() - readme_code_names() - DEPRECATED == set()
    # the uniqueness probe's agreement is cauchy_window on its limits
    assert "cauchy_window" in names_the_cli_reads()


@pytest.mark.parametrize("name", sorted(DEPRECATED))
def test_deprecated_names_are_read_by_no_cli_path(name):
    assert name not in names_the_cli_reads()
