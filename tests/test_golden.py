"""Golden ``axioms``, ``classify``, ``solve`` and ``sie`` outputs: the CLI
must reproduce them byte for byte.

Each ``tests/golden/<command>/<name>.json`` is a ``report.json`` with its
``wall_time_s`` field removed, re-serialized with ``canonical_json``. The
``solve`` cases also pin the orbit and its step distributions on the grid,
as ``<name>.trace.csv``; the ``sie`` cases pin both CSV files, as
``<name>.sie_mean_path.csv`` and ``<name>.sie_residuals.csv``. A change that alters report numbers on purpose
regenerates them with::

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from probcone.cli import main
from probcone.report import canonical_json

GOLDEN_ROOT = Path(__file__).parent / "golden"
SEED = 11
N_POINTS = 12
TNORMS = ("min", "product", "lukasiewicz")

_AXIOM_SPACES = {
    "dirac2": {"dim": 2, "distance": "dirac"},
    "dirac3-orthant": {"dim": 3, "distance": "dirac", "cone": {"type": "orthant", "dim": 3}},
    "gauss": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}},
}

_CLASSIFY_SPACES = {
    "dirac": {"dim": 2, "distance": "dirac"},
    "gauss": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}},
}

# 130 pairs cross a 128-pair block boundary; identity and rotation-half fail
# some kinds, so witnesses are pinned too.
_CLASSIFY = {
    "kinds": ["banach", "kannan", "chatterjea", "zamfirescu"],
    "n_pairs": 130,
    "alpha_sweep": [0.1, 0.2, 0.3, 0.4],
}

_LINEAR = {"name": "linear", "coefficient": 0.4}
_GAUSSIAN = {"name": "gaussian", "base": 1.0, "scale": 0.1}

# Both kernels, both forcings, all three nonlinearities, one and many paths.
# The last two fail the contraction conditions (K = 0.6 and
# K = 0.9 sqrt(1 - 1/e)), so their ``warning`` field is pinned; n_time = 600
# spans two row blocks of the conditions.
_SIE = {
    "constant-constant-linear-1path": {
        "n_time": 50, "kernel": "constant", "forcing": {"name": "constant", "value": 1.0},
        "nonlinearity": _LINEAR, "eps": 1e-10, "max_iter": 200,
    },
    "expdecay-gaussian-linear-paths": {
        "n_time": 40, "n_paths": 25, "kernel": "exp-decay", "forcing": _GAUSSIAN,
        "nonlinearity": _LINEAR, "eps": 1e-10, "max_iter": 200,
    },
    "expdecay-constant-zero-1path": {
        "n_time": 30, "kernel": "exp-decay", "forcing": {"name": "constant", "value": 2.0},
        "nonlinearity": "zero",
    },
    "constant-gaussian-constant-paths": {
        "n_time": 20, "n_paths": 7, "kernel": {"name": "constant", "value": 0.5}, "forcing": _GAUSSIAN,
        "nonlinearity": {"name": "constant", "value": 1.5},
    },
    "constant-constant-linear-fail": {
        "n_time": 600, "kernel": "constant", "forcing": "constant",
        "nonlinearity": {"name": "linear", "coefficient": 0.6}, "eps": 1e-8, "max_iter": 100,
    },
    "expdecay-gaussian-linear-fail-paths": {
        "n_time": 60, "n_paths": 12, "kernel": "exp-decay", "forcing": _GAUSSIAN,
        "nonlinearity": {"name": "linear", "coefficient": 0.9}, "eps": 1e-9, "max_iter": 300,
    },
}

SIE_CSVS = ("sie_mean_path.csv", "sie_residuals.csv")

CASES = {
    "axioms": {
        f"{space}-{tnorm}": {"space": {**spec, "tnorm": tnorm}, "axioms": {"n_points": N_POINTS}}
        for space, spec in _AXIOM_SPACES.items()
        for tnorm in TNORMS
    },
    "classify": {
        f"{space}-{tnorm}-{mapping.replace(':', '')}": {
            "space": {**spec, "tnorm": tnorm},
            "mapping": mapping,
            "classify": _CLASSIFY,
        }
        for space, spec in _CLASSIFY_SPACES.items()
        for tnorm in TNORMS
        for mapping in ("rotation-half", "scale:0.2", "identity")
    },
    "solve": {
        f"dirac-{tnorm}-rotation-half": {
            "space": {"dim": 2, "distance": "dirac", "tnorm": tnorm},
            "mapping": "rotation-half",
            "solve": {
                "x0": [1.0, 0.0],
                "eps": 1e-10,
                "max_iter": 1000,
                "bound_alpha": 0.45,
                "uniqueness_starts": 12,
                "agree_tol": 1e-6,
            },
        }
        for tnorm in TNORMS
    },
    "sie": {name: {"sie": section} for name, section in _SIE.items()},
}

def render(command: str, config: dict, work_dir: Path) -> dict:
    """Run ``probcone <command>`` on ``config``; return {golden file name: text}.

    The report loses its wall time; ``solve`` adds its trace CSV and ``sie``
    its two CSV files.
    """
    name = work_dir.name
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg = work_dir / "config.json"
    cfg.write_text(json.dumps(config))
    out = work_dir / "out"
    assert main([command, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report.pop("wall_time_s")
    files = {f"{name}.json": canonical_json(report)}
    if command == "solve":
        files[f"{name}.trace.csv"] = (out / "trace.csv").read_text()
    if command == "sie":
        files.update({f"{name}.{csv}": (out / csv).read_text() for csv in SIE_CSVS})
    return files


def assert_matches_golden(command: str, name: str, tmp_path: Path) -> None:
    rendered = render(command, CASES[command][name], tmp_path / name)
    for file_name, text in rendered.items():
        assert text == (GOLDEN_ROOT / command / file_name).read_text(), file_name


@pytest.mark.parametrize("name", sorted(CASES["axioms"]))
def test_axioms_report_matches_golden(name, tmp_path):
    assert_matches_golden("axioms", name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES["classify"]))
def test_classify_report_matches_golden(name, tmp_path):
    assert_matches_golden("classify", name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES["solve"]))
def test_solve_report_matches_golden(name, tmp_path):
    assert_matches_golden("solve", name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES["sie"]))
def test_sie_outputs_match_golden(name, tmp_path):
    assert_matches_golden("sie", name, tmp_path)


def test_non_finite_floats_are_written_as_strings():
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    payload = {"nan": float("nan"), "inf": [np.float64(np.inf), -np.inf], "numbers": np.array([1.5, -0.0])}
    parsed = json.loads(canonical_json(payload), parse_constant=refuse)
    assert parsed == {"inf": ["Infinity", "-Infinity"], "nan": "NaN", "numbers": [1.5, -0.0]}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for command, name in ((c, n) for c, cases in CASES.items() for n in sorted(cases)):
            rendered = render(command, CASES[command][name], Path(scratch) / command / name)
            for file_name, text in rendered.items():
                target = GOLDEN_ROOT / command / file_name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
                print(f"wrote {target}", file=sys.stderr)

