"""Golden ``axioms``, ``classify`` and ``solve`` reports: the CLI must
reproduce them byte for byte.

Each file under ``tests/golden/<command>/`` is a ``report.json`` with its
``wall_time_s`` field removed, re-serialized with ``canonical_json``. A
change that alters report numbers on purpose regenerates them with::

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

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
}

def render(command: str, config: dict, work_dir: Path) -> str:
    """Run ``probcone <command>`` on ``config`` and return its report minus wall time."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg = work_dir / "config.json"
    cfg.write_text(json.dumps(config))
    out = work_dir / "out"
    assert main([command, "--config", str(cfg), "--seed", str(SEED), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report.pop("wall_time_s")
    return canonical_json(report)


def assert_matches_golden(command: str, name: str, work_dir: Path) -> None:
    expected = (GOLDEN_ROOT / command / f"{name}.json").read_text()
    assert render(command, CASES[command][name], work_dir) == expected


@pytest.mark.parametrize("name", sorted(CASES["axioms"]))
def test_axioms_report_matches_golden(name, tmp_path):
    assert_matches_golden("axioms", name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES["classify"]))
def test_classify_report_matches_golden(name, tmp_path):
    assert_matches_golden("classify", name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES["solve"]))
def test_solve_report_matches_golden(name, tmp_path):
    assert_matches_golden("solve", name, tmp_path)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for command, name in ((c, n) for c, cases in CASES.items() for n in sorted(cases)):
            target = GOLDEN_ROOT / command / f"{name}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(render(command, CASES[command][name], Path(scratch) / command / name))
            print(f"wrote {target}", file=sys.stderr)
