"""Golden ``axioms`` reports: the CLI must reproduce them byte for byte.

Each file under ``tests/golden/axioms/`` is a ``report.json`` with its
``wall_time_s`` field removed, re-serialized with ``canonical_json``. A
change that alters axiom numbers on purpose regenerates them with::

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from probcone.cli import main
from probcone.report import canonical_json

GOLDEN_DIR = Path(__file__).parent / "golden" / "axioms"
SEED = 11
N_POINTS = 12

_SPACES = {
    "dirac2": {"dim": 2, "distance": "dirac"},
    "dirac3-orthant": {"dim": 3, "distance": "dirac", "cone": {"type": "orthant", "dim": 3}},
    "gauss": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}},
}

CASES = {
    f"{space}-{tnorm}": {"space": {**spec, "tnorm": tnorm}, "axioms": {"n_points": N_POINTS}}
    for space, spec in _SPACES.items()
    for tnorm in ("min", "product", "lukasiewicz")
}


def render(config: dict, work_dir: Path) -> str:
    """Run ``probcone axioms`` on ``config`` and return its report minus wall time."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg = work_dir / "config.json"
    cfg.write_text(json.dumps(config))
    out = work_dir / "out"
    assert main(["axioms", "--config", str(cfg), "--seed", str(SEED), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    report.pop("wall_time_s")
    return canonical_json(report)


@pytest.mark.parametrize("name", sorted(CASES))
def test_axioms_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert render(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in sorted(CASES.items()):
            (GOLDEN_DIR / f"{name}.json").write_text(render(config, Path(scratch) / name))
            print(f"wrote {GOLDEN_DIR / name}.json", file=sys.stderr)
