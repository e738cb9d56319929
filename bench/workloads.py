"""The benchmark's workloads: fixed CLI configs plus the checks on their outputs.

Each workload is a tuple of cells; a cell is one ``probcone`` CLI invocation.
The workload seed reaches every cell as the CLI's ``--seed``. Outputs are
checked by verdict, not by bytes, against ``reference.json``, so a
documented change in random-number consumption is not counted as an error.

Regenerate the reference after such a change with::

    PYTHONPATH=src python3 bench/workloads.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_CONE_GAUSSIAN = {"kind": "cone-gaussian", "delta": 0.5}
_ALL_KINDS = ["banach", "kannan", "chatterjea", "zamfirescu"]
_CLASSIFY = {"kinds": _ALL_KINDS, "n_pairs": 1024, "alpha_sweep": [0.1, 0.2, 0.3, 0.4]}
_LINEAR = {"name": "linear", "coefficient": 0.4}


def _sie_200x2000_exact(t: float) -> float:
    # X = h + 0.4 * int_0^t e^{-(t-s)} X(s) ds with constant h gives
    # X(t) / h = 1 + (2/3)(1 - e^{-0.6 t}); the path mean inherits it.
    return 1.0 + (2.0 / 3.0) * (1.0 - math.exp(-0.6 * t))


def _sie_2000x1_exact(t: float) -> float:
    # X = 1 + 0.4 * int_0^t X(s) ds
    return math.exp(0.4 * t)


@dataclass(frozen=True)
class Cell:
    """One CLI invocation of a workload."""

    name: str
    command: str
    config: dict
    # Closed form of the mean path divided by its value at t = 0, with the
    # largest relative error allowed against it.
    exact: Optional[Callable[[float], float]] = None
    exact_tol: float = 0.0


WORKLOADS = {
    "axioms-triangle": (
        Cell(
            "gauss-min",
            "axioms",
            {"space": {"dim": 2, "distance": _CONE_GAUSSIAN, "tnorm": "min"}, "axioms": {"n_points": 24}},
        ),
        Cell(
            "gauss-product",
            "axioms",
            {"space": {"dim": 2, "distance": _CONE_GAUSSIAN, "tnorm": "product"}, "axioms": {"n_points": 24}},
        ),
        Cell(
            "orthant3-lukasiewicz",
            "axioms",
            {
                "space": {
                    "dim": 3,
                    "distance": "dirac",
                    "tnorm": "lukasiewicz",
                    "cone": {"type": "orthant", "dim": 3},
                },
                "axioms": {"n_points": 24},
            },
        ),
),
"classify-solve": (
        Cell(
            "classify-dirac-scale",
            "classify",
            {"space": {"dim": 2, "distance": "dirac", "tnorm": "product"}, "mapping": "scale:0.2",
             "classify": _CLASSIFY},
        ),
        Cell(
            "classify-gauss-rotation",
            "classify",
            {"space": {"dim": 2, "distance": _CONE_GAUSSIAN, "tnorm": "min"}, "mapping": "rotation-half",
             "classify": _CLASSIFY},
        ),
        Cell(
            "solve-dirac-rotation",
            "solve",
            {
                "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
                "mapping": "rotation-half",
                "solve": {"x0": [1.0, 0.0], "eps": 1e-10, "max_iter": 1000, "uniqueness_starts": 100,
                          "agree_tol": 1e-6, "bound_alpha": 0.45},
            },
        ),
),
"sie-paths": (
        Cell(
            "sie-200x2000",
            "sie",
            {"sie": {"n_time": 200, "n_paths": 2000, "kernel": "exp-decay",
                     "forcing": {"name": "gaussian", "base": 1.0, "scale": 0.1},
                     "nonlinearity": _LINEAR, "eps": 1e-10, "max_iter": 200}},
            exact=_sie_200x2000_exact,
            exact_tol=1e-5,
        ),
        Cell(
            "sie-2000x1",
            "sie",
            {"sie": {"n_time": 2000, "n_paths": 1, "kernel": "constant",
                     "forcing": {"name": "constant", "value": 1.0},
                     "nonlinearity": _LINEAR, "eps": 1e-12, "max_iter": 200}},
            exact=_sie_2000x1_exact,
            exact_tol=1e-8,
        ),
    ),
}


def cli_args(cell: Cell, config_path: Path, seed: int, out_dir: Path) -> list:
    """Arguments of the ``probcone`` CLI for one cell."""
    return [cell.command, "--config", str(config_path), "--seed", str(seed), "--out", str(out_dir)]


def verdicts(command: str, report: dict) -> dict:
    """The seed-independent pass/fail content of one report."""
    res = report["results"][command]
    if command == "axioms":
        out = {name: check["passed"] for name, check in res["checks"].items()}
        out["all_passed"] = res["all_passed"]
        out["sub_distribution_seen"] = bool(res["sub_distribution_pairs"])
        return out
    if command == "classify":
        out = {kind: cert["passed"] for kind, cert in res["certificates"].items()}
        out.update({f"sweep:{a}": cert["passed"] for a, cert in res.get("kannan_sweep", {}).items()})
        return out
    if command == "solve":
        return {
            "stopped_reason": res["trace"]["stopped_reason"],
            "n_iters": res["trace"]["n_iters"],
            "is_fixed": res["fixed_point"]["is_fixed"],
            "bounds_hold": res["bounds"]["holds"],
            "unique": res["uniqueness"]["unique"],
        }
    return {
        "converged": res["solution"]["converged"],
        "conditions_satisfied": res["conditions"]["satisfied"],
    }


_WALL_TIME_LINE = re.compile(rb'^  "wall_time_s": .*\n', re.MULTILINE)


def deterministic_bytes(report_bytes: bytes) -> bytes:
    """report.json without its one non-deterministic field."""
    return _WALL_TIME_LINE.sub(b"", report_bytes)


def check_cell(cell: Cell, out_dir: Path, expected: dict) -> tuple:
    """Check one cell's outputs; returns (problems, deterministic report bytes)."""
    report_path = out_dir / "report.json"
    try:
        raw = report_path.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return [f"{cell.name}: unreadable report: {exc}"], b""
    problems = []
    got = verdicts(cell.command, report)
    if got != expected:
        problems.append(f"{cell.name}: verdicts {got} differ from reference {expected}")
    if cell.exact is not None:
        with open(out_dir / "sie_mean_path.csv", newline="") as handle:
            rows = [(float(t), float(x)) for t, x in list(csv.reader(handle))[1:]]
        x0 = rows[0][1]
        err = max(abs(x / x0 - cell.exact(t)) for t, x in rows)
        if not err <= cell.exact_tol:
            problems.append(f"{cell.name}: mean path is {err:.3g} from its closed form (allowed {cell.exact_tol})")
    return problems, deterministic_bytes(raw)


def record_reference(seed: int, work_dir: Path) -> dict:
    """Run every cell in-process and collect its verdicts."""
    from probcone import cli

    cells = {}
    for workload in WORKLOADS.values():
        for cell in workload:
            out_dir = work_dir / cell.name
            out_dir.mkdir(parents=True, exist_ok=True)
            config_path = out_dir / "config.json"
            config_path.write_text(json.dumps(cell.config))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(cli_args(cell, config_path, seed, out_dir))
            if code != 0:
                raise SystemExit(f"{cell.name} exited {code}; no reference written")
            cells[cell.name] = verdicts(cell.command, json.loads((out_dir / "report.json").read_text()))
    return cells


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        reference = record_reference(0, Path(tmp))
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
