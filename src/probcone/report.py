"""JSON and CSV serialization of results.

The ``*_to_dict`` converters only pick and derive the fields a report
shows; ``canonical_json`` alone encodes them. It converts numpy scalars and
arrays to Python numbers and lists and a dataclass instance to the dict of
its fields, in one pass over the payload. Reports are canonical: keys
sorted and fixed separators, so identical computations produce identical
bytes regardless of worker count. They are strict JSON: a non-finite float
is written as the string "NaN", "Infinity" or "-Infinity".
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from .dist import _row_norms, to_summary
from .solver import BoundCheck, IterationTrace
from .space import AxiomCheck, AxiomReport
from .contract import ContractionCertificate
from .stochastic import SIESolution


def _plain(value):
    """``value`` as JSON data: numpy scalars and arrays become Python numbers and
    lists, a dataclass instance becomes the dict of its fields, and a
    non-finite float becomes the string "NaN", "Infinity" or "-Infinity",
    since JSON has no token for it."""
    if value is None or isinstance(value, (int, str)):  # bool is an int; the commonest leaves go first
        return value
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def axiom_check_to_dict(check: AxiomCheck) -> dict:
    out = {"name": check.name, "passed": check.passed, "worst_margin": check.worst_margin}
    if check.witness is not None:
        out["witness"] = check.witness
    return out


def axiom_report_to_dict(report: AxiomReport) -> dict:
    return {
        "n_points": report.n_points,
        "seed": report.seed,
        "tol": report.tol,
        "grid": report.grid.points,
        "checks": {
            "identity": axiom_check_to_dict(report.identity),
            "symmetry": axiom_check_to_dict(report.symmetry),
            "triangle": axiom_check_to_dict(report.triangle),
            "feasibility": axiom_check_to_dict(report.feasibility),
        },
        "all_passed": report.all_passed,
        "sub_distribution_pairs": report.sub_distribution_pairs,
        "identity_ambiguous_pairs": report.identity_ambiguous_pairs,
        "points": report.points,
        "notes": report.notes,
    }


def certificate_to_dict(cert: ContractionCertificate) -> dict:
    out = {
        "kind": cert.kind,
        "params": cert.params,
        "n_pairs": cert.n_pairs,
        "worst_margin": cert.worst_margin,
        "passed": cert.passed,
        "tol": cert.tol,
        "notes": cert.notes,
    }
    if cert.witness is not None:
        out["witness"] = cert.witness
    return out


def trace_to_dict(trace: IterationTrace) -> dict:
    steps = _row_norms(np.diff(trace.points, axis=0))
    nonzero = steps[:-1] > 0.0
    ratio = float(np.mean(steps[1:][nonzero] / steps[:-1][nonzero])) if np.any(nonzero) else None
    return {
        "n_iters": trace.n_iters,
        "stopped_reason": trace.stopped_reason,
        "eps": trace.eps,
        "limit": trace.limit,
        "mean_step_ratio": ratio,
        "first_step": to_summary(trace.space.distance(*trace.points[:2])) if trace.n_iters else None,
        "last_step": to_summary(trace.space.distance(*trace.points[-2:])) if trace.n_iters else None,
    }


def bound_check_to_dict(check: BoundCheck) -> dict:
    return {
        "alpha": check.alpha,
        "tol": check.tol,
        "holds": check.holds,
        "n_violations": check.n_violations,
        "worst_margin": check.worst_margin,
        "n_steps_checked": check.step_margins.shape[0],
        "n_chain_pairs": len(check.chain_pairs),
    }


def sie_solution_to_dict(sol: SIESolution) -> dict:
    return {
        "contraction_rate": sol.contraction_rate,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "final_residual": sol.step_norms[-1] if sol.step_norms else None,
        "step_norms": sol.step_norms,
        "conditions": sol.conditions,
    }


def canonical_json(payload: dict) -> str:
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_trace_csv(trace: IterationTrace, path) -> None:
    """One row per iterate: index, coordinates, then the step distribution
    (leaving that iterate) evaluated on the grid; final row has no step."""
    dim = trace.points.shape[1]
    header = ["iter"] + [f"x{i}" for i in range(dim)] + [f"F@t{i}" for i in range(len(trace.grid))]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for n, point in enumerate(trace.points):
            row = [n] + [repr(float(c)) for c in point]
            if n < trace.step_values.shape[0]:
                row += [repr(float(v)) for v in trace.step_values[n]]
            else:
                row += [""] * len(trace.grid)
            writer.writerow(row)


def write_sie_csv(problem_time_grid: np.ndarray, sol: SIESolution, mean_path, residuals_path) -> None:
    mean = np.mean(sol.field, axis=0)
    with open(mean_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "mean_x"])
        for t, x in zip(problem_time_grid, mean):
            writer.writerow([repr(float(t)), repr(float(x))])
    with open(residuals_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "l2_step"])
        for i, v in enumerate(sol.step_norms, start=1):
            writer.writerow([i, repr(float(v))])
