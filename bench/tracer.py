"""Spans, self times and work counts for the traced run.

Nothing under ``src/`` is instrumented. Instead, for the length of one
traced pass, :func:`installed` replaces the public entry points that the
layers call through with timing wrappers, and puts the originals back
afterwards:

* spans (recorded with name, start, end, parent and pass id) around the
  public calls: ``check_*``, ``picard``, ``uniqueness_probe``,
  ``check_bounds``, ``verify_fixed_point``, ``sie_conditions``,
  ``sie_solve``, ``canonical_json``, the ``write_*_csv`` functions, and each
  CLI invocation;
* timed leaves (aggregated, not recorded one by one, since there are up to
  hundreds of thousands per pass) around the space's distance map,
  ``Mapping.__call__``, every ``DistFn`` variant's ``eval``,
  ``TNorm.apply``, ``Cone.contains``, ``sample_points``, ``tau_converged``,
  ``causal_trapezoid_weights``, ``path_generator`` and the SIE kernel,
  forcing and nonlinearity callables;
* plain counters on ``PCMSpace.feasible`` inside ``sample_points`` (the
  rejection-sampling attempts) and on ``ordered_map``.

Every wrapper keeps a frame on one stack, so each layer's self time is its
wrappers' durations minus the part their child wrappers cover. What no
layer covers is the pass's own self time, reported as unexplained.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter, defaultdict

from probcone import cli, contract, cone, dist, solver, space, stochastic, tnorm

LAYERS = ("cli", "report", "space", "dist", "tnorm", "cone", "contract", "solver", "stochastic", "rng")

_DIST_VARIANTS = (dist.DiracStep, dist.GaussianShift, dist.ScaledGaussian, dist.Empirical, dist.Rescaled)


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []  # (span id, name, start, end, parent span id, pass id)
        self.calls = Counter()  # wrapper name -> calls
        self.inclusive = defaultdict(float)  # wrapper name -> seconds, children included
        self.self_time = defaultdict(float)  # layer -> seconds, children excluded
        self.counts = Counter()  # work counts derived from arguments and results
        self._stack = []  # frames: [child seconds, span id, wrapper name]
        self._next_id = 0

    def wrap(self, fn, name, layer, record=False, on_return=None):
        """Time ``fn`` under ``name``; ``record`` keeps a span per call."""
        stack = self._stack
        clock = time.perf_counter
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if record:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent[1] if parent else None
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                inclusive[name] += duration
                self_time[layer] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if record:
                    self.spans.append((span_id, name, start, end, parent[1] if parent else None, self.pass_id))
            if on_return is not None:
                on_return(self.counts, result, args, kwargs)
            return result

        return wrapper

    def current(self):
        return self._stack[-1][2] if self._stack else None


def _count_eval(counts, result, args, kwargs):
    counts["dist.eval_points"] += getattr(args[1], "size", 1)


def _count_axioms(counts, report, args, kwargs):
    n, g = report.n_points, len(report.grid)
    counts["space.triangle_cells"] += n * (n - 1) * (n - 2) * g * g


def _count_pairs(counts, cert, args, kwargs):
    counts["contract.pairs"] += cert.n_pairs


def _count_picard(counts, trace, args, kwargs):
    counts["solver.picard_iters"] += trace.n_iters


def _count_sample(counts, points, args, kwargs):
    counts["space.sample_accepted"] += len(points)


def _count_sie(counts, solution, args, kwargs):
    problem = args[0]
    counts["stochastic.sie_iterations"] += solution.iterations
    counts["stochastic.matvecs"] += solution.iterations * problem.n_paths


def _count_kernel(counts, mesh, args, kwargs):
    counts["stochastic.kernel_bytes"] += args[0].size * 8


def _patch_points(tracer: Tracer):
    """(owner, attribute, replacement) for every entry point the trace wraps."""
    wrap = tracer.wrap
    patches = []

    def patch(owners, attr, name, layer, on_return=None, record=False):
        fn = wrap(getattr(owners[0], attr), name, layer, record=record, on_return=on_return)
        patches.extend((owner, attr, fn) for owner in owners)

    def span(owners, attr, name, layer, on_return=None):
        patch(owners, attr, name, layer, on_return, record=True)

    span([cli], "main", "cli.main", "cli")
    for fn_name in ("canonical_json", "write_trace_csv", "write_sie_csv"):
        span([cli], fn_name, f"report.{fn_name}", "report")
    span([cli], "check_axioms", "space.check_axioms", "space", _count_axioms)
    for kind in ("banach", "kannan", "chatterjea", "zamfirescu"):
        span([cli], f"check_{kind}", f"contract.check_{kind}", "contract", _count_pairs)
    span([cli, solver], "picard", "solver.picard", "solver", _count_picard)
    for fn_name in ("uniqueness_probe", "check_bounds", "verify_fixed_point"):
        span([cli], fn_name, f"solver.{fn_name}", "solver")
    span([cli, stochastic], "sie_conditions", "stochastic.sie_conditions", "stochastic")
    span([cli], "sie_solve", "stochastic.sie_solve", "stochastic", _count_sie)

    patch([space, contract, cli], "sample_points", "space.sample_points", "space", _count_sample)
    patch([solver], "tau_converged", "solver.tau_converged", "space")
    patch([contract.Mapping], "__call__", "contract.mapping", "contract")
    for variant in _DIST_VARIANTS:
        patch([variant], "eval", "dist.eval", "dist", _count_eval)
    patch([tnorm.TNorm], "apply", "tnorm.apply", "tnorm")
    patch([cone.Cone], "contains", "cone.contains", "cone")
    patch([stochastic], "causal_trapezoid_weights", "stochastic.trapezoid_weights", "stochastic")
    patch([stochastic], "path_generator", "rng.path_generator", "rng")

    make_space = cli.make_space

    def traced_space(config):
        built = make_space(config)
        return dataclasses.replace(built, distance=wrap(built.distance, "space.distance", "space"))

    make_kernel, make_forcing, make_nonlinearity = cli.make_kernel, cli.make_forcing, cli.make_nonlinearity

    def traced_nonlinearity(spec):
        fn, lipschitz = make_nonlinearity(spec)
        return wrap(fn, "stochastic.nonlinearity", "stochastic"), lipschitz

    patches += [
        (cli, "make_space", traced_space),
        (cli, "make_kernel", lambda spec: wrap(make_kernel(spec), "stochastic.kernel", "stochastic", on_return=_count_kernel)),
        (cli, "make_forcing", lambda spec: wrap(make_forcing(spec), "stochastic.forcing", "stochastic")),
        (cli, "make_nonlinearity", traced_nonlinearity),
    ]

    feasible = space.PCMSpace.feasible

    def counted_feasible(self, x):
        if tracer.current() == "space.sample_points":
            tracer.counts["space.sample_attempts"] += 1
        return feasible(self, x)

    patches.append((space.PCMSpace, "feasible", counted_feasible))

    for owner in (space, solver):
        ordered_map = owner.ordered_map

        def counted_map(fn, items, workers=1, _inner=ordered_map):
            tracer.counts["parallel.ordered_map_calls"] += 1
            return _inner(fn, items, workers=workers)

        patches.append((owner, "ordered_map", counted_map))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route probcone's public entry points through ``tracer`` while inside."""
    patches = _patch_points(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def run_pass(tracer: Tracer, fn):
    """Run ``fn`` traced as one pass; returns (pass seconds, unexplained seconds)."""
    with installed(tracer):
        root = tracer.wrap(fn, "pass", "pass", record=True)
        root()
    duration = tracer.inclusive["pass"]
    return duration, tracer.self_time["pass"]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    inc, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    attempts = counts["space.sample_attempts"]
    out = {
        "report.serialize_s": (
            inc["report.canonical_json"] + inc["report.write_trace_csv"] + inc["report.write_sie_csv"],
            "s",
        ),
        "space.check_axioms_s": (inc["space.check_axioms"], "s"),
        "space.triangle_cells": (counts["space.triangle_cells"], "count"),
        "space.distance_calls": (calls["space.distance"], "count"),
        "space.distance_s": (inc["space.distance"], "s"),
        "space.sample_points_s": (inc["space.sample_points"], "s"),
        "space.sample_attempts": (attempts, "count"),
        "space.sample_acceptance": (counts["space.sample_accepted"] / attempts if attempts else 0.0, "ratio"),
        "dist.eval_calls": (calls["dist.eval"], "count"),
        "dist.eval_points": (counts["dist.eval_points"], "count"),
        "dist.eval_s": (inc["dist.eval"], "s"),
        "tnorm.apply_calls": (calls["tnorm.apply"], "count"),
        "tnorm.apply_s": (inc["tnorm.apply"], "s"),
        "cone.contains_calls": (calls["cone.contains"], "count"),
        "cone.contains_s": (inc["cone.contains"], "s"),
        "contract.certify_s": (
            sum(inc[f"contract.check_{k}"] for k in ("banach", "kannan", "chatterjea", "zamfirescu")),
            "s",
        ),
        "contract.pairs": (counts["contract.pairs"], "count"),
        "contract.mapping_calls": (calls["contract.mapping"], "count"),
        "solver.picard_s": (inc["solver.picard"], "s"),
        "solver.picard_iters": (counts["solver.picard_iters"], "count"),
        "solver.uniqueness_probe_s": (inc["solver.uniqueness_probe"], "s"),
        "solver.check_bounds_s": (inc["solver.check_bounds"], "s"),
        "solver.tau_converged_calls": (calls["solver.tau_converged"], "count"),
        "stochastic.sie_conditions_s": (inc["stochastic.sie_conditions"], "s"),
        "stochastic.sie_solve_s": (inc["stochastic.sie_solve"], "s"),
        "stochastic.sie_iterations": (counts["stochastic.sie_iterations"], "count"),
        "stochastic.trapezoid_weights_calls": (calls["stochastic.trapezoid_weights"], "count"),
        "stochastic.trapezoid_weights_s": (inc["stochastic.trapezoid_weights"], "s"),
        "stochastic.kernel_calls": (calls["stochastic.kernel"], "count"),
        "stochastic.forcing_calls": (calls["stochastic.forcing"], "count"),
        "stochastic.nonlinearity_calls": (calls["stochastic.nonlinearity"], "count"),
        "stochastic.kernel_bytes": (counts["stochastic.kernel_bytes"], "bytes"),
        "stochastic.matvecs": (counts["stochastic.matvecs"], "count"),
        "rng.path_generator_calls": (calls["rng.path_generator"], "count"),
        "rng.path_generator_s": (inc["rng.path_generator"], "s"),
        "parallel.ordered_map_calls": (counts["parallel.ordered_map_calls"], "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_time[layer], "s")
    return out
