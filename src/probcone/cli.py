"""Batch driver: every experiment as a subcommand over a JSON config.

Subcommands::

    probcone axioms   --config cfg.json [--seed N] [--workers N] [--out DIR]
    probcone classify --config cfg.json ...
    probcone solve    --config cfg.json ...
    probcone sie      --config cfg.json ...
    probcone demo     [--seed N] [--workers N] [--out DIR]

Exit codes: 0 success, 1 computation failure (divergence), 2 config error.
Reports are deterministic given (config, seed): the wall-time field is the
only part allowed to differ between repeated runs.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .cone import _SAMPLING_ATTEMPT_CAP
from .contract import (
    _CONDITIONS,
    _check_rates,
    _LeftSide,
    check_banach,
    check_chatterjea,
    check_kannan,
    check_zamfirescu,
    sample_pairs,
)
from .dist import TimeGrid, _geometric_grid
from .errors import ConfigError, InvalidParameterError, ProbconeError
from .registry import _is_number, make_kernel, make_mapping, make_nonlinearity, make_forcing, make_space
from .report import (
    axiom_report_to_dict,
    bound_check_to_dict,
    canonical_json,
    certificate_to_dict,
    sie_solution_to_dict,
    trace_to_dict,
    write_sie_csv,
    write_trace_csv,
)
from .solver import check_bounds, picard, uniqueness_probe, verify_fixed_point
from .space import check_axioms, sample_points
from .stochastic import SIEProblem, sie_conditions, sie_solve  # noqa: F401  bench/tracer.py patches cli.sie_conditions

# ``json.load`` reads NaN, Infinity and overflowing literals such as 1e400 as
# floats, and "type": "number" admits them; the "finite" keyword
# rejects them in every number field, so the message names the field.
_NUMBER = {"type": "number", "finite": True}
_POSITIVE = {**_NUMBER, "exclusiveMinimum": 0}
_POSITIVE_INT = {"type": "integer", "minimum": 1}
# the most float64 values one numpy array can hold: for more, numpy raises
# "Maximum allowed size exceeded" before it tries to allocate anything
_MAX_FLOAT64_LENGTH = np.iinfo(np.intp).max // 8

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "space": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dim": _POSITIVE_INT,
                "distance": {
                    "anyOf": [
                        {"const": "dirac"},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "kind": {"const": "cone-gaussian"},
                                "delta": {**_POSITIVE, "maximum": 1},
                            },
                            "required": ["kind"],
                        },
                    ]
                },
                "tnorm": {"enum": ["min", "product", "lukasiewicz"]},
                "cone": {
                    "anyOf": [
                        {"type": "null"},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "type": {"enum": ["orthant", "halfspaces"]},
                                "dim": _POSITIVE_INT,
                                "normals": {"type": "array", "items": {"type": "array", "items": _NUMBER}},
                            },
                            "required": ["type"],
                        },
                    ]
                },
                "sampling_box": {
                    "type": "array",
                    "items": {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2},
                },
            },
        },
        "mapping": {
            "anyOf": [
                {"type": "string"},
                {"type": "object", "required": ["name"]},
            ]
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start": _POSITIVE,
                "stop": _POSITIVE,
                "num": {"type": "integer", "minimum": 2, "maximum": _MAX_FLOAT64_LENGTH},
                "points": {"type": "array", "items": _NUMBER, "minItems": 1},
            },
        },
        "axioms": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # rejection sampling draws at most _SAMPLING_ATTEMPT_CAP candidates, so it is the
                # "maximum" of each count of sampled points: n_points, n_pairs, uniqueness_starts
                "n_points": {"type": "integer", "minimum": 3, "maximum": _SAMPLING_ATTEMPT_CAP},
                "tol": _NUMBER,
            },
        },
        "classify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kinds": {
                    "type": "array",
                    "items": {"enum": list(_CONDITIONS)},
                    "minItems": 1,
                },
                "alpha": _NUMBER,
                "beta": _NUMBER,
                "gamma": _NUMBER,
                "n_pairs": {**_POSITIVE_INT, "maximum": _SAMPLING_ATTEMPT_CAP},
                "tol": {"anyOf": [{"type": "null"}, _NUMBER]},
                "alpha_sweep": {"type": "array", "items": _NUMBER},
            },
        },
        "solve": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x0": {"type": "array", "items": _NUMBER, "minItems": 1},
                "eps": _POSITIVE,
                "max_iter": _POSITIVE_INT,
                "bound_alpha": {"anyOf": [{"type": "null"}, _NUMBER]},
                "uniqueness_starts": {"type": "integer", "minimum": 0, "maximum": _SAMPLING_ATTEMPT_CAP},
                "agree_tol": _POSITIVE,
            },
            "required": ["x0"],
        },
        "sie": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # the (n_time + 1)^2 float64 operator must fit one numpy array
                "n_time": {"type": "integer", "minimum": 2, "maximum": math.isqrt(_MAX_FLOAT64_LENGTH) - 1},
                # the paths of the smallest, 3-node mesh must fit one numpy array; build_sie_problem checks n_time's
                "n_paths": {**_POSITIVE_INT, "maximum": _MAX_FLOAT64_LENGTH // 3},
                "kernel": {},
                "forcing": {},
                "nonlinearity": {},
                "lipschitz": {"anyOf": [{"type": "null"}, {**_NUMBER, "minimum": 0}]},
                "eps": _POSITIVE,
                "max_iter": _POSITIVE_INT,
            },
        },
    },
}


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range the code computes in
        return False


# Draft 2020-12 types as jsonschema checks them for what json.load returns: bool is
# not a number, 2.0 is an integer, and only list and dict are arrays and objects.
_JSON_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _first_error(instance, schema: dict, path: tuple = ()):
    """(path, message) of the shallowest error, the first in schema order among equally shallow ones; None if valid."""
    first = None
    for key, value in schema.items():
        for error in _KEYWORDS[key](instance, value, schema, path):
            if first is None or len(error[0]) < len(first[0]):
                first = error
    return first


def _any_of(x, branches, schema, path):
    errors = [_first_error(x, branch, path) for branch in branches]
    if None in errors:
        return ()
    typed = [error for branch, error in zip(branches, errors) if "type" in branch and _JSON_TYPES[branch["type"]](x)]
    return typed if len(typed) == 1 else [(path, f"{x!r} is not valid under any of the given schemas")]


def _unexpected(x, schema):
    extras = sorted(x.keys() - schema.get("properties", {}).keys(), key=str) if isinstance(x, dict) else []
    verb = "was" if len(extras) == 1 else "were"
    return extras and f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"


def _own(message):
    """A keyword whose one error is at the instance's own path: ``message(x, v, s)`` if it is not empty."""
    return lambda x, v, s, p: [(p, text)] if (text := message(x, v, s)) else ()


# keyword -> errors(instance, value, schema, path), worded as jsonschema words them. Each passes
# the types it does not apply to, as jsonschema does; "finite" is this schema's own keyword.
_KEYWORDS = {
    "$schema": lambda x, v, s, p: (),
    "type": _own(lambda x, v, s: not _JSON_TYPES[v](x) and f"{x!r} is not of type {v!r}"),
    "properties": lambda x, v, s, p: (
        filter(None, (_first_error(x[k], v[k], (*p, k)) for k in v if k in x)) if isinstance(x, dict) else ()
    ),
    "additionalProperties": _own(lambda x, v, s: _unexpected(x, s)),  # v is False here
    "required": _own(
        lambda x, v, s: isinstance(x, dict) and next((f"{k!r} is a required property" for k in v if k not in x), "")
    ),
    "anyOf": _any_of,
    "const": _own(lambda x, v, s: not (isinstance(x, str) and x == v) and f"{v!r} was expected"),
    "enum": _own(lambda x, v, s: not (isinstance(x, str) and x in v) and f"{x!r} is not one of {v!r}"),
    "items": lambda x, v, s, p: (
        filter(None, (_first_error(item, v, (*p, i)) for i, item in enumerate(x))) if isinstance(x, list) else ()
    ),
    "minItems": _own(
        lambda x, v, s: isinstance(x, list)
        and len(x) < v
        and f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"
    ),
    "maxItems": _own(lambda x, v, s: isinstance(x, list) and len(x) > v and f"{x!r} is too long"),  # v > 0 here
    "minimum": _own(lambda x, v, s: _is_number(x) and x < v and f"{x!r} is less than the minimum of {v!r}"),
    "maximum": _own(lambda x, v, s: _is_number(x) and x > v and f"{x!r} is greater than the maximum of {v!r}"),
    "exclusiveMinimum": _own(
        lambda x, v, s: _is_number(x) and x <= v and f"{x!r} is less than or equal to the minimum of {v!r}"
    ),
    "finite": _own(lambda x, v, s: v and _is_number(x) and not _is_finite(x) and f"{x!r} is not a finite number"),
}


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # ValueError also covers bad UTF-8 and an int past Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    error = _first_error(config, CONFIG_SCHEMA)
    if error is not None:
        location = "/".join(str(p) for p in error[0]) or "<top level>"
        raise ConfigError(f"config field {location!r}: {error[1]}")


def _grid_from_config(config: dict) -> TimeGrid:
    spec = config.get("grid", {})
    if "points" in spec:
        return TimeGrid(np.asarray(spec["points"], dtype=float))
    return _geometric_grid(**spec)  # the schema admits only start, stop and num beside points


def _require_section(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"config field {name!r}: section is required for this subcommand")
    return config[name]


def run_axioms(config: dict, seed: int, workers: int) -> dict:
    space = make_space(config.get("space", {}))
    section = config.get("axioms", {})
    grid = _grid_from_config(config)
    report = check_axioms(
        space,
        n_points=section.get("n_points", 8),
        grid=grid,
        tol=section.get("tol", 0.0),
        seed=seed,
        workers=workers,
    )
    return {"axioms": axiom_report_to_dict(report)}


def run_classify(config: dict, seed: int, workers: int) -> dict:
    space = make_space(config.get("space", {}))
    mapping = make_mapping(_require_section(config, "mapping"), space.dim)
    section = config.get("classify", {})
    grid = _grid_from_config(config)
    kinds = section.get("kinds", list(_CONDITIONS))
    n_pairs = section.get("n_pairs", 64)
    tol = section.get("tol")
    rates = {"alpha": section.get("alpha", 0.3), "beta": section.get("beta", 0.25), "gamma": section.get("gamma", 0.2)}
    sweep_rates = section.get("alpha_sweep", [])

    # every rate is a config error (exit 2), so check them all before the
    # pairs are drawn: an infeasible sampling region is a computation failure
    for kind in kinds:
        _check_rates(kind, rates)
    for a in sweep_rates:
        _check_rates("kannan", {"alpha": a})
    # the pairs each certificate would sample from the same seed, drawn, mapped
    # and evaluated on the left side F(Tx, Ty)(t) once for every certificate
    pairs = sample_pairs(space, mapping, n_pairs, np.random.default_rng(seed))
    left = _LeftSide.build(space, mapping, pairs, grid, tol)
    # read on each run, since bench/tracer.py patches these names of this module
    checkers = dict(banach=check_banach, kannan=check_kannan, chatterjea=check_chatterjea, zamfirescu=check_zamfirescu)
    kannan = {}  # rate -> its Kannan certificate, so a repeated rate is checked once
    certificates = {}
    for kind in kinds:
        clause_rates = [rates[rate] for rate, *_ in _CONDITIONS[kind]]
        cert = checkers[kind](space, mapping, *clause_rates, pairs=left, grid=grid, tol=tol)
        if kind == "kannan":
            kannan[rates["alpha"]] = cert
        certificates[kind] = certificate_to_dict(cert)

    sweep = {}
    for a in sweep_rates:
        if a not in kannan:
            kannan[a] = check_kannan(space, mapping, a, pairs=left, grid=grid, tol=tol)
        sweep[repr(float(a))] = certificate_to_dict(kannan[a])

    out = {"mapping": mapping.name, "certificates": certificates}
    if mapping.note:
        out["mapping_note"] = mapping.note
    if sweep:
        out["kannan_sweep"] = sweep
    return {"classify": out}


def run_solve(config: dict, seed: int, workers: int, out_dir: Path | None = None) -> dict:
    space = make_space(config.get("space", {}))
    mapping = make_mapping(_require_section(config, "mapping"), space.dim)
    section = _require_section(config, "solve")
    grid = _grid_from_config(config)
    eps = section.get("eps", 1e-6)
    max_iter = section.get("max_iter", 10_000)
    bound_alpha = section.get("bound_alpha")
    # the rate is a config error (exit 2), so it is checked before the orbit runs
    if bound_alpha is not None:
        _check_rates("kannan", {"alpha": bound_alpha})

    trace = picard(space, mapping, np.asarray(section["x0"], dtype=float), eps=eps, max_iter=max_iter, grid=grid)
    result = {
        "mapping": mapping.name,
        "trace": trace_to_dict(trace),
        "fixed_point": verify_fixed_point(space, mapping, trace.limit, grid=grid, tol=eps),
    }
    if mapping.note:
        result["mapping_note"] = mapping.note

    if bound_alpha is not None:
        result["bounds"] = bound_check_to_dict(
            check_bounds(trace, bound_alpha, grid=grid, tnorm=space.tnorm, seed=seed)
        )

    n_starts = section.get("uniqueness_starts", 0)
    if n_starts >= 2:
        rng = np.random.default_rng(seed)
        starts = sample_points(space, n_starts, rng)
        result["uniqueness"] = uniqueness_probe(
            space,
            mapping,
            starts,
            eps=eps,
            max_iter=max_iter,
            agree_tol=section.get("agree_tol", 1e-6),
            workers=workers,
        )

    if out_dir is not None:
        write_trace_csv(trace, out_dir / "trace.csv")
    return {"solve": result}


def build_sie_problem(config: dict, seed: int) -> SIEProblem:
    section = _require_section(config, "sie")
    n_time = section.get("n_time", 200)
    n_paths = section.get("n_paths", 1)
    # the forcing paths fill one (n_paths, n_time + 1) float64 array, so refuse one no array holds before any is built
    if n_paths * (n_time + 1) > _MAX_FLOAT64_LENGTH:
        raise ConfigError(
            f"config field 'sie/n_paths': {n_paths} paths of {n_time + 1} nodes exceed the "
            f"{_MAX_FLOAT64_LENGTH} float64 values one numpy array can hold"
        )
    kernel = make_kernel(section.get("kernel", "constant"))
    forcing = make_forcing(section.get("forcing", "constant"))
    nonlinearity, lipschitz = make_nonlinearity(section.get("nonlinearity", {"name": "linear", "coefficient": 0.4}))
    if section.get("lipschitz") is not None:
        lipschitz = float(section["lipschitz"])
    return SIEProblem(
        time_grid=np.linspace(0.0, 1.0, n_time + 1),
        kernel=kernel,
        forcing=forcing,
        nonlinearity=nonlinearity,
        lipschitz=lipschitz,
        n_paths=n_paths,
        seed=seed,
    )


def run_sie(config: dict, seed: int, workers: int, out_dir: Path | None = None) -> dict:
    section = _require_section(config, "sie")
    problem = build_sie_problem(config, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solution = sie_solve(problem, eps=section.get("eps", 1e-8), max_iter=section.get("max_iter", 500))
    result = {"conditions": solution.conditions, "solution": sie_solution_to_dict(solution)}
    if not solution.conditions.satisfied:
        result["warning"] = "contraction conditions not satisfied; solver ran anyway"
    if out_dir is not None:
        write_sie_csv(problem.time_grid, solution, out_dir / "sie_mean_path.csv", out_dir / "sie_residuals.csv")
    return {"sie": result}


DEMO_CONFIG = {
    "axioms": {
        "space": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"},
        "axioms": {"n_points": 8, "tol": 0.0},
    },
    "classify": {
        "space": {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"},
        "mapping": "rotation-half",
        "classify": {
            "kinds": ["kannan"],
            "alpha": 0.25,
            "n_pairs": 64,
            "alpha_sweep": [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45],
        },
    },
    "solve": {
        "space": {"dim": 2, "distance": "dirac", "tnorm": "min"},
        "mapping": "rotation-half",
        "solve": {
            "x0": [1.0, 0.0],
            "eps": 1e-10,
            "max_iter": 1000,
            "uniqueness_starts": 10,
            "agree_tol": 1e-6,
        },
    },
    "sie": {
        "sie": {
            "n_time": 1000,
            "n_paths": 1,
            "kernel": "constant",
            "forcing": {"name": "constant", "value": 1.0},
            "nonlinearity": {"name": "linear", "coefficient": 0.4},
            "eps": 1e-10,
            "max_iter": 200,
        }
    },
}


def run_demo(seed: int, workers: int, out_dir: Path | None = None) -> dict:
    return {
        "demo": {
            "axioms": run_axioms(DEMO_CONFIG["axioms"], seed, workers)["axioms"],
            "classify": run_classify(DEMO_CONFIG["classify"], seed, workers)["classify"],
            "solve": run_solve(DEMO_CONFIG["solve"], seed, workers, out_dir)["solve"],
            "sie": run_sie(DEMO_CONFIG["sie"], seed, workers, out_dir)["sie"],
        }
    }


def _seed(text: str) -> int:
    """A ``--seed`` value; np.random.default_rng refuses a negative seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _workers(text: str) -> int:
    """A ``--workers`` value: a thread count, so at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probcone", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"probcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in [
        ("axioms", True),
        ("classify", True),
        ("solve", True),
        ("sie", True),
        ("demo", False),
    ]:
        cmd = sub.add_parser(name)
        if needs_config:
            cmd.add_argument("--config", required=True, help="path to a JSON experiment config")
        cmd.add_argument("--seed", type=_seed, default=0, help="non-negative root seed for every sampled quantity")
        cmd.add_argument(
            "--workers", type=_workers, default=1, help="threads for the axioms triangle rows; no effect elsewhere"
        )
        cmd.add_argument("--out", default=".", help="directory for report.json and CSV outputs")
    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Freeze the heap at interpreter exit, once per process, so the final collections skip the import graph."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_at_exit()
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "demo":
            config = DEMO_CONFIG
            results = run_demo(args.seed, args.workers, out_dir)
        else:
            config = load_config(args.config)
            runner = {
                "axioms": lambda: run_axioms(config, args.seed, args.workers),
                "classify": lambda: run_classify(config, args.seed, args.workers),
                "solve": lambda: run_solve(config, args.seed, args.workers, out_dir),
                "sie": lambda: run_sie(config, args.seed, args.workers, out_dir),
            }[args.command]
            results = runner()
        report = {
            "tool": "probcone",
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "config": config,
            "results": results,
            "wall_time_s": time.perf_counter() - started,
        }
        report_path = out_dir / "report.json"
        report_path.write_text(canonical_json(report))
    except (ConfigError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProbconeError, MemoryError) as exc:
        print(f"computation failed: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    # load_config turns its own OSError into a ConfigError, so this one
    # comes from creating --out or writing report.json or a CSV into it
    except OSError as exc:
        print(f"config error: cannot write to '{exc.filename}': {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {report_path}")
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
