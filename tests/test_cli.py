import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probcone import PCMSpace, cli, contract, stochastic
from probcone.cli import CONFIG_SCHEMA, main, validate_config
from probcone.errors import ConfigError

DIRAC_SPACE = {"dim": 2, "distance": "dirac", "tnorm": "min"}
GAUSS_SPACE = {"dim": 2, "distance": {"kind": "cone-gaussian", "delta": 0.5}, "tnorm": "min"}
# no point of the sampling box lies in the cone
INFEASIBLE_SPACE = {**DIRAC_SPACE, "cone": {"type": "orthant", "dim": 2}, "sampling_box": [[-2, -1], [-2, -1]]}
SRC = Path(__file__).resolve().parent.parent / "src"
_LINEAR = {"name": "linear", "coefficient": 0.4}
AFFINE_3D = {"name": "affine", "matrix": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]], "offset": [0, 0, 0]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def canonical_without_wall_time(report: dict) -> str:
    report = dict(report)
    report.pop("wall_time_s")
    return json.dumps(report, sort_keys=True)


class TestAxiomsCommand:
    def test_dirac_space_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"space": DIRAC_SPACE, "axioms": {"n_points": 6}})
        out = tmp_path / "out"
        assert main(["axioms", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
        report = read_report(out)
        assert report["results"]["axioms"]["all_passed"]
        assert report["seed"] == 4

    def test_gaussian_space_flags(self, tmp_path):
        cfg = write_config(tmp_path, {"space": GAUSS_SPACE, "axioms": {"n_points": 8}})
        out = tmp_path / "out"
        assert main(["axioms", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        axioms = read_report(out)["results"]["axioms"]
        assert len(axioms["sub_distribution_pairs"]) > 0
        assert not axioms["checks"]["symmetry"]["passed"]
        assert "witness" in axioms["checks"]["symmetry"]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"space": {"dim": 2, "tnorm": "median"}})
        assert main(["axioms", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "tnorm" in err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"spaces": DIRAC_SPACE})
        assert main(["axioms", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["axioms", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2


def _finite(validator, finite, instance, schema):
    if finite and validator.is_type(instance, "number") and not cli._is_finite(instance):
        yield jsonschema.ValidationError(f"{instance!r} is not a finite number")


# The oracle: jsonschema's draft 2020-12 validator, extended with the schema's own "finite" keyword.
Oracle = jsonschema.validators.extend(jsonschema.validators.validator_for(CONFIG_SCHEMA), {"finite": _finite})
ORACLE = Oracle(CONFIG_SCHEMA)


def error_tree(errors) -> set:
    """(path, message) of every error jsonschema finds, with the errors nested under each anyOf error."""
    return {(tuple(error.absolute_path), error.message) for error in errors} | {
        found for error in errors if error.context for found in error_tree(error.context)
    }


class TestConfigValidation:
    def test_schema_is_a_valid_schema(self):
        # validate_config interprets the schema and never checks it
        Oracle.check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize(
        "config",
        [
            {"space": {"dim": 2, "tnorm": "median"}},
            {"spaces": DIRAC_SPACE},
            {"space": {"dim": 0}},
            {"axioms": {"n_points": 2, "tol": "x"}},
            {"grid": {"num": 1, "points": []}, "solve": {}},
        ],
    )
    def test_messages_match_jsonschema_validate(self, config):
        path, message = cli._first_error(config, CONFIG_SCHEMA)
        assert (path, message) in error_tree(list(ORACLE.iter_errors(config)))
        location = "/".join(str(p) for p in path) or "<top level>"
        with pytest.raises(ConfigError) as raised:
            validate_config(config)
        assert str(raised.value) == f"config field {location!r}: {message}"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
# What a hand-edited or mistyped field may hold: every schema bound and its
# neighbours, int and float alike, NaN, +-inf (json.load reads 1e400 as inf),
# an int no float can hold, bools, strings, null, and empty or ragged arrays.
ODD_VALUES = [
    *(b + d for b in (0, 1, 2, 3) for d in (-1, -0.5, 0, 0.0, 0.5)),
    -0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 10**400, True, False,
    None, "", "x", "min", "dirac", [], [[]], [1.0], [[1.0], [1.0, 2.0]], {}, {"kind": "cone-gaussian"},
]


def _in_range(x, schema) -> bool:
    return (
        x >= schema.get("minimum", -math.inf)
        and x > schema.get("exclusiveMinimum", -math.inf)
        and x <= schema.get("maximum", math.inf)
        and (schema["type"] == "number" or float(x).is_integer())
    )


def schema_values(schema: dict) -> st.SearchStrategy:
    """Small values ``schema`` admits, built from its own keywords.

    Every enum member and optional key can be drawn, and numbers are drawn
    from the schema's bounds: the bound itself where it is inclusive, its
    neighbours, and ints as floats (2.0 is an integer).
    """
    if "anyOf" in schema:
        return st.one_of([schema_values(sub) for sub in schema["anyOf"]])
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if kind == "object":
        properties = {key: schema_values(sub) for key, sub in schema.get("properties", {}).items()}
        required = schema.get("required", [])
        if not properties:  # a free-form object such as a mapping spec
            return st.fixed_dictionaries({key: JSON_VALUES for key in required}, optional={"extra": JSON_VALUES})
        optional = {key: value for key, value in properties.items() if key not in required}
        return st.fixed_dictionaries({key: properties[key] for key in required}, optional=optional)
    if kind == "array":
        return st.lists(
            schema_values(schema["items"]), min_size=schema.get("minItems", 0), max_size=schema.get("maxItems", 3)
        )
    if kind in ("number", "integer"):
        bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum") if k in schema] or [0]
        near = {b + d for b in bounds for d in (-1, -0.5, 0, 0.5, 1, 2)} | {1e-300, 0.5, 2.0, 7}
        candidates = sorted({x for b in near for x in (b, float(b))}, key=repr)
        return st.sampled_from([x for x in candidates if _in_range(x, schema)])
    if kind == "string":
        return st.text(max_size=4)
    if kind == "null":
        return st.none()
    return JSON_VALUES  # {} admits anything


def _slots(value):
    """(container, key) for every dict entry and list item inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield value, key
        yield from _slots(item)


def config_mutants(schema: dict = CONFIG_SCHEMA) -> st.SearchStrategy:
    """Values ``schema`` admits, after 0 to 3 edits that may or may not break them.

    Each edit replaces an entry with one of ``ODD_VALUES``, deletes it, or
    adds an entry; the whole config is sometimes replaced too.
    """
    admitted = schema_values(schema)

    @st.composite
    def mutants(draw):
        config = copy.deepcopy(draw(admitted))
        for _ in range(draw(st.integers(0, 3))):
            container, key = draw(st.sampled_from([(None, None), *_slots(config)]))
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            odd = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            if container is None:
                config = odd if action == "replace" else config
            elif action == "replace":
                container[key] = odd
            elif action == "delete":
                del container[key]
            elif isinstance(container, dict):
                container[draw(st.sampled_from(["extra", "name", "type", "dim", "kind", "x0"]))] = odd
            else:
                container.append(odd)
        return config

    return mutants()


class TestFirstError:
    """``cli._first_error`` refuses a config exactly when jsonschema does, with an error jsonschema reports."""

    def test_agrees_with_jsonschema(self):
        verdicts = []

        @settings(derandomize=True, max_examples=400, deadline=None, database=None)
        @given(config_mutants())
        def agree(config):
            tree = error_tree(list(ORACLE.iter_errors(config)))
            error = cli._first_error(config, CONFIG_SCHEMA)
            assert (error is None) == (not tree)
            assert error is None or error in tree
            verdicts.append(error is None)

        agree()
        # both verdicts are drawn often enough to mean something
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8

    @pytest.mark.parametrize(
        "config,valid",
        [
            ({"axioms": {"n_points": 3.0}}, True),
            ({"sie": {"max_iter": 10**400}}, True),
            ({"axioms": {"n_points": 10**400}}, False),
            ({"axioms": {"n_points": True}}, False),
            ({"axioms": {"tol": False}}, False),
            ({"axioms": {"tol": 10**400}}, False),
            ({"space": {"distance": ("dirac",)}}, False),
            ({"solve": {"x0": (1.0,)}}, False),
        ],
        ids=["int-as-float", "huge-int", "huge-int-past-maximum", "bool-int", "bool-number", "int-past-float",
             "tuple-const", "tuple-array"],
    )
    def test_json_types_as_jsonschema_sees_them(self, config, valid):
        assert ORACLE.is_valid(config) == valid
        assert (cli._first_error(config, CONFIG_SCHEMA) is None) == valid

    @pytest.mark.parametrize(
        "instance,schema",
        [
            ("x", {"type": "number"}),
            ({"a": {"b": 0}}, {"properties": {"a": {"properties": {"b": {"minimum": 1}}}}}),
            ({"b": 1, "aa": 2}, {"properties": {}, "additionalProperties": False}),
            ({"a": 1}, {"properties": {}, "additionalProperties": False}),
            ({}, {"required": ["x0"]}),
            (True, {"anyOf": [{"type": "null"}, {"type": "number"}]}),
            ({"kind": "x"}, {"anyOf": [{"const": "d"}, {"type": "object", "properties": {"kind": {"const": "k"}}}]}),
            (5, {"anyOf": [{"type": "number", "minimum": 10}, {"type": "integer", "maximum": 1}]}),
            ("dirac ", {"const": "dirac"}),
            ("median", {"enum": ["min", "product"]}),
            ([1, "a"], {"items": {"type": "number"}}),
            ([], {"minItems": 1}),
            ([1], {"minItems": 2}),
            ([1, 2, 3], {"maxItems": 2}),
            (0, {"minimum": 1}),
            (100_001, {"maximum": 100_000}),
            (0.0, {"exclusiveMinimum": 0}),
            (math.nan, {"finite": True}),
            # the shallowest error wins over a deeper one found first
            ({"a": 0}, {"properties": {"a": {"minimum": 1}}, "required": ["x0"]}),
        ],
        ids=["type", "properties", "additionalProperties-2", "additionalProperties-1", "required", "anyOf",
             "anyOf-typed-branch", "anyOf-two-typed-branches", "const", "enum", "items", "minItems-1", "minItems-2",
             "maxItems", "minimum", "maximum", "exclusiveMinimum", "finite", "shallowest-first"],
    )
    def test_each_keyword_words_its_error_as_jsonschema(self, instance, schema):
        expected = jsonschema.exceptions.best_match(Oracle(schema).iter_errors(instance))
        assert cli._first_error(instance, schema) == (tuple(expected.absolute_path), expected.message)


class TestSchemaValidConfigErrors:
    """Configs the schema admits but the registry rejects: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            ("classify", {"space": DIRAC_SPACE, "mapping": "scale:abc"}, "scale factor"),
            ("classify", {"space": DIRAC_SPACE, "mapping": {"name": "affine"}}, "'matrix'"),
            ("axioms", {"space": {**DIRAC_SPACE, "cone": {"type": "orthant"}}}, "'dim'"),
            ("axioms", {"space": {**DIRAC_SPACE, "cone": {"type": "halfspaces"}}}, "'normals'"),
            ("sie", {"sie": {"n_time": 10, "kernel": {"name": "constant", "value": "x"}}}, "kernel value"),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": {"name": "affine", "matrix": [[1, 0], [0, "a"]], "offset": [0, 0]}},
                "affine matrix",
            ),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": AFFINE_3D},
                "affine matrix is 3x3, but the space is 2-dimensional",
            ),
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": AFFINE_3D, "solve": {"x0": [1, 0]}},
                "affine matrix is 3x3, but the space is 2-dimensional",
            ),
            (
                "axioms",
                {"space": {**DIRAC_SPACE, "cone": {"type": "halfspaces", "normals": [[1, 0], [1]]}}},
                "rectangular",
            ),
            # the image of the displacement pair's image overflows; the map and the point are named
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": "scale:1e308", "classify": {"kinds": ["kannan"]}},
                "map 'scale:1e+308' must send each point to a point of dimension 2 with finite coordinates",
            ),
            # non-finite numbers pass the schema (JSON NaN/Infinity) and the registry rejects them
            ("sie", {"sie": {"n_time": 10, "kernel": {"name": "constant", "value": float("nan")}}}, "kernel value"),
            (
                "sie",
                {"sie": {"n_time": 10, "forcing": {"name": "gaussian", "base": float("inf")}}},
                "forcing base must be finite",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "nonlinearity": {"name": "linear", "coefficient": float("nan")}}},
                "nonlinearity coefficient must be finite",
            ),
            ("classify", {"space": DIRAC_SPACE, "mapping": "scale:inf"}, "scale factor must be finite"),
            # non-finite numbers in fields no registry check covers: the schema rejects them
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [float("nan"), 0]}},
                "'solve/x0/0': nan is not a finite number",
            ),
            (
                "axioms",
                {"space": DIRAC_SPACE, "axioms": {"n_points": 4, "tol": float("nan")}},
                "'axioms/tol': nan is not a finite number",
            ),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"gamma": float("-inf")}},
                "'classify/gamma': -inf is not a finite number",
            ),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"tol": float("inf")}},
                "'classify/tol': inf is not a finite number",
            ),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"alpha_sweep": [0.1, float("nan")]}},
                "'classify/alpha_sweep/1': nan is not a finite number",
            ),
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [1, 0], "bound_alpha": float("nan")}},
                "'solve/bound_alpha': nan is not a finite number",
            ),
            (
                "axioms",
                {"space": DIRAC_SPACE, "grid": {"points": [0.1, float("inf")]}},
                "'grid/points/1': inf is not a finite number",
            ),
            (
                "axioms",
                {"space": {**DIRAC_SPACE, "sampling_box": [[0, float("nan")], [0, 1]]}},
                "'space/sampling_box/0/1': nan is not a finite number",
            ),
            (
                "axioms",
                {"space": {**DIRAC_SPACE, "cone": {"type": "halfspaces", "normals": [[1, float("-inf")]]}}},
                "'space/cone/normals/0/1': -inf is not a finite number",
            ),
            # non-finite numbers in range-checked fields: the schema names the field
            (
                "axioms",
                {"space": DIRAC_SPACE, "grid": {"start": float("nan")}},
                "'grid/start': nan is not a finite number",
            ),
            (
                "axioms",
                {"space": DIRAC_SPACE, "grid": {"stop": float("inf")}},
                "'grid/stop': inf is not a finite number",
            ),
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [1, 0], "eps": float("nan")}},
                "'solve/eps': nan is not a finite number",
            ),
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [1, 0], "agree_tol": float("inf")}},
                "'solve/agree_tol': inf is not a finite number",
            ),
            ("sie", {"sie": {"n_time": 10, "eps": float("nan")}}, "'sie/eps': nan is not a finite number"),
            ("sie", {"sie": {"n_time": 10, "lipschitz": float("inf")}}, "'sie/lipschitz': inf is not a finite number"),
            (
                "axioms",
                {"space": {**DIRAC_SPACE, "distance": {"kind": "cone-gaussian", "delta": float("nan")}}},
                "'space/distance/delta': nan is not a finite number",
            ),
            # every rate is checked before the pairs are sampled, so the
            # infeasible region is never reached
            (
                "classify",
                {"space": INFEASIBLE_SPACE, "mapping": "scale:0.5", "classify": {"kinds": ["kannan"], "alpha": 0.7}},
                "kannan rate must lie in (0, 1/2)",
            ),
            (
                "classify",
                {"space": INFEASIBLE_SPACE, "mapping": "scale:0.5", "classify": {"beta": 0.6, "kinds": ["zamfirescu"]}},
                "beta must lie in (0, 1/2)",
            ),
            (
                "classify",
                {
                    "space": INFEASIBLE_SPACE,
                    "mapping": "scale:0.5",
                    "classify": {"kinds": ["banach", "kannan"], "alpha": 0.7},
                },
                "kannan rate must lie in (0, 1/2)",
            ),
            (
                "classify",
                {
                    "space": INFEASIBLE_SPACE,
                    "mapping": "scale:0.5",
                    "classify": {"kinds": ["banach"], "alpha_sweep": [0.1, 0.6]},
                },
                "kannan rate must lie in (0, 1/2)",
            ),
            # spec objects take only the keys their name reads, and number fields only JSON numbers
            (
                "sie",
                {"sie": {"n_time": 10, "kernel": {"name": "constant", "valeu": 0.9}}},
                "kernel 'constant' does not take 'valeu' (its keys: 'name', 'value')",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "forcing": {"name": "gaussian", "sclae": 0.2, "base": 1.0}}},
                "forcing 'gaussian' does not take 'sclae'",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "nonlinearity": {"name": "zero", "coefficient": 0.4}}},
                "nonlinearity 'zero' does not take 'coefficient' (its keys: 'name')",
            ),
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": {"name": "affine", "matrix": [[1]], "offset": [0], "ofset": [0]}},
                "mapping 'affine' does not take 'ofset'",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "kernel": {"name": "constant", "value": True}}},
                "kernel value must be a number, got True",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "kernel": {"name": "constant", "value": "0.4"}}},
                "kernel value must be a number, got '0.4'",
            ),
            (
                "classify",
                {
                    "space": DIRAC_SPACE,
                    "mapping": {"name": "affine", "matrix": [[True, False], [False, True]], "offset": [0, 0]},
                },
                "affine matrix must be a rectangular array of numbers",
            ),
            (
                "sie",
                {"sie": {"n_time": 10, "nonlinearity": {"name": "linear", "coefficient": 10**400}}},
                "nonlinearity coefficient must be finite",
            ),
            # refused by the schema: no region fills more points than the sampler's candidate cap
            (
                "classify",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"kinds": ["kannan"], "n_pairs": 10**8}},
                "config field 'classify/n_pairs': 100000000 is greater than the maximum of 100000",
            ),
            (
                "axioms",
                {"space": DIRAC_SPACE, "axioms": {"n_points": 100_001}},
                "config field 'axioms/n_points': 100001 is greater than the maximum of 100000",
            ),
            (
                "solve",
                {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [1.0, 2.0], "uniqueness_starts": 10**8}},
                "config field 'solve/uniqueness_starts': 100000000 is greater than the maximum of 100000",
            ),
            # refused by the schema before any allocation: no numpy array holds 2**60 float64 values
            (
                "axioms",
                {"space": DIRAC_SPACE, "grid": {"num": 10**19}},
                "config field 'grid/num': 10000000000000000000 is greater than the maximum of 1152921504606846975",
            ),
            # nor does one hold the (n_time + 1)^2 float64 operator once n_time + 1 reaches 2**30
            (
                "sie",
                {"sie": {"n_time": 10**19}},
                "config field 'sie/n_time': 10000000000000000000 is greater than the maximum of 1073741822",
            ),
            # both bounds are finite, but no float holds the width hi - lo that uniform sampling needs
            (
                "axioms",
                {"space": {"dim": 2, "sampling_box": [[-1e308, 1e308], [0, 1]]}, "axioms": {"n_points": 4}},
                "sampling box widths hi - lo must be finite and >= 0, got [inf, 1.0]",
            ),
        ],
        ids=["scale-abc", "affine-no-matrix", "orthant-no-dim", "halfspaces-no-normals", "kernel-value-x",
             "affine-non-numeric", "affine-3d-classify", "affine-3d-solve", "halfspaces-ragged", "scale-1e308",
             "kernel-value-nan", "forcing-base-inf",
             "nonlinearity-coefficient-nan", "scale-inf", "solve-x0-nan", "axioms-tol-nan", "classify-gamma-inf",
             "classify-tol-inf", "alpha-sweep-nan", "bound-alpha-nan", "grid-points-inf", "sampling-box-nan",
             "halfspace-normals-inf", "grid-start-nan", "grid-stop-inf", "solve-eps-nan", "agree-tol-inf",
             "sie-eps-nan", "sie-lipschitz-inf", "delta-nan", "kannan-rate-infeasible-region",
             "zamfirescu-rate-infeasible-region", "second-kind-rate-infeasible-region",
             "sweep-rate-infeasible-region", "kernel-unknown-key", "forcing-unknown-key", "nonlinearity-unknown-key",
             "affine-unknown-key", "kernel-value-true", "kernel-value-string", "affine-matrix-bools",
             "coefficient-int-past-float", "n-pairs-above-sampling-cap", "n-points-above-sampling-cap",
             "uniqueness-starts-above-sampling-cap", "grid-num-past-array-length",
             "sie-n-time-past-operator-length", "sampling-box-width-overflows"],
    )
    def test_exits_2(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, payload)
        with np.errstate(over="ignore"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("1e400", "'axioms/tol': inf is not a finite number"),  # json.load reads it as inf
            ("1" + "0" * 400, "is not a finite number"),  # an int no float can hold
            ("1" + "0" * 5000, "is not valid JSON"),  # past Python's int digit limit
            ("[" * 100_000 + "]" * 100_000, "is not valid JSON"),  # past the parser's recursion limit
        ],
        ids=["1e400", "int-400-digits", "int-5000-digits", "nested-100000"],
    )
    def test_overflowing_literal_exits_2(self, tmp_path, capsys, literal, message):
        path = tmp_path / "config.json"
        path.write_text('{"space": {"dim": 2, "distance": "dirac", "tnorm": "min"}, "axioms": {"tol": %s}}' % literal)
        assert main(["axioms", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_n_time_cap_is_the_longest_operator_one_array_holds(self):
        # the (n_time + 1)^2 float64 operator fits one numpy array at the cap, and not one node past it
        cap = CONFIG_SCHEMA["properties"]["sie"]["properties"]["n_time"]["maximum"]
        assert (cap + 1) ** 2 <= cli._MAX_FLOAT64_LENGTH < (cap + 2) ** 2

    def test_n_paths_cap_is_the_most_paths_of_the_smallest_mesh_one_array_holds(self):
        cap = CONFIG_SCHEMA["properties"]["sie"]["properties"]["n_paths"]["maximum"]
        assert cap * 3 <= cli._MAX_FLOAT64_LENGTH < (cap + 1) * 3

    @pytest.mark.parametrize(
        "sie,message",
        [
            # no numpy array holds this many paths of even the 3-node mesh, so the schema refuses it
            (
                {"n_paths": 10**19, "n_time": 2},
                "config field 'sie/n_paths': 10000000000000000000 is greater than the maximum of 384307168202282325",
            ),
            # the schema's cap fits the 3-node mesh only; a 4-node one is refused before any path is built
            (
                {"n_paths": 384307168202282325, "n_time": 3},
                "config field 'sie/n_paths': 384307168202282325 paths of 4 nodes exceed the "
                "1152921504606846975 float64 values one numpy array can hold",
            ),
        ],
        ids=["schema", "mesh"],
    )
    def test_path_count_past_array_length_exits_2_before_any_path(self, tmp_path, capsys, monkeypatch, sie, message):
        # a missed refusal would call the forcing once per path, so its first call raises instead
        class PathBuilt(Exception):
            pass

        def forcing(t, j, rng):
            raise PathBuilt(f"forcing called for path {j}")

        monkeypatch.setattr(cli, "make_forcing", lambda spec: forcing)
        cfg = write_config(tmp_path, {"sie": sie})
        assert main(["sie", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        # build_sie_problem refuses both without the schema, before it builds the forcing
        monkeypatch.setattr(cli, "make_forcing", None)
        with pytest.raises(ConfigError, match="^config field 'sie/n_paths': .* paths of .* nodes exceed"):
            cli.build_sie_problem({"sie": sie}, 0)


class TestComputationFailures:
    @pytest.mark.parametrize(
        "error,line",
        [
            (MemoryError(), "computation failed: out of memory\n"),
            (
                MemoryError("Unable to allocate 728. TiB for an array with shape (100000000000000,)"),
                "computation failed: Unable to allocate 728. TiB for an array with shape (100000000000000,)\n",
            ),
        ],
        ids=["bare", "numpy"],
    )
    def test_memory_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        def run_out_of_memory(*args):
            raise error

        monkeypatch.setattr(cli, "run_axioms", run_out_of_memory)
        cfg = write_config(tmp_path, {"grid": {"num": 100_000_000_000_000}})
        assert main(["axioms", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == line


# each reads F at a time past the largest float: t / rate in the bounds, t + s in the triangle check
_HUGE_GRID = {"points": [1.0, 1e308]}
_OVERFLOWING_RUNS = {
    "banach-tiny-rate": (
        "classify",
        {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"kinds": ["banach"], "alpha": 5e-324, "n_pairs": 4}},
    ),
    "axioms-huge-grid": (
        "axioms", {"space": {"dim": 2, "distance": "dirac"}, "grid": _HUGE_GRID, "axioms": {"n_points": 4}}
    ),
    "cone-gaussian-huge-grid": (
        "classify",
        {"space": GAUSS_SPACE, "mapping": "scale:0.5", "grid": _HUGE_GRID, "classify": {"alpha": 0.1, "n_pairs": 4}},
    ),
}


@pytest.mark.parametrize("run", sorted(_OVERFLOWING_RUNS))
def test_overflow_to_inf_succeeds_without_a_warning(tmp_path, run):
    # inf is the right time there (F reads its limit at +inf), so numpy's overflow warning used to
    # reach stderr on a run that exits 0; here it would propagate as an error
    command, config = _OVERFLOWING_RUNS[run]
    cfg = write_config(tmp_path, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestClassifyCommand:
    def test_halving_map_banach_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "scale:0.5",
                "classify": {"kinds": ["banach"], "alpha": 0.6, "n_pairs": 32},
            },
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        certs = read_report(out)["results"]["classify"]["certificates"]
        assert certs["banach"]["passed"]

    def test_identity_kannan_fail_with_witness(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "identity",
                "classify": {"kinds": ["kannan"], "alpha": 0.25, "n_pairs": 32},
            },
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
        cert = read_report(out)["results"]["classify"]["certificates"]["kannan"]
        assert not cert["passed"]
        assert "witness" in cert

    def test_rotation_sweep_emits_per_alpha_certificates(self, tmp_path):
        sweep = [0.1, 0.2, 0.3, 0.4]
        cfg = write_config(
            tmp_path,
            {
                "space": GAUSS_SPACE,
                "mapping": "rotation-half",
                "classify": {"kinds": ["kannan"], "alpha": 0.25, "n_pairs": 32, "alpha_sweep": sweep},
            },
        )
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        recorded = read_report(out)["results"]["classify"]["kannan_sweep"]
        assert len(recorded) == len(sweep)
        for cert in recorded.values():
            assert "worst_margin" in cert and "passed" in cert

    def test_pairs_sampled_once_per_run(self, tmp_path, monkeypatch):
        draws = []

        def recording_sample_pairs(*args):
            draws.append(args[2])
            return contract.sample_pairs(*args)

        monkeypatch.setattr(cli, "sample_pairs", recording_sample_pairs)
        cfg = write_config(
            tmp_path,
            {"space": DIRAC_SPACE, "mapping": "scale:0.5", "classify": {"n_pairs": 16, "alpha_sweep": [0.1, 0.2]}},
        )
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert draws == [16]
        certificates = read_report(tmp_path / "o")["results"]["classify"]["certificates"]
        assert len(certificates) == 4 and all(c["n_pairs"] == 16 for c in certificates.values())

    def test_pairs_mapped_and_left_side_evaluated_once_per_run(self, tmp_path, monkeypatch):
        # 1,024 pairs are 8 blocks. Per block: F(TX, TY) once, then the bounds of
        # banach (1), kannan (2), chatterjea (2), zamfirescu (5) and of each sweep
        # rate but 0.3, the default alpha, whose Kannan certificate is reused (2 each).
        # Mapping and evaluating per certificate took 16 rows calls and 8 * 26 = 208 tables.
        rows, tables = [], []
        make_mapping = cli.make_mapping

        def counted_mapping(spec, dim):
            built = make_mapping(spec, dim)
            return dataclasses.replace(built, rows=lambda X: rows.append(len(X)) or built.rows(X))

        monkeypatch.setattr(cli, "make_mapping", counted_mapping)
        distance_values = PCMSpace.distance_values
        monkeypatch.setattr(PCMSpace, "distance_values", lambda *args: tables.append(1) or distance_values(*args))
        sweep = [0.1, 0.2, 0.3, 0.4]
        cfg = write_config(
            tmp_path,
            {"space": DIRAC_SPACE, "mapping": "scale:0.2", "classify": {"n_pairs": 1024, "alpha_sweep": sweep}},
        )
        assert main(["classify", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o")]) == 0
        assert rows == [1024, 1024]
        assert len(tables) == 8 * (1 + 1 + 2 + 2 + 5 + 2 * 3) == 136
        result = read_report(tmp_path / "o")["results"]["classify"]
        assert result["kannan_sweep"]["0.3"] == result["certificates"]["kannan"]

    def test_missing_mapping_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"space": DIRAC_SPACE, "classify": {"kinds": ["banach"]}})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSolveCommand:
    def test_rotation_half_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "rotation-half",
                "solve": {"x0": [1.0, 0.0], "eps": 1e-10, "max_iter": 500},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        result = read_report(out)["results"]["solve"]
        assert result["trace"]["stopped_reason"] == "converged"
        assert np.linalg.norm(result["trace"]["limit"]) < 1e-9
        assert result["trace"]["mean_step_ratio"] == pytest.approx(2.0**-0.5, abs=1e-9)
        assert result["fixed_point"]["is_fixed"]

    def test_trace_csv_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "constant:0.25,0.5",
                "solve": {"x0": [1.0, 0.0], "eps": 1e-8, "max_iter": 50},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "trace.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:3] == ["iter", "x0", "x1"]
        assert len(rows) - 1 == json.loads((out / "report.json").read_text())["results"]["solve"]["trace"]["n_iters"] + 1

    def test_shifted_identity_hits_max_iter(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "shift:1.0,0.0",
                "solve": {"x0": [0.0, 0.0], "eps": 0.5, "max_iter": 20},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["results"]["solve"]["trace"]["stopped_reason"] == "max_iter"

    def test_divergence_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "scale:1e155",
                "solve": {"x0": [1.0, 1.0], "eps": 1e-6, "max_iter": 50},
            },
        )
        with np.errstate(over="ignore"):
            code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "computation failed" in capsys.readouterr().err

    def test_rotation_note_recorded(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "rotation-half",
                "solve": {"x0": [1.0, 0.0], "eps": 1e-6, "max_iter": 200},
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        note = read_report(out)["results"]["solve"]["mapping_note"]
        assert "origin" in note

    def test_bounds_and_uniqueness_sections(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "space": DIRAC_SPACE,
                "mapping": "scale:0.2",
                "solve": {
                    "x0": [0.9, -0.7],
                    "eps": 1e-9,
                    "max_iter": 200,
                    "bound_alpha": 0.3,
                    "uniqueness_starts": 4,
                    "agree_tol": 1e-6,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        result = read_report(out)["results"]["solve"]
        assert result["bounds"]["holds"]
        assert result["uniqueness"]["unique"]

    @pytest.mark.parametrize("mapping", ["scale:2", "scale:0.5"], ids=["diverging", "converging"])
    def test_bound_rate_refused_before_the_orbit(self, tmp_path, capsys, monkeypatch, mapping):
        # the diverging map used to exit 1 on its non-finite iterate, the converging
        # one to run its whole orbit before the rate was read
        orbits = []
        picard = cli.picard
        monkeypatch.setattr(cli, "picard", lambda *args, **kwargs: orbits.append(1) or picard(*args, **kwargs))
        cfg = write_config(
            tmp_path,
            {"space": {"dim": 1}, "mapping": mapping, "solve": {"x0": [1], "max_iter": 5000, "bound_alpha": 0.7}},
        )
        with np.errstate(over="ignore"):
            assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: kannan rate must lie in (0, 1/2), got 0.7\n"
        assert orbits == []


class TestSieCommand:
    def test_linear_benchmark(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sie": {
                    "n_time": 500,
                    "n_paths": 1,
                    "kernel": "constant",
                    "forcing": {"name": "constant", "value": 1.0},
                    "nonlinearity": {"name": "linear", "coefficient": 0.4},
                    "eps": 1e-10,
                    "max_iter": 100,
                }
            },
        )
        out = tmp_path / "out"
        assert main(["sie", "--config", cfg, "--out", str(out)]) == 0
        result = read_report(out)["results"]["sie"]
        assert result["conditions"]["contraction_rate"] == pytest.approx(0.4, abs=1e-12)
        assert result["conditions"]["satisfied"]
        assert result["solution"]["converged"]
        assert "warning" not in result
        with open(out / "sie_mean_path.csv") as handle:
            rows = list(csv.reader(handle))
        # mean path endpoint approximates e^{0.4}
        assert float(rows[-1][1]) == pytest.approx(float(np.exp(0.4)), abs=1e-3)

    def test_unsatisfied_conditions_warn_but_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "sie": {
                    "n_time": 100,
                    "kernel": "constant",
                    "forcing": "constant",
                    "nonlinearity": {"name": "linear", "coefficient": 0.6},
                    "eps": 1e-8,
                    "max_iter": 100,
                }
            },
        )
        out = tmp_path / "out"
        assert main(["sie", "--config", cfg, "--out", str(out)]) == 0
        result = read_report(out)["results"]["sie"]
        assert not result["conditions"]["satisfied"]
        assert "warning" in result
        assert result["solution"]["converged"]

    def test_zero_nonlinearity_single_iteration(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"sie": {"n_time": 50, "kernel": "constant", "forcing": "constant", "nonlinearity": "zero"}},
        )
        out = tmp_path / "out"
        assert main(["sie", "--config", cfg, "--out", str(out)]) == 0
        assert read_report(out)["results"]["sie"]["solution"]["iterations"] == 1

    def test_operator_built_once_per_run(self, tmp_path, monkeypatch):
        # every _DiscreteOperator build evaluates the kernel mesh once and the
        # forcing once per path
        calls = {"kernel": 0, "forcing": 0}

        def counted(factory, key):
            def make(spec):
                fn = factory(spec)

                def wrapper(*args):
                    calls[key] += 1
                    return fn(*args)

                return wrapper

            return make

        monkeypatch.setattr(cli, "make_kernel", counted(cli.make_kernel, "kernel"))
        monkeypatch.setattr(cli, "make_forcing", counted(cli.make_forcing, "forcing"))
        cfg = write_config(
            tmp_path,
            {"sie": {"n_time": 20, "n_paths": 3, "kernel": "exp-decay", "forcing": {"name": "gaussian"}}},
        )
        assert main(["sie", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"kernel": 1, "forcing": 3}


class TestCommandLineErrors:
    """Bad --seed and --out values: exit 2 with one error line, no traceback."""

    @pytest.mark.parametrize("command", ["axioms", "classify", "solve", "sie", "demo"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        args = [command, "--seed", "-1", "--out", str(tmp_path / "o")]
        if command != "demo":
            args += ["--config", write_config(tmp_path, {})]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith("argument --seed: must be a non-negative integer, got '-1'")
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--workers", workers, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument --workers: must be a positive integer, got '{workers}'")
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,out,target,strerror",
        [
            ("demo", "file", "file", "File exists"),
            ("demo", "file/sub", "file/sub", "Not a directory"),
            ("axioms", "dir", "dir/report.json", "Is a directory"),
            ("solve", "dir", "dir/trace.csv", "Is a directory"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "report-is-a-directory", "csv-is-a-directory"],
    )
    def test_unusable_out_exits_2(self, tmp_path, capsys, command, out, target, strerror):
        (tmp_path / "file").write_text("not a directory\n")
        (tmp_path / "dir" / "report.json").mkdir(parents=True)
        (tmp_path / "dir" / "trace.csv").mkdir()
        args = [command, "--out", str(tmp_path / out)]
        if command != "demo":
            payload = {"space": DIRAC_SPACE, "mapping": "scale:0.5", "solve": {"x0": [1, 0]}}
            args += ["--config", write_config(tmp_path, payload)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"config error: cannot write to '{tmp_path / target}': {strerror}\n"


# OPENBLAS_NUM_THREADS of a fresh CLI process; None leaves every thread-count variable unset
BLAS_START_THREADS = (None, "1", "2")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
AFFINE_2D = {"name": "affine", "matrix": [[0.3, 0.1], [0.0, 0.4]], "offset": [0.1, 0.0]}


def run_cli_fresh(command, cfg, out, threads):
    """Run ``probcone command`` with seed 1 in a fresh interpreter; returns ``out``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    subprocess.run(
        [sys.executable, "-m", "probcone.cli", command, "--config", cfg, "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, check=True,
    )
    return out


class TestDeterminism:
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("axioms", {"space": GAUSS_SPACE, "axioms": {"n_points": 6}}),
            (
                "solve",
                {
                    "space": DIRAC_SPACE,
                    "mapping": "rotation-half",
                    "solve": {"x0": [1.0, 0.0], "eps": 1e-8, "max_iter": 200, "uniqueness_starts": 4},
                },
            ),
        ],
    )
    def test_workers_do_not_change_bytes(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        outputs = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            code = main([command, "--config", cfg, "--seed", "11", "--workers", workers, "--out", str(out)])
            assert code == 0
            outputs.append(canonical_without_wall_time(read_report(out)))
        assert outputs[0] == outputs[1]

    # A per-path gemv of 801 nodes or more, or a 64-path gemm, splits over
    # the BLAS threads in a way that moves its bits unless it runs on one.
    @pytest.mark.skipif(stochastic._load_blas_threads() is None, reason="no bundled OpenBLAS to pin")
    @pytest.mark.parametrize(
        "section",
        [
            {"n_time": 2000, "kernel": "constant", "forcing": {"name": "constant", "value": 1.0},
             "nonlinearity": _LINEAR, "eps": 1e-12, "max_iter": 200},
            {"n_time": 1000, "n_paths": 100, "kernel": "exp-decay",
             "forcing": {"name": "gaussian", "base": 1.0, "scale": 0.1}, "nonlinearity": _LINEAR, "eps": 1e-10},
        ],
        ids=["1path-2000", "100paths-1000"],
    )
    def test_blas_threads_do_not_change_sie_bytes(self, tmp_path, section):
        cfg = write_config(tmp_path, {"sie": section})
        outputs = []
        for threads in BLAS_START_THREADS:
            out = run_cli_fresh("sie", cfg, tmp_path / f"t{threads}", threads)
            csvs = [(out / name).read_bytes() for name in ("sie_mean_path.csv", "sie_residuals.csv")]
            outputs.append((canonical_without_wall_time(read_report(out)), *csvs))
        assert outputs[1:] == outputs[:1] * 2

    # An unset environment starts OpenBLAS on one thread; the count it
    # starts on must not reach the bytes of any subcommand.
    @pytest.mark.parametrize(
        "command,payload",
        [
            ("axioms", {"space": GAUSS_SPACE, "axioms": {"n_points": 6}}),
            (
                "classify",
                {
                    "space": GAUSS_SPACE,
                    "mapping": AFFINE_2D,
                    "classify": {"kinds": ["banach", "kannan", "chatterjea", "zamfirescu"], "n_pairs": 64},
                },
            ),
            (
                "solve",
                {"space": GAUSS_SPACE, "mapping": AFFINE_2D, "solve": {"x0": [1.0, -2.0], "uniqueness_starts": 4}},
            ),
        ],
        ids=["axioms", "classify", "solve"],
    )
    def test_blas_start_threads_do_not_change_bytes(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, payload)
        outputs = [
            canonical_without_wall_time(read_report(run_cli_fresh(command, cfg, tmp_path / f"t{threads}", threads)))
            for threads in BLAS_START_THREADS
        ]
        assert outputs[1:] == outputs[:1] * 2

    def test_repeat_run_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"space": DIRAC_SPACE, "axioms": {"n_points": 5}})
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["axioms", "--config", cfg, "--seed", "2", "--out", str(first)]) == 0
        assert main(["axioms", "--config", cfg, "--seed", "2", "--out", str(second)]) == 0
        assert canonical_without_wall_time(read_report(first)) == canonical_without_wall_time(
            read_report(second)
        )


class TestDemo:
    def test_demo_runs_everything(self, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--seed", "1", "--out", str(out)]) == 0
        demo = read_report(out)["results"]["demo"]
        assert set(demo) == {"axioms", "classify", "solve", "sie"}
        assert len(demo["axioms"]["sub_distribution_pairs"]) > 0
        assert not demo["axioms"]["checks"]["symmetry"]["passed"]
        assert demo["solve"]["trace"]["stopped_reason"] == "converged"
        assert demo["solve"]["uniqueness"]["unique"]
        assert demo["sie"]["conditions"]["contraction_rate"] == pytest.approx(0.4, abs=1e-12)
        assert demo["sie"]["solution"]["converged"]
        assert len(demo["classify"]["kannan_sweep"]) == 8


FREEZE_PROBE = """
import atexit, gc, sys
from probcone.cli import main
args = ["axioms", "--config", sys.argv[1], "--out", sys.argv[2]]
assert main(args) == 0
registered = atexit._ncallbacks()
assert main(args) == 0
assert atexit._ncallbacks() == registered
assert gc.get_freeze_count() == 0
atexit._run_exitfuncs()
assert gc.get_freeze_count() > 0
"""


def test_main_freezes_the_heap_once_and_only_at_exit(tmp_path):
    """``main`` registers ``gc.freeze`` with atexit once per process, and the process exits quietly."""
    cfg = write_config(tmp_path, {"space": DIRAC_SPACE, "axioms": {"n_points": 4}})
    done = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, cfg, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
