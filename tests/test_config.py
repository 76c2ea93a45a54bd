"""The config validator: it knows every keyword the schemas use, it accepts and
rejects what jsonschema does and names the violation in jsonschema's words, it
never needs jsonschema at run time, and no schema-valid config ends in a
traceback."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_consistent_pair, random_effects, random_history, random_intersection_state
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from test_cli import INVALID_LITERALS, LITERAL_SITES, SHIPPED, VALID_LITERALS

from qpool.cli import main
from qpool.config import (
    _TYPES,
    CONFIG_SCHEMA,
    PAYLOAD_SCHEMAS,
    _raise_best_match,
    _violations,
    matrix_to_literal,
    validate_config,
)
from qpool.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"
KEYWORDS = {
    "type", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "enum", "anyOf", "minimum", "maximum", "exclusiveMinimum",
}


def _schema_keywords(schema):
    """Every (keyword, value) in a schema, descending subschemas but not property names."""
    for key, rule in schema.items():
        yield key, rule
        if key == "properties":
            for sub in rule.values():
                yield from _schema_keywords(sub)
        elif key == "items":
            yield from _schema_keywords(rule)
        elif key == "anyOf":
            for sub in rule:
                yield from _schema_keywords(sub)


def test_walker_knows_every_keyword_the_schemas_use():
    for schema in [CONFIG_SCHEMA, *PAYLOAD_SCHEMAS.values()]:
        for key, rule in _schema_keywords(schema):
            assert key in KEYWORDS, key
            if key == "type":
                assert rule in _TYPES, rule
            if key == "additionalProperties":
                assert rule is False
            if key == "enum":  # Python's == would equate [1] and [True]
                assert all(type(value) is str for value in rule)
            if key == "anyOf":  # so best_match names the anyOf, never one option's error
                assert all(list(option) == ["required"] for option in rule)
            if key == "properties":  # names json_path writes as ".name"
                assert all(re.fullmatch("[a-zA-Z][a-zA-Z0-9_]*", name) for name in rule)
    # ... and it raises on a keyword it does not know.
    with pytest.raises(NotImplementedError, match="multipleOf"):
        _violations(1, {"multipleOf": 2})


def _stages(cfg):
    """The (instance, schema, root) triples ``validate_config`` checks, as far as the kind allows."""
    yield cfg, CONFIG_SCHEMA, "$"
    if isinstance(cfg, dict) and cfg.get("kind") in PAYLOAD_SCHEMAS:
        yield cfg.get("payload", {}), PAYLOAD_SCHEMAS[cfg["kind"]], "$.payload"


def _jsonschema_verdict(instance, schema, root):
    """``"{path}: {message}"`` of jsonschema's best match, as qpool once called it, or None."""
    errors = sorted(Draft202012Validator(schema).iter_errors(instance), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = best_match(errors)
    return f"{err.json_path.replace('$', root, 1)}: {err.message}"


def _verdict(instance, schema, root):
    try:
        _raise_best_match(instance, schema, root)
    except ConfigError as exc:
        return str(exc)
    return None


def _deep_literal(bad=None, size=9):
    """A ``size`` x ``size`` literal, with ``bad`` in place of the last pair of its last row."""
    literal = [[[0.5, 0] if r == c else [0, -0.0] for c in range(size)] for r in range(size)]
    if bad is not None:
        literal[-1][-1] = bad
    return literal


SEEDS = [json.loads(path.read_text()) for path in SHIPPED] + [
    make(literal)
    for make in LITERAL_SITES.values()
    for literal in [*VALID_LITERALS.values(), *INVALID_LITERALS.values(), _deep_literal(size=8)]
]
REPLACEMENTS = [
    True, None, "x", math.nan, math.inf, -math.inf, 0, -1, 1.5, 10**7, 2.0, np.float64(0.25),
    [], [1], [0.5, 0, 0], {}, [[[1, 0]]],
]
# A bad pair in row 8 or later of a literal of at least 8 x 8, at both literal sites.
DEEP_BAD_PAIRS = [
    make(_deep_literal(bad, size))
    for make in LITERAL_SITES.values()
    for bad in ([0.5, 0, 0], [True, 0], [0, "0"])
    for size in (9, 12)
]


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _mutate(draw, cfg):
    """One random edit: a node replaced or turned into a float, a key dropped or added, a
    list shortened or lengthened.  A float of an integer field is an integral float."""
    nodes = list(_nodes(cfg))
    dicts = [n for _, n in nodes if isinstance(n, dict)]
    lists = [n for _, n in nodes if isinstance(n, list)]
    numbers = [p for p, n in nodes if type(n) in (int, float) and p]
    edit = draw(st.sampled_from(["replace", "float", "drop", "add", "shorten", "lengthen"]))
    if edit in ("replace", "float") and (edit == "replace" or numbers):
        path = draw(st.sampled_from([p for p, _ in nodes] if edit == "replace" else numbers))
        *head, last = path or [None]
        parent = cfg
        for key in head:
            parent = parent[key]
        if edit == "float":
            parent[last] = draw(st.sampled_from([float, np.float64]))(parent[last])
        elif path:
            parent[last] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        else:
            cfg = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    elif edit == "drop" and any(dicts):
        target = draw(st.sampled_from([d for d in dicts if d]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif edit == "add" and dicts:
        draw(st.sampled_from(dicts))[draw(st.sampled_from(["unknown", "aa", "zz"]))] = 0
    elif edit == "shorten" and any(lists):
        target = draw(st.sampled_from([lst for lst in lists if lst]))
        del target[draw(st.integers(0, len(target) - 1))]
    elif edit == "lengthen" and lists:
        target = draw(st.sampled_from(lists))
        target.append(copy.deepcopy(target[-1]) if target else 0)
    return cfg


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        cfg = _mutate(draw, cfg)
    return cfg


def _agree_with_jsonschema(cfg):
    for instance, schema, root in _stages(cfg):
        expected = _jsonschema_verdict(instance, schema, root)
        assert _verdict(instance, schema, root) == expected
        if expected is not None:
            with pytest.raises(ConfigError) as info:
                validate_config(cfg)
            assert str(info.value) == expected
            return


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_configs())
# An error of another keyword at the same path outranks the anyOf's.
@example({"kind": "history", "payload": {"steps": [{"owner": "alice", "zz": 1}]}})
def test_validator_agrees_with_jsonschema(cfg):
    _agree_with_jsonschema(cfg)


@pytest.mark.parametrize("cfg", DEEP_BAD_PAIRS, ids=lambda cfg: cfg["kind"])
def test_deep_bad_pair_is_walked_and_worded_as_by_jsonschema(cfg):
    # The row shortcut refuses the row, and the walk names the pair as jsonschema does.
    with pytest.raises(ConfigError, match=r"\[8\]|\[11\]"):
        validate_config(cfg)
    _agree_with_jsonschema(cfg)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_walker_accepts_every_shipped_config(path):
    for instance, schema, _ in _stages(json.loads(path.read_text())):
        assert _violations(instance, schema) == ()


@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
@pytest.mark.parametrize("case", sorted(VALID_LITERALS))
def test_walker_accepts_valid_literals(case, site):
    # An np.float64 is a number as jsonschema sees one: any Real but bool.
    for instance, schema, _ in _stages(LITERAL_SITES[site](VALID_LITERALS[case])):
        assert _violations(instance, schema) == ()


def test_matrix_literal_pairs_cost_no_walk(monkeypatch):
    # The number of walks grows with neither the pairs in a row nor the rows in a
    # literal: each row of [re, im] pairs of exact ints and floats passes the row
    # rule by its exact types and lengths alone.
    calls = []
    monkeypatch.setattr("qpool.config._violations", lambda *args: calls.append(1) or _violations(*args))
    counts = []
    for rows, width in ((1, 1), (1, 40), (40, 1), (40, 40)):
        calls.clear()
        literal = [[[0.5, 0]] * width for _ in range(rows)]
        validate_config({"kind": "consistency", "payload": {"rho_a": literal, "rho_b": [[[1, 0]]]}})
        counts.append(len(calls))
    assert len(set(counts)) == 1, counts


FUSE = {"rho_a": [[[1, 0]]], "rho_b": [[[1, 0]]], "n_samples": 1}
# Rejected configs and the stderr of ``qpool run`` on each, as jsonschema worded it.
REJECTED = {
    "enum": (
        {"kind": "fuse", "payload": {**FUSE, "family": "x"}},
        "config error: $.payload.family: 'x' is not one of ['haar-pure-intersection']\n",
    ),
    "required": (
        {"kind": "fuse", "payload": {"rho_a": [[[1, 0]]], "rho_b": [[[1, 0]]]}},
        "config error: $.payload: 'n_samples' is a required property\n",
    ),
    "top_level_key": (
        {"kind": "fuse", "payload": FUSE, "zz": 1},
        "config error: $: Additional properties are not allowed ('zz' was unexpected)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_config_worded_as_by_jsonschema(case, tmp_path, capsys):
    cfg, stderr = REJECTED[case]
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    assert main(["run", str(tmp_path / "bad.json")]) == 1
    assert capsys.readouterr().err == stderr
    stages = [_jsonschema_verdict(*stage) for stage in _stages(cfg)]
    assert stderr == f"config error: {next(v for v in stages if v)}\n"


def test_valid_configs_never_import_jsonschema(tmp_path):
    """Every command runs with jsonschema unimportable: valid configs exit 0, and rejected ones 1."""
    for case, (cfg, _) in REJECTED.items():
        (tmp_path / f"{case}.json").write_text(json.dumps(cfg))
    code = f"""
import contextlib, io, sys
sys.modules["jsonschema"] = None  # any import of it raises ImportError
from qpool.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in {[str(p) for p in SHIPPED]!r}:
        assert main(["run", cfg, "--out", "report.json"]) == 0
        assert main(["validate", cfg]) == 0
    assert main(["reproduce-paper"]) == 0
    for case in {sorted(REJECTED)!r}:
        assert main(["run", case + ".json"]) == 1
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "".join(REJECTED[case][1] for case in sorted(REJECTED))


# Schema-valid configs, drawn by the 12 keywords the validator reads.  Sizes stay
# small so the property runs in seconds: at most 4 of anything a schema leaves
# unbounded, and sample counts up to 2000.
MAX_LIST, MAX_COUNT = 4, 2000
EDGE_NUMBERS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0]


def _from_schema(schema):
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props = {name: _from_schema(sub) for name, sub in schema.get("properties", {}).items()}
        options = [option["required"] for option in schema.get("anyOf", [{"required": []}])]

        def with_required(extra):
            names = [*schema.get("required", []), *extra]
            optional = {name: s for name, s in props.items() if name not in names}
            return st.fixed_dictionaries({name: props[name] for name in names}, optional=optional)

        return st.sampled_from(options).flatmap(with_required)
    if kind == "array":
        high = schema.get("maxItems", MAX_LIST)
        return st.lists(_from_schema(schema["items"]), min_size=schema.get("minItems", 0), max_size=high)
    low = schema.get("minimum", schema.get("exclusiveMinimum"))
    if kind == "integer":
        ints = st.integers(low, min(schema.get("maximum", MAX_COUNT), MAX_COUNT))
        return st.one_of(ints, ints.map(float))
    edges = st.sampled_from([x for x in EDGE_NUMBERS if Draft202012Validator(schema).is_valid(x)])
    finite = st.floats(low, schema.get("maximum"), exclude_min="exclusiveMinimum" in schema, allow_nan=False,
                       allow_infinity=False)
    return st.one_of(finite, edges)


SCHEMA_CONFIGS = st.sampled_from(sorted(PAYLOAD_SCHEMAS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), "payload": _from_schema(PAYLOAD_SCHEMAS[kind])},
        optional={"seed": _from_schema(CONFIG_SCHEMA["properties"]["seed"])},
    )
)


@st.composite
def physical_configs(draw):
    """Configs whose payloads are valid physics too, from conftest's generators, so runs
    get past validation: histories of up to 4 steps and estimates of up to 30 effects."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(sorted(PAYLOAD_SCHEMAS)))
    dim = draw(st.integers(1, 4))
    rho_a, rho_b, common = random_consistent_pair(rng, dim)
    payload = {"rho_a": matrix_to_literal(rho_a), "rho_b": matrix_to_literal(rho_b)}
    if kind == "pool-classical":
        payload = {key: [float(x) for x in rng.dirichlet(np.ones(dim))] for key in ("p", "q")}
    elif kind == "history":
        history = random_history(rng, dim, draw(st.integers(1, 4)))
        steps = [{"owner": owner, "kraus": [matrix_to_literal(m) for m in povm.ops]} for owner, povm in history.steps]
        payload = {"steps": steps, "known": {"i": draw(st.integers(0, 2))}}
    elif kind == "realize":
        payload["sigma"] = matrix_to_literal(random_intersection_state(rng, common))
    elif kind == "ambiguity":
        for key in ("sigma_1", "sigma_2"):
            payload[key] = matrix_to_literal(random_intersection_state(rng, common))
    elif kind == "fuse":
        payload["n_samples"] = draw(st.integers(1, MAX_COUNT))
    elif kind == "estimate":
        payload = {key: [min(float(e[0, 0].real), 1.0) for e in random_effects(rng, 2, draw(st.integers(1, 30)))]
                   for key in ("effects_a", "effects_b")}
        if draw(st.booleans()):
            payload["mc_samples"] = draw(st.integers(1, MAX_COUNT))
    elif kind == "reproduce-paper":
        payload = {}
    return {"kind": kind, "seed": draw(st.integers(0, 2**32 - 1)), "payload": payload}


def _reject_constant(name):
    raise ValueError(f"report contains {name}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(SCHEMA_CONFIGS, physical_configs()))
# Finite probabilities whose sum overflows: numpy's overflow warning was a traceback.
@example({"kind": "pool-classical", "payload": {"p": [7.1e307, 1.1e308], "q": [1.0]}})
def test_schema_valid_configs_never_end_in_a_traceback(cfg):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("config error: ")
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
