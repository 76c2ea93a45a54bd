"""The accept-only schema walker: it knows every keyword the schemas use, it
never accepts what jsonschema rejects, it accepts the configs qpool ships,
and a valid config never imports jsonschema."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from test_cli import INVALID_LITERALS, LITERAL_SITES, SHIPPED, VALID_LITERALS

from qpool.config import _TYPES, CONFIG_SCHEMA, PAYLOAD_SCHEMAS, _surely_valid

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
    # ... and it is not sure of a keyword it does not know.
    assert not _surely_valid(1, {"multipleOf": 2})


def _stages(cfg):
    """The (instance, schema) pairs ``validate_config`` checks, as far as the kind allows."""
    yield cfg, CONFIG_SCHEMA
    if isinstance(cfg, dict) and cfg.get("kind") in PAYLOAD_SCHEMAS:
        yield cfg.get("payload", {}), PAYLOAD_SCHEMAS[cfg["kind"]]


SEEDS = [json.loads(path.read_text()) for path in SHIPPED] + [
    make(literal)
    for make in LITERAL_SITES.values()
    for literal in [*VALID_LITERALS.values(), *INVALID_LITERALS.values()]
]
REPLACEMENTS = [True, None, "x", math.nan, math.inf, -math.inf, -1, 1.5, [], {}]


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(child, path + (key,))


def _mutate(data, cfg):
    """One random edit: a node replaced, a key dropped or added, a list shortened or lengthened."""
    nodes = list(_nodes(cfg))
    path, _ = data.draw(st.sampled_from(nodes))
    dicts = [n for _, n in nodes if isinstance(n, dict)]
    lists = [n for _, n in nodes if isinstance(n, list)]
    edit = data.draw(st.sampled_from(["replace", "drop", "add", "shorten", "lengthen"]))
    if edit == "replace" and path:
        *head, last = path
        parent = cfg
        for key in head:
            parent = parent[key]
        parent[last] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif edit == "replace":
        cfg = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif edit == "drop" and any(dicts):
        target = data.draw(st.sampled_from([d for d in dicts if d]))
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif edit == "add" and dicts:
        data.draw(st.sampled_from(dicts))["unknown"] = 0
    elif edit == "shorten" and any(lists):
        target = data.draw(st.sampled_from([lst for lst in lists if lst]))
        del target[data.draw(st.integers(0, len(target) - 1))]
    elif edit == "lengthen" and lists:
        target = data.draw(st.sampled_from(lists))
        target.append(copy.deepcopy(target[-1]) if target else 0)
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_walker_never_accepts_what_jsonschema_rejects(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        cfg = _mutate(data, cfg)
    for instance, schema in _stages(cfg):
        if _surely_valid(instance, schema):
            assert Draft202012Validator(schema).is_valid(instance)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_walker_accepts_every_shipped_config(path):
    for instance, schema in _stages(json.loads(path.read_text())):
        assert _surely_valid(instance, schema)


@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
@pytest.mark.parametrize("case", sorted(VALID_LITERALS))
def test_walker_accepts_valid_literals(case, site):
    # An np.float64 is a float subclass: exact types make the walker unsure of
    # it, and jsonschema then accepts it.
    sure = all(_surely_valid(i, s) for i, s in _stages(LITERAL_SITES[site](VALID_LITERALS[case])))
    assert sure == (case != "float_subclass")


def _run_python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)


def test_valid_configs_never_import_jsonschema(tmp_path):
    code = f"""
import contextlib, io, sys
from qpool.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in {[str(p) for p in SHIPPED]!r}:
        assert main(["run", cfg, "--out", "report.json"]) == 0
        assert main(["validate", cfg]) == 0
    assert main(["reproduce-paper"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing")))
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rejected_config_still_explained_by_jsonschema(tmp_path):
    cfg = {
        "kind": "fuse",
        "payload": {"rho_a": [[[1, 0]]], "rho_b": [[[1, 0]]], "n_samples": 1, "family": "x"},
    }
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    proc = _run_python("import sys; from qpool.cli import main; sys.exit(main(['run', 'bad.json']))", tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "config error: $.payload.family: 'x' is not one of ['haar-pure-intersection']\n"
