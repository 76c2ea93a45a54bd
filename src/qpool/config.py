"""Scenario configuration: JSON schemas, parsing, and matrix literals.

Configs are strict JSON objects ``{"kind": ..., "seed": ..., "payload": ...}``;
unknown fields anywhere are rejected rather than ignored.  Matrix literals
are nested row-major arrays of ``[re, im]`` pairs; probability vectors are
plain arrays of decimals.  The schemas are plain JSON Schema 2020-12 dicts; one
walker of their 12 keywords judges a config and words a rejection as the Python
reference validator's ``best_match`` does.  It accepts a matrix literal's row of
``[re, im]`` pairs of exact ints and floats by C-level checks alone (``map`` of
``type`` and ``len`` over the row, and of ``type`` over its ``chain``-ed
entries), with no Python code per pair; a row that fails them is walked, so
every rejection is found and worded as before.  A literal is read into numpy,
and written back out, as one array.  Only ``literal_to_matrix`` imports numpy.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from itertools import chain
from pathlib import Path

from .errors import ConfigError, NonFiniteError, ShapeError

FUSE_FAMILY = "haar-pure-intersection"  # the one measure ``fusion.averaged_fusion`` averages over

_TYPES = {  # the exact types each JSON type admits with no further check
    "object": frozenset({dict}),
    "array": frozenset({list}),
    "integer": frozenset({int}),
    "number": frozenset({int, float}),
}
_IS = {  # the 2020-12 type checks, for what the exact types above miss
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "integer": lambda x: type(x) is not bool and isinstance(x, int) or isinstance(x, float) and x.is_integer(),
    "number": lambda x: type(x) is not bool and isinstance(x, numbers.Real),
}
_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _PAIR},
}
_PROBS = {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}}
_EFFECTS = {
    "type": "array",
    "items": {"type": "number", "minimum": 0, "maximum": 1},
}
_STEP = {
    "type": "object",
    "properties": {
        "owner": {"enum": ["alice", "bob", "eve"]},
        "povm": {"type": "array", "minItems": 1, "items": _MATRIX},
        "kraus": {"type": "array", "minItems": 1, "items": _MATRIX},
    },
    "required": ["owner"],
    "anyOf": [{"required": ["povm"]}, {"required": ["kraus"]}],
    "additionalProperties": False,
}

PAYLOAD_SCHEMAS = {
    "pool-classical": {
        "type": "object",
        "properties": {"p": _PROBS, "q": _PROBS},
        "required": ["p", "q"],
        "additionalProperties": False,
    },
    "history": {
        "type": "object",
        "properties": {
            "steps": {"type": "array", "minItems": 1, "items": _STEP},
            "known": {
                "type": "object",
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "j": {"type": "integer", "minimum": 0},
                    "e": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "required": ["steps"],
        "additionalProperties": False,
    },
    "consistency": {
        "type": "object",
        "properties": {
            "rho_a": _MATRIX,
            "rho_b": _MATRIX,
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["rho_a", "rho_b"],
        "additionalProperties": False,
    },
    "realize": {
        "type": "object",
        "properties": {
            "rho_a": _MATRIX,
            "rho_b": _MATRIX,
            "sigma": _MATRIX,
            "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "required": ["rho_a", "rho_b", "sigma"],
        "additionalProperties": False,
    },
    "ambiguity": {
        "type": "object",
        "properties": {
            "rho_a": _MATRIX,
            "rho_b": _MATRIX,
            "sigma_1": _MATRIX,
            "sigma_2": _MATRIX,
        },
        "required": ["rho_a", "rho_b", "sigma_1", "sigma_2"],
        "additionalProperties": False,
    },
    "fuse": {
        "type": "object",
        "properties": {
            "rho_a": _MATRIX,
            "rho_b": _MATRIX,
            "n_samples": {"type": "integer", "minimum": 1, "maximum": 1000000},
            "family": {"enum": [FUSE_FAMILY]},
            "weight_exponent": {"type": "number"},
        },
        "required": ["rho_a", "rho_b", "n_samples"],
        "additionalProperties": False,
    },
    "estimate": {
        "type": "object",
        "properties": {
            "effects_a": _EFFECTS,
            "effects_b": _EFFECTS,
            "mc_samples": {"type": "integer", "minimum": 1, "maximum": 1000000},
        },
        "required": ["effects_a"],
        "additionalProperties": False,
    },
    "reproduce-paper": {
        "type": "object",
        "properties": {},
        "additionalProperties": False,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": sorted(PAYLOAD_SCHEMAS)},
        "seed": {"type": "integer", "minimum": 0},
        "payload": {"type": "object"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}


def validate_config(cfg: dict) -> dict:
    """Validate a scenario config against the strict schema.

    Returns a normalized copy with explicit ``seed`` and ``payload`` fields.
    Raises :class:`ConfigError` carrying a field-path diagnostic.
    """
    _raise_best_match(cfg, CONFIG_SCHEMA, "$")
    payload = cfg.get("payload", {})
    _raise_best_match(payload, PAYLOAD_SCHEMAS[cfg["kind"]], "$.payload")
    # The schema cannot demand a finite tol: NaN fails every comparison, so
    # exclusiveMinimum lets it through, and Infinity and integers beyond the
    # float range satisfy it.  All three fail this comparison.
    if "tol" in payload and not payload["tol"] <= sys.float_info.max:
        raise ConfigError(f"$.payload.tol: {payload['tol']!r} is not a finite float")
    for k, step in enumerate(payload.get("steps", ())):  # the schema's anyOf admits both lists
        if "povm" in step and "kraus" in step:
            raise ConfigError(f"$.payload.steps[{k}]: names both 'povm' and 'kraus'")
    return {"kind": cfg["kind"], "seed": int(cfg.get("seed", 0)), "payload": payload}


def _violations(instance, schema: dict) -> tuple:
    """Every rule of ``schema`` that ``instance`` breaks, as ``(path, keyword, message)``.

    The path is relative to ``instance``; the order and the wording are those of
    the Python reference validator, 4.26.  A valid instance gets the empty tuple
    back, and nothing is allocated for it.  A keyword not known here raises.
    """
    found = ()
    kind = type(instance)
    for key, rule in schema.items():
        if key == "type":
            if kind not in _TYPES[rule] and not _IS[rule](instance):
                found += (((), key, f"{instance!r} is not of type {rule!r}"),)
        elif key == "items":
            if kind is list or isinstance(instance, list):
                unwalked = _unwalked(rule)  # what passes with no call per element
                for k, item in enumerate(instance):
                    if not unwalked(item) and (broken := _violations(item, rule)):
                        found += _under(k, broken)
        elif key == "minItems":
            if (kind is list or isinstance(instance, list)) and len(instance) < rule:
                found += (((), key, f"{instance!r} {'should be non-empty' if rule == 1 else 'is too short'}"),)
        elif key == "maxItems":
            if (kind is list or isinstance(instance, list)) and len(instance) > rule:
                found += (((), key, f"{instance!r} {'is expected to be empty' if rule == 0 else 'is too long'}"),)
        elif key == "minimum":
            if (kind in _TYPES["number"] or _IS["number"](instance)) and instance < rule:
                found += (((), key, f"{instance!r} is less than the minimum of {rule!r}"),)
        elif key == "maximum":
            if (kind in _TYPES["number"] or _IS["number"](instance)) and instance > rule:
                found += (((), key, f"{instance!r} is greater than the maximum of {rule!r}"),)
        elif key == "exclusiveMinimum":
            if (kind in _TYPES["number"] or _IS["number"](instance)) and instance <= rule:
                found += (((), key, f"{instance!r} is less than or equal to the minimum of {rule!r}"),)
        elif key == "enum":
            if instance not in rule:  # the schemas enumerate strings, which == compares exactly
                found += (((), key, f"{instance!r} is not one of {rule!r}"),)
        elif key == "anyOf":
            if all(_violations(instance, option) for option in rule):
                found += (((), key, f"{instance!r} is not valid under any of the given schemas"),)
        elif key == "properties":
            if kind is dict or isinstance(instance, dict):
                for name, sub in rule.items():
                    if name in instance and (broken := _violations(instance[name], sub)):
                        found += _under(name, broken)
        elif key == "required":
            if kind is dict or isinstance(instance, dict):
                for name in rule:
                    if name not in instance:
                        found += (((), key, f"{name!r} is a required property"),)
        elif key == "additionalProperties":
            if (kind is dict or isinstance(instance, dict)) and not instance.keys() <= schema["properties"].keys():
                extras = sorted(instance.keys() - schema["properties"].keys(), key=str)
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                found += (((), key, f"Additional properties are not allowed ({names} {verb} unexpected)"),)
        else:
            raise NotImplementedError(f"schema keyword {key!r}")
    return found


_LENGTH_RULE = frozenset({"type", "items", "minItems", "maxItems"})
_LISTS = frozenset({list})
_UNWALKED: dict = {}  # id(rule) -> (rule, test); holding the rule keeps its id from being reused


def _unwalked(rule: dict):
    """A test that accepts, by exact types and lengths alone, elements that satisfy ``rule``.

    A bare ``{"type": t}`` accepts an element of an exact type ``_TYPES`` lists
    for ``t``.  An array of such elements, with nothing else but
    ``minItems``/``maxItems``, accepts a list of the right length of them:
    an ``[re, im]`` pair.  An array of such pairs, again with only length
    bounds, accepts a matrix literal's row in C-level passes over it (``map``
    of ``type`` and ``len``, ``chain`` over the entries), with no Python code
    per pair.  The test is False on any element of any other rule, which
    ``_violations`` then walks.  Each rule's test is made once: the schemas
    are constants.
    """
    known = _UNWALKED.get(id(rule))
    if known is None:
        known = _UNWALKED[id(rule)] = rule, _unwalked_test(rule)
    return known[1]


def _unwalked_test(rule: dict):
    if len(rule) == 1:
        types = _TYPES.get(rule.get("type"), frozenset())
        return lambda item: type(item) in types
    lo, hi, items = _bounds(rule)
    if items is None:
        return lambda item: False
    if len(items) == 1:
        types = _TYPES.get(items.get("type"), frozenset())
        return lambda item: type(item) is list and lo <= len(item) <= hi and types.issuperset(map(type, item))
    lo_pair, hi_pair, bare = _bounds(items)
    if bare is None or len(bare) != 1 or hi_pair == math.inf:
        return lambda item: False
    types, widths = _TYPES.get(bare.get("type"), frozenset()), frozenset(range(lo_pair, hi_pair + 1))
    return lambda item: (
        type(item) is list
        and lo <= len(item) <= hi
        and _LISTS.issuperset(map(type, item))
        and widths.issuperset(map(len, item))
        and types.issuperset(map(type, chain.from_iterable(item)))
    )


def _bounds(rule: dict) -> tuple:
    """``(minItems, maxItems, items)`` of an array rule with no other keyword but ``type``;
    ``items`` is None for any other rule."""
    items = rule.get("items")
    if items is None or rule.get("type") != "array" or not rule.keys() <= _LENGTH_RULE:
        return 0, 0, None
    return rule.get("minItems", 0), rule.get("maxItems", math.inf), items


def _under(key, broken: tuple) -> tuple:
    return tuple(((key, *path), keyword, message) for path, keyword, message in broken)


def _raise_best_match(instance, schema: dict, root: str) -> None:
    """Raise the violation ``best_match`` names: the shallowest path, then the last, then
    any keyword over ``anyOf``, then the first found.  Every ``anyOf`` here picks among
    ``required`` lists, whose errors tie, so ``best_match`` names the ``anyOf`` itself."""
    found = _violations(instance, schema)
    if found:
        path, _, message = max(found, key=lambda v: (-len(v[0]), v[0], v[1] != "anyOf"))
        steps = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
        raise ConfigError(f"{root}{steps}: {message}")


def load_config(path) -> dict:
    """Read and validate a config file, with line/column diagnostics on bad JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # too deeply nested, or an over-long integer
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return validate_config(cfg)


def literal_to_matrix(literal):
    """Nested [re, im] rows -> complex numpy matrix.

    The literal becomes one ``(rows, cols, 2)`` float array viewed as complex:
    bit for bit the matrix of ``complex(float(re), float(im))`` entries for the
    ints and floats a valid config holds (numpy, unlike ``float``, would also
    read a ``None`` as NaN; the validator lets no ``None`` through).  Rows of
    two widths, a literal with no entries, or entries that are not ``[re, im]``
    pairs raise ``ShapeError``; an int beyond the float range raises
    ``NonFiniteError``.
    """
    import numpy as np  # here, so validating a config never imports numpy

    widths = [len(row) for row in literal]
    for r, width in enumerate(widths):
        if width != widths[0]:
            raise ShapeError(f"matrix literal row {r} has {width} entries, expected {widths[0]}")
    if not widths or not widths[0]:
        raise ShapeError("matrix literal has no entries")
    try:
        pairs = np.array(literal, dtype=float)
    except OverflowError as exc:
        raise NonFiniteError("matrix literal has an entry beyond the float range") from exc
    except ValueError as exc:  # pairs of two lengths, or a part that is no number
        raise ShapeError(f"matrix literal entries are not [re, im] pairs of numbers: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ShapeError(f"matrix literal entries are not [re, im] pairs: shape {pairs.shape}")
    return pairs.view(complex)[..., 0]


def matrix_to_literal(mat) -> list:
    """Complex matrix -> nested row-major [re, im] pairs: numpy, float and Fraction entries alike.

    A numpy float or complex matrix is written in one pass over a C-ordered
    complex copy; other entries one by one, through ``float``.
    """
    shape = getattr(mat, "shape", None)  # nested rows are taken to be two-dimensional
    if shape is not None and len(shape) != 2:
        raise ShapeError(f"expected a matrix, got shape {shape}")
    if shape is not None and mat.dtype.kind in "fc":
        # astype's C order is what lets the float view pair each entry's parts.
        return mat.astype(complex, order="C").view(float).reshape(*shape, 2).tolist()
    try:
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    except TypeError as exc:  # a row that is a number, not a sequence of them
        raise ShapeError(f"expected a matrix, got rows that are not sequences: {exc}") from exc
