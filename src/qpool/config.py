"""Scenario configuration: JSON schemas, parsing, and matrix literals.

Configs are strict JSON objects ``{"kind": ..., "seed": ..., "payload": ...}``;
unknown fields anywhere are rejected rather than ignored.  Matrix literals
are nested row-major arrays of ``[re, im]`` pairs; probability vectors are
plain arrays of decimals.  The schemas are plain JSON Schema 2020-12 dicts.  An
accept-only walker checks a config on exact types; only a config it is not sure
of imports jsonschema, whose ``Draft202012Validator`` gives verdict and message.
Only the two matrix-literal converters import numpy, so validating a config
never does.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import ConfigError, NonFiniteError, ShapeError

FUSE_FAMILY = "haar-pure-intersection"  # the one measure ``fusion.averaged_fusion`` draws from

_TYPES = {"object": (dict,), "array": (list,), "integer": (int,), "number": (int, float)}
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
    _check_schema(cfg, CONFIG_SCHEMA, root="$")
    payload = cfg.get("payload", {})
    _check_schema(payload, PAYLOAD_SCHEMAS[cfg["kind"]], root="$.payload")
    # The schema cannot demand a finite tol: NaN fails every comparison, so
    # exclusiveMinimum lets it through, and Infinity and integers beyond the
    # float range satisfy it.  All three fail this comparison.
    if "tol" in payload and not payload["tol"] <= sys.float_info.max:
        raise ConfigError(f"$.payload.tol: {payload['tol']!r} is not a finite float")
    for k, step in enumerate(payload.get("steps", ())):  # the schema's anyOf admits both lists
        if "povm" in step and "kraus" in step:
            raise ConfigError(f"$.payload.steps[{k}]: names both 'povm' and 'kraus'")
    return {"kind": cfg["kind"], "seed": int(cfg.get("seed", 0)), "payload": payload}


def _surely_valid(instance, schema: dict) -> bool:
    """True if ``instance`` surely meets ``schema``; False means "not sure", never "invalid"."""
    kind = type(instance)
    for key, rule in schema.items():
        if key == "type":
            ok = kind in _TYPES.get(rule, ())
        elif key == "items":
            bare = len(rule) == 1 and _TYPES.get(rule.get("type"))  # no call per element
            ok = kind is list
            for item in instance if ok else ():
                if not (type(item) in bare if bare else _surely_valid(item, rule)):
                    return False
        elif key == "minItems":
            ok = kind is list and len(instance) >= rule
        elif key == "maxItems":
            ok = kind is list and len(instance) <= rule
        elif key == "minimum":
            ok = kind in _TYPES["number"] and instance >= rule
        elif key == "maximum":
            ok = kind in _TYPES["number"] and instance <= rule
        elif key == "exclusiveMinimum":
            ok = kind in _TYPES["number"] and instance > rule
        elif key == "enum":
            ok = any(type(value) is kind and value == instance for value in rule)
        elif key == "anyOf":
            ok = any(_surely_valid(instance, option) for option in rule)
        elif key == "required":
            ok = kind is dict and all(name in instance for name in rule)
        elif key == "properties":
            ok = kind is dict and all(_surely_valid(v, rule[k]) for k, v in instance.items() if k in rule)
        elif key == "additionalProperties":
            ok = rule is False and kind is dict and instance.keys() <= schema.get("properties", {}).keys()
        else:
            ok = False
        if not ok:
            return False
    return True


def _check_schema(instance, schema: dict, *, root: str) -> None:
    if _surely_valid(instance, schema):
        return
    import jsonschema
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = err.json_path.replace("$", root, 1)
        raise ConfigError(f"{path}: {err.message}")


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
    """Nested [re, im] rows -> complex numpy matrix."""
    import numpy as np  # here, so validating a config never imports numpy

    widths = [len(row) for row in literal]
    for r, width in enumerate(widths):
        if width != widths[0]:
            raise ShapeError(f"matrix literal row {r} has {width} entries, expected {widths[0]}")
    try:
        rows = [[complex(float(re), float(im)) for re, im in row] for row in literal]
    except OverflowError as exc:
        raise NonFiniteError("matrix literal has an entry beyond the float range") from exc
    return np.asarray(rows, dtype=complex)


def matrix_to_literal(mat) -> list:
    """Complex matrix -> nested row-major [re, im] pairs."""
    import numpy as np

    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]
