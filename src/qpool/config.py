"""Scenario configuration: JSON schemas, parsing, and matrix literals.

Configs are strict JSON objects ``{"kind": ..., "seed": ..., "payload": ...}``;
unknown fields anywhere are rejected rather than ignored.  Matrix literals
are nested row-major arrays of ``[re, im]`` pairs; probability vectors are
plain arrays of decimals.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from .errors import ConfigError, ShapeError
from .fusion import DEFAULT_FAMILY

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
"""The schema of a matrix literal.

Descending it runs jsonschema's keyword machinery on every row, pair and
number, tens of microseconds per matrix entry.  So the payload schemas wrap
it as ``{"matrixLiteral": _MATRIX}``: the keyword accepts a literal in one
plain-Python pass when it is a non-empty list of non-empty rows of
``[re, im]`` pairs of ``int`` or ``float`` (never ``bool``), and only a
literal that pass rejects descends ``_MATRIX``.  The pass accepts nothing
the schema rejects, so every verdict, and every error path and message, is
the schema's own.
"""
_NUMBER_TYPES = (int, float)


def _is_literal(instance) -> bool:
    """The one-pass check: every ``[re, im]`` pair exactly two ``int``/``float``."""
    return (
        type(instance) is list
        and len(instance) > 0
        and all(
            type(row) is list
            and len(row) > 0
            and all(
                type(pair) is list
                and len(pair) == 2
                and type(pair[0]) in _NUMBER_TYPES
                and type(pair[1]) in _NUMBER_TYPES
                for pair in row
            )
            for row in instance
        )
    )


def _matrix_literal(validator, schema, instance, _):
    if not _is_literal(instance):
        yield from validator.descend(instance, schema)


_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"matrixLiteral": _matrix_literal}
)
_LITERAL = {"matrixLiteral": _MATRIX}
_PROBS = {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}}
_EFFECTS = {
    "type": "array",
    "items": {"type": "number", "minimum": 0, "maximum": 1},
}
_STEP = {
    "type": "object",
    "properties": {
        "owner": {"enum": ["alice", "bob", "eve"]},
        "povm": {"type": "array", "minItems": 1, "items": _LITERAL},
        "kraus": {"type": "array", "minItems": 1, "items": _LITERAL},
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
            "rho_a": _LITERAL,
            "rho_b": _LITERAL,
            "tol": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["rho_a", "rho_b"],
        "additionalProperties": False,
    },
    "realize": {
        "type": "object",
        "properties": {
            "rho_a": _LITERAL,
            "rho_b": _LITERAL,
            "sigma": _LITERAL,
            "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "beta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "required": ["rho_a", "rho_b", "sigma"],
        "additionalProperties": False,
    },
    "ambiguity": {
        "type": "object",
        "properties": {
            "rho_a": _LITERAL,
            "rho_b": _LITERAL,
            "sigma_1": _LITERAL,
            "sigma_2": _LITERAL,
        },
        "required": ["rho_a", "rho_b", "sigma_1", "sigma_2"],
        "additionalProperties": False,
    },
    "fuse": {
        "type": "object",
        "properties": {
            "rho_a": _LITERAL,
            "rho_b": _LITERAL,
            "n_samples": {"type": "integer", "minimum": 1},
            "family": {"enum": [DEFAULT_FAMILY]},
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
            "mc_samples": {"type": "integer", "minimum": 1},
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

_CONFIG_VALIDATOR = _Validator(CONFIG_SCHEMA)
_PAYLOAD_VALIDATORS = {kind: _Validator(schema) for kind, schema in PAYLOAD_SCHEMAS.items()}


def validate_config(cfg: dict) -> dict:
    """Validate a scenario config against the strict schema.

    Returns a normalized copy with explicit ``seed`` and ``payload`` fields.
    Raises :class:`ConfigError` carrying a field-path diagnostic.
    """
    _check_schema(cfg, _CONFIG_VALIDATOR, root="$")
    payload = cfg.get("payload", {})
    _check_schema(payload, _PAYLOAD_VALIDATORS[cfg["kind"]], root="$.payload")
    # The schema cannot demand a finite tol: NaN fails every comparison, so
    # exclusiveMinimum lets it through, and Infinity satisfies it.
    if "tol" in payload and not math.isfinite(payload["tol"]):
        raise ConfigError(f"$.payload.tol: {payload['tol']!r} is not a finite number")
    return {"kind": cfg["kind"], "seed": int(cfg.get("seed", 0)), "payload": payload}


def _check_schema(instance, validator, *, root: str) -> None:
    errors = sorted(validator.iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        path = err.json_path.replace("$", root, 1)
        raise ConfigError(f"{path}: {err.message}")


def load_config(path) -> dict:
    """Read and validate a config file, with line/column diagnostics on bad JSON."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return validate_config(cfg)


def literal_to_matrix(literal) -> np.ndarray:
    """Nested [re, im] rows -> complex matrix."""
    rows = []
    width = None
    for r, row in enumerate(literal):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ShapeError(f"matrix literal row {r} has {len(row)} entries, expected {width}")
        rows.append([complex(float(re), float(im)) for re, im in row])
    return np.asarray(rows, dtype=complex)


def matrix_to_literal(mat) -> list:
    """Complex matrix -> nested row-major [re, im] pairs."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {arr.shape}")
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]
