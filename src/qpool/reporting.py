"""Deterministic report serialization: canonical JSON, text, and CSV.

Canonical JSON sorts object keys and renders every float with 17 significant
digits, so equal report objects always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError, NonFiniteError, ReportError


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite value {value!r} cannot be serialized")
    # Adding +0.0 turns -0.0 into 0.0, so equal values serialize identically.
    return format(value + 0.0, ".17g")


def canonical_json(obj) -> str:
    """Serialize to canonical JSON (sorted keys, fixed float formatting).

    Floats go through ``_format_float``; ``None``, bools, ints, strings and
    keys through ``json.dumps``.  A non-string key or any other type raises
    ``ReportError``, which is a ``TypeError``.  A matrix literal's ``[re, im]``
    pair of finite exact floats is written by one format call, to the same
    bytes.
    """
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 2:
            re, im = obj
            if type(re) is float and type(im) is float and math.isfinite(re) and math.isfinite(im):
                return "[%.17g,%.17g]" % (re + 0.0, im + 0.0)
        return "[" + ",".join(map(canonical_json, obj)) + "]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise ReportError(f"report keys must be strings, got {list(obj)!r}")
        keys = sorted(obj)
        return "{" + ",".join([json.dumps(k) + ":" + canonical_json(obj[k]) for k in keys]) + "}"
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    raise ReportError(f"cannot serialize {type(obj).__name__} canonically")


def _is_matrix_literal(value) -> bool:
    return (
        isinstance(value, list)
        and value
        and all(
            isinstance(row, list)
            and row
            and all(isinstance(e, list) and len(e) == 2 for e in row)
            for row in value
        )
    )


def _format_entry(pair) -> str:
    re, im = float(pair[0]), float(pair[1])
    if im == 0.0:
        return f"{re:+.6f}"
    return f"{re:+.6f}{im:+.6f}j"


def _render_value(key: str, value, lines: list, indent: str = "  ") -> None:
    if _is_matrix_literal(value):
        lines.append(f"{indent}{key}:")
        for row in value:
            lines.append(f"{indent}  [" + "  ".join(_format_entry(e) for e in row) + "]")
    elif isinstance(value, dict):
        lines.append(f"{indent}{key}:")
        for sub in sorted(value):
            _render_value(sub, value[sub], lines, indent + "  ")
    elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        lines.append(f"{indent}{key}:")
        for k, item in enumerate(value):
            _render_value(str(k), item, lines, indent + "  ")
    else:
        lines.append(f"{indent}{key}: {_scalar_text(value)}")


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    return str(value)


def _render_audit_table(entries: list, lines: list) -> None:
    header = ("quantity", "parameters", "PUBLISHED", "COMPUTED", "SYMMETRY", "match")
    rows = [header]
    for e in entries:
        rows.append(
            (
                str(e.get("quantity", "")),
                str(e.get("parameters", "")),
                str(e.get("published") or "-"),
                str(e.get("computed_exact", "")),
                str(e.get("symmetry_prediction") or "-"),
                {True: "yes", False: "NO", None: "-"}[e.get("matches_published")],
            )
        )
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines.append("  PUBLISHED vs COMPUTED")
    for r, row in enumerate(rows):
        lines.append("  " + "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if r == 0:
            lines.append("  " + "  ".join("-" * w for w in widths))


def render_text(report: dict) -> str:
    """Human-readable rendering of a run report, the same bytes on every run.

    ``wall_clock_s`` is left out; the JSON report carries it.
    """
    lines = [f"qpool report: {report.get('kind', '?')}", f"seed: {report.get('seed')}"]
    if "error" in report:
        lines.append(f"error: {report['error']['name']}: {report['error']['message']}")
    outputs = report.get("outputs", {})
    if outputs:
        lines.append("outputs:")
        audit_entries = outputs.get("entries")
        if isinstance(audit_entries, list) and all(isinstance(e, dict) for e in audit_entries):
            _render_audit_table(audit_entries, lines)
            for key in sorted(outputs):
                if key != "entries":
                    _render_value(key, outputs[key], lines)
        else:
            for key in sorted(outputs):
                _render_value(key, outputs[key], lines)
    provenance = report.get("provenance", [])
    if provenance:
        lines.append("provenance:")
        lines.extend(f"  - {note}" for note in provenance)
    return "\n".join(lines) + "\n"


def _csv_number(value) -> str:
    """An int as canonical JSON writes it, whatever its size; anything else through ``_format_float``."""
    return str(int(value)) if isinstance(value, int) else _format_float(float(value))


def render_csv(report: dict) -> str:
    """Flatten every numeric leaf of the outputs to key,i,j,re,im rows; a failure adds ``error.<name>``."""
    rows = ["key,i,j,re,im"]

    def emit(key: str, value) -> None:
        if isinstance(value, (int, float)):
            rows.append(f"{key},,,{_csv_number(value)},0")
        elif _is_matrix_literal(value):
            for i, row in enumerate(value):
                for j, (re, im) in enumerate(row):
                    rows.append(f"{key},{i},{j},{_csv_number(re)},{_csv_number(im)}")
        elif isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
            for i, v in enumerate(value):
                rows.append(f"{key},{i},,{_csv_number(v)},0")
        elif isinstance(value, dict):
            for sub in sorted(value):
                emit(f"{key}.{sub}", value[sub])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                emit(f"{key}.{i}", v)
        # strings and nulls carry no numeric payload

    for key in sorted(report.get("outputs", {})):
        emit(key, report["outputs"][key])
    if "error" in report:
        rows.append(f"error.{report['error']['name']},,,,")
    return "\n".join(rows) + "\n"


def emit_report(report: dict, fmt: str = "json") -> bytes:
    """Serialize a report; identical reports produce identical bytes.

    Every format first writes the report as canonical JSON, so a report that
    canonical JSON refuses (``NonFiniteError``, ``ReportError``) is refused
    in text and CSV too.
    """
    if fmt not in ("json", "text", "csv"):
        raise ConfigError(f"unknown format {fmt!r} (expected json, text, or csv)")
    canonical = canonical_json(report)
    if fmt == "text":
        return render_text(report).encode()
    if fmt == "csv":
        return render_csv(report).encode()
    return canonical.encode()
