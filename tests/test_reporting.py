"""Canonical JSON: the recursive writer against the StringIO walker it replaced."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpool.cli import run_scenario
from qpool.config import load_config
from qpool.errors import NonFiniteError, ReportError
from qpool.reporting import canonical_json, render_csv, render_text

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


# The previous writer, kept verbatim as the byte reference.
def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value!r} cannot be serialized")
    text = format(value, ".17g")
    # Normalize negative zero so equal values serialize identically.
    return "0" if text == "-0" else text


def reference_canonical_json(obj) -> str:
    """Serialize to canonical JSON (sorted keys, fixed float formatting)."""
    out = io.StringIO()
    _write(obj, out)
    return out.getvalue()


def _write(obj, out) -> None:
    if obj is None:
        out.write("null")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_format_float(obj))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for k, item in enumerate(obj):
            if k:
                out.write(",")
            _write(item, out)
        out.write("]")
    elif isinstance(obj, dict):
        out.write("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if k:
                out.write(",")
            out.write(json.dumps(key))
            out.write(":")
            _write(obj[key], out)
        out.write("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_TEXT = st.text(
    alphabet=st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\r aZé €\ud800\U0001f600')
    | st.characters(),
    max_size=8,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**100) + 1, max_value=10**100 - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_EDGE_FLOATS)
    | _TEXT
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_TREES)
def test_writer_matches_reference(tree):
    assert canonical_json(tree) == reference_canonical_json(tree)


# Matrix literals: rows of [re, im] pairs, the shape a one-call pair writer sees.
_PAIR_PARTS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
    | st.integers(min_value=-(10**20), max_value=10**20)
    | st.booleans()
    | st.sampled_from(_EDGE_FLOATS + [1.797e308, -1.797e308])
)
_PAIRS = st.tuples(_PAIR_PARTS, _PAIR_PARTS).map(list) | st.tuples(_PAIR_PARTS, _PAIR_PARTS)
# Pairs of exact finite floats only, the literals the one-call literal writer takes.
_FLOAT_PAIRS = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS),
                        min_size=2, max_size=2)


def _shaped(pairs):
    """Square and rectangular literals up to 16 x 16, and ragged ones."""
    def rectangle(shape):
        return st.lists(st.lists(pairs, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0])

    sides = st.integers(1, 16)
    return (
        sides.map(lambda n: (n, n)).flatmap(rectangle)
        | st.tuples(sides, sides).flatmap(rectangle)
        | st.lists(st.lists(pairs, min_size=1, max_size=16), min_size=1, max_size=16)
    )


_LITERALS = _shaped(_PAIRS) | _shaped(_FLOAT_PAIRS)
# What a pair's place, or a part's, can hold that the literal writer must leave to the recursion.
_MISFIT_PAIRS = st.sampled_from([(1.0,), (1.0, 2.0, 3.0), [1.0], [0.5, 0.5, 0.5], {"re": 1.0}, {}, None, "x",
                                 [[1.0, 0.0]], (0.5, 0.5)])
_MISFIT_PARTS = st.sampled_from([0, 1, -1, True, False, 10**20, np.float64(0.5), np.float64(-0.0), None, "0.5"])


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_LITERALS, max_size=3) | st.dictionaries(_TEXT, _LITERALS, max_size=3))
def test_pair_writer_matches_reference(tree):
    assert canonical_json(tree) == reference_canonical_json(tree)


@settings(derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_shaped(_FLOAT_PAIRS), _MISFIT_PAIRS | _MISFIT_PARTS.map(lambda part: [0.25, part]), st.data())
def test_literal_holding_a_misfit_matches_reference(literal, misfit, data):
    row = data.draw(st.integers(0, len(literal) - 1))
    literal[row][data.draw(st.integers(0, len(literal[row]) - 1))] = misfit
    assert canonical_json({"state": literal}) == reference_canonical_json({"state": literal})


@settings(derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _LITERALS,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("-inf")]),
    st.booleans(),
    st.data(),
)
def test_pair_holding_a_non_finite_part_raises_named_error(literal, bad, in_re, data):
    row = data.draw(st.integers(0, len(literal) - 1))
    col = data.draw(st.integers(0, len(literal[row]) - 1))
    re, im = literal[row][col]
    literal[row][col] = [bad, im] if in_re else [re, bad]
    with pytest.raises(NonFiniteError):
        canonical_json({"state": literal})


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_report_matches_reference(path):
    report = run_scenario(load_config(path))
    assert canonical_json(report) == reference_canonical_json(report)


def test_negative_zero_is_written_as_zero():
    assert canonical_json([-0.0, np.float64(-0.0), {"x": -0.0}]) == '[0,0,{"x":0}]'
    literal = [[[-0.0, -1e-10], [0.5, -0.0]], [[-0.0, -0.0], [-20.0, 1e-05]]]
    assert canonical_json(literal) == "[[[0,-1e-10],[0.5,0]],[[0,0],[-20,1.0000000000000001e-05]]]"
    assert render_csv({"outputs": {"x": -0.0}}) == "key,i,j,re,im\nx,,,0,0\n"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_non_finite_float_raises_named_error(bad):
    with pytest.raises(NonFiniteError):
        canonical_json({"outputs": [1.0, {"x": bad}]})
    with pytest.raises(NonFiniteError):
        render_csv({"outputs": {"x": bad}})


@pytest.mark.parametrize("obj", [{1: 0.5}, {"a": {2: None}}, {None: 1}, {1.5: 0}])
def test_non_string_key_raises_type_error(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


@pytest.mark.parametrize("obj", [{1, 2}, np.int64(3), np.array([1.0]), b"x", 1j, object()])
def test_other_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        canonical_json([obj])


@pytest.mark.parametrize("obj", [{1: 0.5}, {"a": 1, 2: 0}, [np.array([1.0])]])
def test_unwritable_reports_raise_report_error(obj):
    with pytest.raises(ReportError):
        canonical_json(obj)


def test_text_report_is_the_same_for_every_wall_clock():
    report = run_scenario({"kind": "reproduce-paper"})
    texts = {render_text({**report, "wall_clock_s": seconds}) for seconds in (0.001, 0.002)}
    assert len(texts) == 1
