import copy
import importlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import random_kraus_povm
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import qpool
from qpool import errors, measurement
from qpool.cli import _KINDS, _build_history, _exit_code, main, run_scenario
from qpool.config import (
    _MATRIX,
    literal_to_matrix,
    load_config,
    matrix_to_literal,
    validate_config,
)
from qpool.errors import ConfigError
from qpool.estimation import polynomial_predictive, qubit_diagonal_posterior
from qpool.reporting import canonical_json, emit_report, render_csv, render_text

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))

EYE2 = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
TRACE_09 = [[[0.45, 0], [0, 0]], [[0, 0], [0.45, 0]]]
NAN_ENTRY = [[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, 0]]]
PROJ0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
PROJ1 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
PROJ_PLUS = [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]


class TestMatrixLiterals:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_array_equal(literal_to_matrix(matrix_to_literal(mat)), mat)

    def test_ragged_rejected(self):
        with pytest.raises(Exception):
            literal_to_matrix([[[1, 0], [0, 0]], [[0, 0]]])


class TestValidateConfig:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_config(
                {"kind": "pool-classical", "bogus": 1, "payload": {"p": [1.0], "q": [1.0]}}
            )

    def test_unknown_payload_field(self):
        with pytest.raises(ConfigError, match="payload"):
            validate_config(
                {"kind": "pool-classical", "payload": {"p": [1.0], "q": [1.0], "extra": 2}}
            )

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "nonsense", "payload": {}})

    def test_missing_required_payload_field(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "consistency", "payload": {"rho_a": EYE2}})

    def test_defaults_filled(self):
        cfg = validate_config({"kind": "reproduce-paper"})
        assert cfg == {"kind": "reproduce-paper", "seed": 0, "payload": {}}

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "history",\n  "seed": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)


def _with_entry(value, row=0, col=1):
    literal = copy.deepcopy(EYE2)
    literal[row][col] = value
    return literal


VALID_LITERALS = {
    "eye": EYE2,
    "ints": PROJ0,
    "one_by_one": [[[1, 0]]],
    "rectangular": [[[0.5, 0], [0, -0.25], [1e-300, 2]]],
    "float_subclass": [[[np.float64(1.0), np.float64(-0.0)]]],
}
# Each replaces one part of a valid literal.  `true` is a JSON number to a
# check written as isinstance(x, (int, float)), but not to the schema.
INVALID_LITERALS = {
    "string_entry": _with_entry(["0.5", 0]),
    "true_entry": _with_entry([True, 0]),
    "null_entry": _with_entry([0, None]),
    "short_pair": _with_entry([0.5]),
    "long_pair": _with_entry([0.5, 0, 0]),
    "empty_row": [EYE2[0], []],
    "empty_matrix": [],
    "not_a_list": {"re": 0.5, "im": 0},
    "pair_too_deep": _with_entry([[0.5, 0], [0, 0]]),
}
# Where a literal sits in a config, and the config around it.
LITERAL_SITES = {
    "$.payload.rho_a": lambda lit: {"kind": "consistency", "payload": {"rho_a": lit, "rho_b": EYE2}},
    "$.payload.steps[0].kraus[1]": lambda lit: {
        "kind": "history",
        "payload": {"steps": [{"owner": "bob", "kraus": [EYE2, lit]}]},
    },
}


def _schema_verdict(literal, site):
    """The ConfigError message of a plain validator on the matrix schema, or None."""
    errors = sorted(
        Draft202012Validator(_MATRIX).iter_errors(literal), key=lambda e: list(e.absolute_path)
    )
    if not errors:
        return None
    err = best_match(errors)
    return site + err.json_path[1:] + ": " + err.message


@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
@pytest.mark.parametrize("case", sorted(VALID_LITERALS))
def test_valid_literal_accepted_as_by_schema(case, site):
    literal = VALID_LITERALS[case]
    assert _schema_verdict(literal, site) is None
    validate_config(LITERAL_SITES[site](literal))


@pytest.mark.parametrize("site", sorted(LITERAL_SITES))
@pytest.mark.parametrize("case", sorted(INVALID_LITERALS))
def test_invalid_literal_rejected_as_by_schema(case, site):
    literal = INVALID_LITERALS[case]
    expected = _schema_verdict(literal, site)
    assert expected is not None
    with pytest.raises(ConfigError) as info:
        validate_config(LITERAL_SITES[site](literal))
    assert str(info.value) == expected


class TestRunScenario:
    def test_pool_classical(self):
        report = run_scenario(
            {"kind": "pool-classical", "payload": {"p": [0.5, 0.5], "q": [1 / 3, 2 / 3]}}
        )
        np.testing.assert_allclose(report["outputs"]["result"], [1 / 3, 2 / 3], atol=1e-12)

    def test_ambiguity_distance(self):
        report = run_scenario(
            {
                "kind": "ambiguity",
                "payload": {
                    "rho_a": EYE2,
                    "rho_b": EYE2,
                    "sigma_1": PROJ0,
                    "sigma_2": PROJ_PLUS,
                },
            }
        )
        assert report["outputs"]["trace_distance"] == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_history_conditional_state(self):
        z_povm = [PROJ0, PROJ1]
        report = run_scenario(
            {
                "kind": "history",
                "payload": {"steps": [{"owner": "alice", "povm": z_povm}], "known": {"i": 0}},
            }
        )
        out = report["outputs"]
        assert (out["i_max"], out["j_max"], out["e_max"]) == (2, 1, 1)
        assert out["probability"] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(literal_to_matrix(out["state"]), literal_to_matrix(PROJ0), atol=1e-12)

    def test_reproduce_paper_outputs_audit(self):
        report = run_scenario({"kind": "reproduce-paper"})
        entries = report["outputs"]["entries"]
        mismatch = [e for e in entries if e["matches_published"] is False]
        assert len(mismatch) == 1 and mismatch[0]["quantity"] == "sigma_prime"
        assert report["outputs"]["symmetry_note"]

    def test_estimate_exact_and_mc(self):
        report = run_scenario(
            {
                "kind": "estimate",
                "seed": 3,
                "payload": {"effects_a": [0.75], "mc_samples": 50_000},
            }
        )
        exact = literal_to_matrix(report["outputs"]["predictive_a"])
        # Closed form diag((alpha+1)/3, (2-alpha)/3) at alpha = 3/4.
        np.testing.assert_allclose(exact, np.diag([7 / 12, 5 / 12]), atol=1e-12)
        mc = literal_to_matrix(report["outputs"]["mc_predictive_a"])
        np.testing.assert_allclose(mc, exact, atol=2e-2)


class TestEmitReport:
    def test_json_bytes_are_stable(self):
        report = run_scenario({"kind": "consistency", "payload": {"rho_a": EYE2, "rho_b": PROJ_PLUS}})
        assert emit_report(report, "json") == emit_report(report, "json")

    def test_outputs_deterministic_across_runs(self):
        cfg = {
            "kind": "fuse",
            "seed": 5,
            "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 2000},
        }
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert canonical_json(first["outputs"]) == canonical_json(second["outputs"])

    def test_csv_table_layout(self):
        report = run_scenario(
            {
                "kind": "realize",
                "payload": {"rho_a": EYE2, "rho_b": EYE2, "sigma": PROJ0, "alpha": 0.5, "beta": 0.5},
            }
        )
        lines = render_csv(report).strip().splitlines()
        assert lines[0] == "key,i,j,re,im"
        prob_rows = [l for l in lines if l.startswith("outcome_probs,")]
        assert len(prob_rows) == 1  # one row per outcome

    def test_text_audit_has_comparison_table(self):
        text = render_text(run_scenario({"kind": "reproduce-paper"}))
        assert "PUBLISHED vs COMPUTED" in text
        assert "NO" in text  # the non-reproducible pooled state is flagged

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report({}, "yaml")


class TestShippedConfigs:
    def test_all_kinds_are_covered(self):
        kinds = {json.loads(p.read_text())["kind"] for p in SHIPPED}
        assert kinds == {
            "pool-classical",
            "history",
            "consistency",
            "realize",
            "ambiguity",
            "fuse",
            "estimate",
            "reproduce-paper",
        }

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_round_trip_and_runtime(self, path):
        import time

        cfg = load_config(path)
        assert json.loads(canonical_json(cfg)) == cfg
        start = time.perf_counter()
        report = run_scenario(cfg)
        assert time.perf_counter() - start < 60.0
        assert "outputs" in report and report["kind"] == cfg["kind"]


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"kind": "pool-classical", "payload": {"p": [0.5, 0.5], "q": [0.5, 0.5]}})
        )
        out_file = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["outputs"]["result"] == [0.5, 0.5]

    def test_validate_success_and_failure(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"kind": "reproduce-paper"}))
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "reproduce-paper", "mystery": True}))
        assert main(["validate", str(bad)]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_numerical_failure_exits_two_with_named_error(self, tmp_path, capsys):
        path = tmp_path / "impossible.json"
        path.write_text(
            json.dumps({"kind": "pool-classical", "payload": {"p": [1.0, 0.0], "q": [0.0, 1.0]}})
        )
        out_file = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out_file)]) == 2
        report = json.loads(out_file.read_text())
        assert report["error"]["name"] == "IncompatibleKnowledgeError"

    def test_candidate_of_another_dimension_exits_two_naming_shape_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "ambiguity.json").read_text())
        cfg["payload"]["sigma_1"] = [[[1 / 3 if r == c else 0, 0] for c in range(3)] for r in range(3)]
        path = tmp_path / "ambiguity-3x3.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["name"] == "ShapeError"
        assert "error: ShapeError: shapes differ" in captured.err

    def test_unserializable_report_exits_two_naming_the_error(self, tmp_path, capsys, monkeypatch):
        def nan_outputs(payload, seed):
            return {"result": [float("nan")]}, []

        monkeypatch.setitem(_KINDS, "pool-classical", (nan_outputs, ("classical",)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "pool-classical", "payload": {"p": [1.0], "q": [1.0]}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["name"] == "NonFiniteError"
        assert captured.err.startswith("error: NonFiniteError:")

    @pytest.mark.parametrize("outputs", [{1: 0.5}, {"x": np.array([1.0])}], ids=["int_key", "ndarray"])
    def test_report_canonical_json_cannot_write_exits_two(self, outputs, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(_KINDS, "pool-classical", (lambda payload, seed: (outputs, []), ("classical",)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "pool-classical", "payload": {"p": [1.0], "q": [1.0]}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["name"] == "ReportError"
        assert captured.err.startswith("error: ReportError:")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    @pytest.mark.parametrize(
        "outputs",
        [{"x": np.array([1.0, 2.0]), "y": float("nan")}, {"x": 0.5, 1: 0.5}],
        ids=["ndarray_and_nan", "mixed_keys"],
    )
    def test_every_format_gives_a_report_one_verdict(self, outputs, fmt, tmp_path, capsys, monkeypatch):
        # Text and CSV would print the array and the NaN, or end in the sort's TypeError.
        monkeypatch.setitem(_KINDS, "pool-classical", (lambda payload, seed: (outputs, []), ("classical",)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "pool-classical", "payload": {"p": [1.0], "q": [1.0]}}))
        assert main(["run", "--format", fmt, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ReportError:")
        named = {
            "json": lambda out: json.loads(out)["error"]["name"] == "ReportError",
            "text": lambda out: "\nerror: ReportError: " in out,
            "csv": lambda out: out.endswith("\nerror.ReportError,,,,\n"),
        }
        assert named[fmt](captured.out)

    def test_reproduce_paper_command(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["reproduce-paper", "--out", str(out_file)]) == 0
        assert "PUBLISHED vs COMPUTED" in capsys.readouterr().out
        audit = json.loads(out_file.read_text())
        assert any(e["matches_published"] is False for e in audit["outputs"]["entries"])

    @pytest.mark.parametrize("command", [["run", str(CONFIG_DIR / "consistency.json")], ["reproduce-paper"]])
    def test_unwritable_out_exits_one_naming_the_path(self, command, tmp_path, capsys):
        target = tmp_path / "regular-file" / "report.json"
        target.parent.write_text("")
        assert main([*command, "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write {target}: ")

    def test_out_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QPOOL_OUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "reproduce-paper"}))
        assert main(["run", str(cfg), "--out", "nested/report.json"]) == 0
        assert (tmp_path / "nested" / "report.json").exists()

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "fuse.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "fuse",
                    "seed": 1,
                    "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 500},
                }
            )
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["run", str(cfg), "--seed", "9", "--out", str(out_a)]) == 0
        assert main(["run", str(cfg), "--seed", "9", "--out", str(out_b)]) == 0
        assert out_a.read_bytes()[:200] == out_b.read_bytes()[:200]
        report = json.loads(out_a.read_text())
        assert report["seed"] == 9


def _two_propagation_outputs(payload: dict) -> dict:
    """History outputs with the probability and the state each from a propagation of its own."""
    history = _build_history(payload["steps"])
    known = payload.get("known", {})
    return {
        "i_max": history.i_max,
        "j_max": history.j_max,
        "e_max": history.e_max,
        "completeness_residual": history.completeness_residual(),
        "probability": measurement.outcome_probability(history, known),
        "state": matrix_to_literal(measurement.conditional_state(history, known)),
    }


def _random_history_payload(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    owners = [("alice", "bob", "eve")[int(k)] for k in rng.integers(0, 3, rng.integers(1, 5))]
    steps = []
    for owner in owners:
        ops = random_kraus_povm(rng, dim, 2, hermitian=False).ops
        steps.append({"owner": owner, "kraus": [matrix_to_literal(m) for m in ops]})
    i = int(rng.integers(2 ** owners.count("alice")))
    j = int(rng.integers(2 ** owners.count("bob")))
    return {"steps": steps, "known": {"i": i, "j": j}}


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
def test_history_propagates_once(monkeypatch, seed):
    # None is the shipped history config; the others are random Kraus histories.
    if seed is None:
        payload = load_config(CONFIG_DIR / "history.json")["payload"]
    else:
        payload = _random_history_payload(seed)
    want = canonical_json(_two_propagation_outputs(payload))
    calls = []
    propagate = measurement._propagate
    monkeypatch.setattr(measurement, "_propagate", lambda *args: calls.append(args) or propagate(*args))
    outputs = run_scenario({"kind": "history", "payload": payload})["outputs"]
    assert len(calls) == 1
    assert canonical_json(outputs) == want


def test_thirty_step_qubit_history_runs_in_bounded_memory(tmp_path, capsys):
    # 2**30 joint outcomes: the flattened family would need 64 GiB, while
    # propagating the state step by step needs a few qubit matrices.
    rng = np.random.default_rng(30)
    owners = [("alice", "bob", "eve")[k % 3] for k in range(30)]
    families = []
    for _ in owners:
        g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        vals, vecs = np.linalg.eigh(sum(m.conj().T @ m for m in g))
        families.append([m @ (vecs / np.sqrt(vals)) @ vecs.conj().T for m in g])
    known = {"i": int(rng.integers(2**10)), "j": int(rng.integers(2**10))}
    steps = [
        {"owner": owner, "kraus": [matrix_to_literal(m) for m in family]}
        for owner, family in zip(owners, families)
    ]
    path = tmp_path / "history30.json"
    path.write_text(json.dumps({"kind": "history", "payload": {"steps": steps, "known": known}}))

    tracemalloc.start()
    try:
        code = main(["run", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20

    # Replay the Kraus steps by hand: Alice's and Bob's known indices give one
    # binary digit per step of theirs, earliest step most significant.
    digits = {}
    for key, owner in (("i", "alice"), ("j", "bob")):
        mine = [k for k, o in enumerate(owners) if o == owner]
        for place, k in enumerate(reversed(mine)):
            digits[k] = (known[key] >> place) & 1
    rho = np.eye(2, dtype=complex) / 2
    for k, family in enumerate(families):
        chosen = [family[digits[k]]] if k in digits else family
        rho = sum(m @ rho @ m.conj().T for m in chosen)
    prob = float(np.trace(rho).real)
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert (out["i_max"], out["j_max"], out["e_max"]) == (2**10, 2**10, 2**10)
    assert out["probability"] == pytest.approx(prob, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(literal_to_matrix(out["state"]), rho / prob, rtol=0.0, atol=1e-12)


def _history(step, known=None):
    payload = {"steps": [dict(owner="alice", **step)]}
    if known is not None:
        payload["known"] = known
    return {"kind": "history", "payload": payload}


SAMPLE_COUNT_SITES = (
    ("fuse", "n_samples", {"rho_a": EYE2, "rho_b": EYE2}),
    ("estimate", "mc_samples", {"effects_a": [0.75]}),
)

# Invalid inputs.  Config validation rejects the unknown family and a non-finite
# tol (exit 1, naming the field); the others pass it and must leave through a
# failure report that names the error (exit 2).  The fuse exponents beyond the
# float range once failed so too; the closed form gives their limit (exit 0).
INVALID_INPUTS = {
    "realize_trace_not_one": (
        {"kind": "realize", "payload": {"rho_a": TRACE_09, "rho_b": EYE2, "sigma": PROJ0}},
        2,
        "NotNormalizedError",
    ),
    "kraus_incomplete": (_history({"kraus": [EYE2]}), 2, "IncompleteMeasurementError"),
    "povm_incomplete": (_history({"povm": [PROJ0, EYE2]}), 2, "IncompleteMeasurementError"),
    "nan_entry": (
        {"kind": "consistency", "payload": {"rho_a": NAN_ENTRY, "rho_b": EYE2}},
        2,
        "NonFiniteError",
    ),
    "known_out_of_range": (
        _history({"povm": [PROJ0, PROJ1]}, known={"i": 5}),
        2,
        "ImpossibleOutcomeError",
    ),
    "probabilities_not_normalized": (
        {"kind": "pool-classical", "payload": {"p": [0.5, 0.6], "q": [0.5, 0.5]}},
        2,
        "NotNormalizedError",
    ),
    "probability_nan": (
        {"kind": "pool-classical", "payload": {"p": [float("nan"), 1.0], "q": [0.5, 0.5]}},
        2,
        "NonFiniteError",
    ),
    "realize_sigma_outside_support": (
        {"kind": "realize", "payload": {"rho_a": PROJ0, "rho_b": EYE2, "sigma": PROJ1}},
        2,
        "AmbiguityPreconditionError",
    ),
    "fuse_unknown_family": (
        {"kind": "fuse", "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 10, "family": "x"}},
        1,
        "$.payload.family",
    ),
    "consistency_tol_nan": (
        {"kind": "consistency", "payload": {"rho_a": EYE2, "rho_b": EYE2, "tol": float("nan")}},
        1,
        "$.payload.tol",
    ),
    "consistency_tol_infinity": (
        {"kind": "consistency", "payload": {"rho_a": EYE2, "rho_b": EYE2, "tol": float("inf")}},
        1,
        "$.payload.tol",
    ),
    **{
        f"realize_{weight}_{value!r}": (
            {
                "kind": "realize",
                "payload": {"rho_a": EYE2, "rho_b": EYE2, "sigma": PROJ0, weight: value},
            },
            2,
            "DegenerateConstructionError",
        )
        # sqrt(p / weight) overflows: the schema's exclusiveMinimum admits subnormals.
        for weight in ("alpha", "beta")
        for value in (1e-310, 5e-324)
    },
    # Sample counts are capped, so an integer-valued float such as 1e15 cannot
    # ask for more memory than a host has.
    **{
        f"{field}_{value!r}": (
            {"kind": kind, "payload": {**payload, field: value}},
            1,
            f"$.payload.{field}",
        )
        for kind, field, payload in SAMPLE_COUNT_SITES
        for value in (1e15, 10**15, 1_000_001)
    },
    "fuse_weights_underflow": (
        {
            "kind": "fuse",
            "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 10, "weight_exponent": 1e308},
        },
        0,
        None,
    ),
    # A JSON integer beyond the float range gets what its infinite counterpart gets.
    "entry_beyond_float_range": (
        {"kind": "consistency", "payload": {"rho_a": _with_entry([10**400, 0]), "rho_b": EYE2}},
        2,
        "NonFiniteError",
    ),
    "probability_beyond_float_range": (
        {"kind": "pool-classical", "payload": {"p": [10**400, 1.0], "q": [0.5, 0.5]}},
        2,
        "NonFiniteError",
    ),
    "consistency_tol_beyond_float_range": (
        {"kind": "consistency", "payload": {"rho_a": EYE2, "rho_b": EYE2, "tol": 10**400}},
        1,
        "$.payload.tol",
    ),
    "fuse_weight_exponent_beyond_float_range": (
        {
            "kind": "fuse",
            "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 10, "weight_exponent": 10**400},
        },
        0,
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_exits_with_named_error(case, tmp_path, capsys):
    cfg, code, error = INVALID_INPUTS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # writes NaN as Python's json module does
    out_file = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out_file)]) == code
    err = capsys.readouterr().err
    if code == 0:  # the maximally mixed pair's one run of equal m: I/2 at every exponent
        fused = json.loads(out_file.read_text())["outputs"]["fused"]
        assert err == "" and fused == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    elif code == 1:
        assert err.startswith(f"config error: {error}:") and not out_file.exists()
    else:
        assert json.loads(out_file.read_text())["error"]["name"] == error
        assert err.startswith(f"error: {error}:")


def _diag(*entries) -> list:
    """A matrix literal with the given real diagonal."""
    return [[[x if i == j else 0, 0] for j in range(len(entries))] for i, x in enumerate(entries)]


def _kraus_step(*ops) -> dict:
    return {"kind": "history", "payload": {"steps": [{"owner": "alice", "kraus": list(ops)}]}}


# Finite entries near the float limit: (config, error, start of its message).
NEAR_FLOAT_LIMIT = {
    "effect_entry": (
        {"kind": "history", "payload": {"steps": [{"owner": "alice", "povm": [_diag(1e308, 0), _diag(0, 1)]}]}},
        "InvalidEffectError",
        "effect 0 has eigenvalue 1e+308 > 1",
    ),
    "state_trace": (
        {
            "kind": "ambiguity",
            "payload": {"rho_a": _diag(0.5, 1e308), "rho_b": EYE2, "sigma_1": PROJ0, "sigma_2": PROJ_PLUS},
        },
        "NotNormalizedError",
        "rho_a trace = 1e+308,",
    ),
    "state_trace_overflow": (
        {"kind": "fuse", "payload": {"rho_a": _diag(1e308, 1e308), "rho_b": EYE2, "n_samples": 10}},
        "NotNormalizedError",
        "rho_a trace = inf,",
    ),
    "kraus_of_two_sizes": (_kraus_step(_diag(1e308, 0), _diag(0, 1, 1)), "ShapeError", "all operators"),
    # The two M^dag M have off-diagonal entries +inf and -inf, so the residual is NaN.
    "kraus_nan_residual": (
        _kraus_step([[[1e308, 0], [1e308, 0]], [[0, 0], [0, 0]]], [[[1e308, 0], [-1e308, 0]], [[0, 0], [0, 0]]]),
        "IncompleteMeasurementError",
        "operators: completeness residual nan",
    ),
}


@pytest.mark.parametrize("case", sorted(NEAR_FLOAT_LIMIT))
def test_entries_near_the_float_limit_exit_with_named_error(case, tmp_path, capsys):
    cfg, error, message = NEAR_FLOAT_LIMIT[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {error}: {message}")


# JSON text that json.loads rejects without a JSONDecodeError.
UNDECODABLE = {
    "nested_too_deep": '{"kind": "reproduce-paper", "payload": ' + "[" * 100000 + "]" * 100000 + "}",
    "integer_too_long": '{"kind": "reproduce-paper", "seed": ' + "7" * 5000 + "}",
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_config_exits_with_config_error(case, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(UNDECODABLE[case])
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_that_is_not_utf8_exits_with_config_error(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"kind": "reproduce-paper", "seed": 1 \xff}')
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_history_step_with_both_povm_and_kraus_is_rejected(command, tmp_path, capsys):
    cfg = load_config(CONFIG_DIR / "history.json")
    cfg["payload"]["steps"][1]["kraus"] = cfg["payload"]["steps"][1]["povm"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: $.payload.steps[1]: names both")
    with pytest.raises(ConfigError, match=r"^\$\.payload\.steps\[1\]: "):
        validate_config(cfg)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_an_int_beyond_the_float_range_is_written_in_every_format(fmt, tmp_path, capsys, monkeypatch):
    """Canonical JSON writes such an int with ``json.dumps``; CSV writes it with ``str`` too."""
    monkeypatch.setitem(_KINDS, "pool-classical", (lambda payload, seed: ({"x": 10**400}, []), ("classical",)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "pool-classical", "payload": {"p": [1.0], "q": [1.0]}}))
    assert main(["run", "--format", fmt, str(path)]) == 0
    out = capsys.readouterr().out
    assert str(10**400) in out
    if fmt == "csv":
        assert out == f"key,i,j,re,im\nx,,,{10**400},0\n"


@pytest.mark.parametrize("value, written", [(10**17, "100000000000000000"), (2**53 + 1, "9007199254740993"), (3, "3")])
def test_csv_writes_ints_as_canonical_json_does(value, written):
    report = {"outputs": {"n": value, "v": [value, 0.5]}}
    assert render_csv(report) == f"key,i,j,re,im\nn,,,{written},0\nv,0,,{written},0\nv,1,,0.5,0\n"


def _error_classes(cls=errors.QpoolError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", sorted(_error_classes(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_exit_codes_come_from_the_error_class(error):
    assert _exit_code(error("x")) == (1 if issubclass(error, errors.ConfigError) else 2)


@pytest.mark.parametrize("argv", [["run", "big.json"], ["reproduce-paper"]], ids=["run", "reproduce-paper"])
def test_a_closed_stdout_exits_one_without_a_traceback(argv, tmp_path):
    """A reader that exits before the report is written: one line on stderr, exit 1, and a silent
    last flush.  The 64x64 consistency report is about 75 kB, more than a pipe buffer holds."""
    eye = [[[1 / 64 if i == j else 0, 0] for j in range(64)] for i in range(64)]
    (tmp_path / "big.json").write_text(json.dumps({"kind": "consistency", "payload": {"rho_a": eye, "rho_b": eye}}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qpool.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("config error: cannot write standard output: [Errno 32] Broken pipe")


def test_failed_run_csv_names_the_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "pool-classical", "payload": {"p": [0.5, 0.6], "q": [0.5, 0.5]}}))
    assert main(["run", "--format", "csv", str(path)]) == 2
    assert capsys.readouterr().out == "key,i,j,re,im\nerror.NotNormalizedError,,,,\n"
    # A successful run's CSV has no error row.
    assert main(["run", "--format", "csv", str(CONFIG_DIR / "pool-classical.json")]) == 0
    assert capsys.readouterr().out == "key,i,j,re,im\nresult,0,,0.33333333333333331,0\nresult,1,,0.66666666666666663,0\n"


@pytest.mark.parametrize("kind, field, payload", SAMPLE_COUNT_SITES)
def test_largest_sample_count_validates(kind, field, payload):
    validate_config({"kind": kind, "payload": {**payload, field: 1_000_000}})


# Every scalar field of every shipped config, set to each extreme value, must
# end in exit 0, 1 or 2, never a traceback.  Sample counts are capped at 1000
# so the sweep stays fast.
EXTREME_SCALARS = [
    0, -0.0, 5e-324, 1e-310, 1e-300, 1, 2, 1e308, -1, float("nan"), float("inf"), 10**400, -(10**400)
]
SAMPLE_COUNTS = ("n_samples", "mc_samples")


def _scalar_paths(cfg: dict) -> list:
    payload = cfg.get("payload", {})
    paths = [("seed",)]
    paths += [
        ("payload", key)
        for key in ("alpha", "beta", "tol", "weight_exponent", *SAMPLE_COUNTS)
        if key in payload
    ]
    paths += [("payload", "known", key) for key in payload.get("known", {})]
    paths += [
        ("payload", key, i)
        for key in ("p", "q", "effects_a", "effects_b")
        for i in range(len(payload.get(key, [])))
    ]
    return paths


def _reject_constant(name):
    raise ValueError(f"report contains {name}")


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_extreme_scalars_exit_cleanly(path, tmp_path, capsys):
    base = json.loads(path.read_text())
    for key in SAMPLE_COUNTS:
        if key in base.get("payload", {}):
            base["payload"][key] = min(base["payload"][key], 1000)
    cfg_path = tmp_path / "cfg.json"
    for site in _scalar_paths(base):
        for value in EXTREME_SCALARS:
            cfg = copy.deepcopy(base)
            target = cfg
            for key in site[:-1]:
                target = target[key]
            target[site[-1]] = value
            cfg_path.write_text(json.dumps(cfg))
            case = f"{path.stem}: {'.'.join(map(str, site))} = {value!r}"
            try:
                code = main(["run", str(cfg_path)])
            except Exception as exc:
                pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
            out = capsys.readouterr().out
            assert code in (0, 1, 2), case
            if code != 1:
                json.loads(out, parse_constant=_reject_constant)


# The names ``qpool`` and ``estimation`` export from the numpy-free ``exact``.
EXACT_EXPORTS = (
    "DiagonalEffect",
    "PolynomialDensity",
    "audit_published_example",
    "matching_beta",
    "predictive_populations",
    "qubit_diagonal_posterior",
)

# The exact scenarios: validating any config, auditing the published example and
# an estimate without Monte-Carlo samples use ints, Fractions and floats alone.
EXACT_ESTIMATE = {"kind": "estimate", "seed": 11, "payload": {"effects_a": [0.75, 0.3], "effects_b": [0.75, 0.3]}}
NUMPY_FREE_RUNS = {
    **{f"validate-{p.stem}": ["validate", str(p)] for p in SHIPPED},
    "reproduce-paper": ["reproduce-paper"],
    "exact-estimate": ["run", "exact.json", "--out", "report.json"],
}


def _imported_packages(importtime_log: str) -> set:
    """Top-level package of every module that ``-X importtime`` logged as imported."""
    names = (line.rpartition("|")[2].strip() for line in importtime_log.splitlines())
    return {name.split(".")[0] for name in names if name and name != "imported package"}


@pytest.mark.parametrize("argv", NUMPY_FREE_RUNS.values(), ids=NUMPY_FREE_RUNS)
def test_exact_runs_import_neither_numpy_nor_jsonschema(argv, tmp_path):
    (tmp_path / "exact.json").write_text(json.dumps(EXACT_ESTIMATE))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qpool.cli", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = _imported_packages(proc.stderr)
    assert "qpool" in imported
    assert not imported & {"numpy", "jsonschema"}


NUMPY_FREE_IMPORTS = {
    "errors": "import qpool.errors",
    "exact-exports": "import qpool; qpool." + "; qpool.".join(EXACT_EXPORTS),
}


@pytest.mark.parametrize("statement", NUMPY_FREE_IMPORTS.values(), ids=NUMPY_FREE_IMPORTS)
def test_numpy_free_imports_leave_numpy_unloaded(statement):
    code = f"import sys; {statement}; print(sorted({{'numpy', 'jsonschema'}} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Every name ``qpool`` exports, by the module it is defined in or re-exported from.
EXPORTS = {
    "classical": "LikelihoodModel ProbDist bayes_update matrix_bayes_update pool_classical "
    "pool_commuting_density sequential_update",
    "errors": "AmbiguityPreconditionError ConfigError DegenerateConstructionError DimensionGuardError "
    "HermiticityError ImpossibleOutcomeError IncompatibleKnowledgeError IncompleteMeasurementError "
    "InconsistentStatesError InvalidEffectError NoncommutingError NonFiniteError NotNormalizedError "
    "PositivityError QpoolError ReportError ShapeError SingularConstraintError",
    "estimation": "DiagonalEffect PolynomialDensity WeightedStateEnsemble audit_published_example "
    "definetti_state matching_beta polynomial_predictive pooled_predictive posterior_update "
    "predictive_state predictive_populations qubit_diagonal_posterior",
    "fusion": "CommonTermDecomposition HistoryMeasureConfig averaged_fusion "
    "check_consistency decompose_common demonstrate_ambiguity max_common_weight realize_pair "
    "realize_tripartite simulate_tripartite",
    "haar": "sample_amplitudes",
    "linalg": "Subspace hermitian_eig subspace_intersection support trace_distance",
    "measurement": "FlatPovm KrausPovm MeasurementHistory conditional_state flatten_history outcome_probability",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_every_export_resolves_to_its_module_object():
    assert len(EXPORTED) == 59
    for module, name in EXPORTED:
        assert getattr(qpool, name) is getattr(importlib.import_module(f"qpool.{module}"), name), name
    for module in EXPORTS:
        assert getattr(qpool, module) is importlib.import_module(f"qpool.{module}")


def test_dir_lists_every_export_and_its_module():
    public = {name for name in dir(qpool) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(qpool, name), types.ModuleType)}
    assert public - modules == {name for _, name in EXPORTED}
    assert set(EXPORTS) <= modules
    assert "__version__" in dir(qpool)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qpool.no_such_name  # noqa: B018


EFFECT_VALUES = st.one_of(
    st.sampled_from([0, 1, Fraction(0), Fraction(1), 0.0, 1.0]),
    st.fractions(0, 1, max_denominator=64),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(EFFECT_VALUES, max_size=12), st.lists(EFFECT_VALUES, max_size=12))
def test_predictive_literals_are_the_numpy_literals_byte_for_byte(effects_a, effects_b):
    # The exact path writes its literals without numpy; they are the numpy path's, byte for byte.
    outputs = run_scenario({"kind": "estimate", "payload": {"effects_a": effects_a, "effects_b": effects_b}})["outputs"]
    q_a, q_b = qubit_diagonal_posterior(effects_a), qubit_diagonal_posterior(effects_b)
    for name, q in (("predictive_a", q_a), ("predictive_b", q_b), ("pooled", q_a.multiply(q_b))):
        assert repr(outputs[name]) == repr(matrix_to_literal(polynomial_predictive(q)))


# Reports the qpool modules, and numpy itself, first imported after the first
# ``time.perf_counter`` call of ``run_scenario``: the start of ``wall_clock_s``.
CLOCK_PROBE = """
import json, sys, time
from qpool.cli import run_scenario
cfg = json.loads(sys.argv[1])
counter, loaded = time.perf_counter, []
def clock():
    loaded.append(set(sys.modules))
    return counter()
time.perf_counter = clock
run_scenario(cfg)
late = set(sys.modules) - loaded[0]
print(sorted(m for m in late if m == "numpy" or m.split(".")[0] == "qpool"))
"""
CLOCKED_RUNS = {
    **{p.stem: json.loads(p.read_text()) for p in SHIPPED},
    "exact-estimate": EXACT_ESTIMATE,
}


@pytest.mark.parametrize("cfg", CLOCKED_RUNS.values(), ids=CLOCKED_RUNS)
def test_wall_clock_starts_after_the_scenario_imports(cfg):
    proc = subprocess.run(
        [sys.executable, "-c", CLOCK_PROBE, json.dumps(cfg)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _shipped_with(name: str, **payload) -> dict:
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["payload"].update(payload)
    return cfg


_Z = [PROJ0, PROJ1]
_X = [PROJ_PLUS, [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]]]


def _uniform_effects(seed: int, *counts) -> list:
    """Lists of ``counts`` effects drawn in turn from one ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [[rng.random() for _ in range(n)] for n in counts]


# CLI runs, each in a process of its own, at sizes and edges where the bound is a time limit or
# the whole process matters: (config, exit code, stderr fragment for a failure, timeout in
# seconds).  Each runs as ``python -W error::RuntimeWarning -m qpool.cli run``, so a numpy
# warning is a traceback.
CONSOLE_RUNS = {
    # The closed form runs +-600 with no warning, and 1e308 gives the limit.
    **{
        f"fuse_exponent_{exponent:g}": (
            _shipped_with("fuse", n_samples=100_000, weight_exponent=exponent),
            0,
            None,
            60,
        )
        for exponent in (600.0, -600.0, 1e308)
    },
    # A d = 16 pair whose supports meet in k = 8 dimensions, at the schema's largest n_samples.
    "fuse_d16_k8_1e6_samples": (
        {
            "kind": "fuse",
            "seed": 3,
            "payload": {
                "rho_a": _diag(*[(i + 1) / 78 for i in range(12)], *[0] * 4),
                "rho_b": _diag(*[(i + 1) / 78 for i in range(8)], *[0] * 4, *[(i + 9) / 78 for i in range(4)]),
                "n_samples": 1_000_000,
            },
        },
        0,
        None,
        60,
    ),
    # 2**30 joint outcomes, propagated step by step.
    "history_30_steps": (
        {
            "kind": "history",
            "payload": {
                "steps": [{"owner": ("alice", "bob")[k % 2], "kraus": (_Z, _X)[k // 2 % 2]} for k in range(30)],
                "known": {"i": 0, "j": 0},
            },
        },
        0,
        None,
        20,
    ),
    # Effects just inside -TOL_PSD: the clipped roots' 1.8e-9 past the identity is reported.
    "history_clipped_roots": (
        _history(
            {"povm": [_diag(-0.9e-9, 0.2), _diag(-0.9e-9, 0.3), _diag(0.5000000018, 0.25), _diag(0.5, 0.25)]},
            known={"i": 2},
        ),
        0,
        None,
        20,
    ),
    # Exact posteriors whose unscaled moments underflow.
    "estimate_1100_half": ({"kind": "estimate", "payload": {"effects_a": [0.5] * 1100}}, 0, None, 20),
    "estimate_600_plus_600": (
        {"kind": "estimate", "payload": dict(zip(("effects_a", "effects_b"), _uniform_effects(7, 600, 600)))},
        0,
        None,
        20,
    ),
    # A Monte-Carlo cross-check whose linear product of 1200 likelihoods would underflow.
    "estimate_1200_monte_carlo": (
        {"kind": "estimate", "payload": {"effects_a": _uniform_effects(5, 1200)[0], "mc_samples": 1000}},
        0,
        None,
        20,
    ),
}


@pytest.mark.parametrize("case", sorted(CONSOLE_RUNS))
def test_console_run_exits_cleanly_in_time(case, tmp_path):
    cfg, code, error, timeout = CONSOLE_RUNS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qpool.cli", "run", str(path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert json.loads(proc.stdout)["kind"] == cfg["kind"]
    else:
        assert error in proc.stderr
