import json
from pathlib import Path

import numpy as np
import pytest

from qpool.cli import main, run_scenario
from qpool.config import (
    literal_to_matrix,
    load_config,
    matrix_to_literal,
    validate_config,
)
from qpool.errors import ConfigError
from qpool.reporting import canonical_json, emit_report, render_csv, render_text

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

    def test_reproduce_paper_command(self, tmp_path, capsys):
        out_file = tmp_path / "audit.json"
        assert main(["reproduce-paper", "--out", str(out_file)]) == 0
        assert "PUBLISHED vs COMPUTED" in capsys.readouterr().out
        audit = json.loads(out_file.read_text())
        assert any(e["matches_published"] is False for e in audit["outputs"]["entries"])

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


def _history(step, known=None):
    payload = {"steps": [dict(owner="alice", **step)]}
    if known is not None:
        payload["known"] = known
    return {"kind": "history", "payload": payload}


# Invalid inputs.  The schema rejects the unknown family (exit 1); the others pass it
# and must leave through a failure report that names the error (exit 2).
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
        None,
    ),
    "fuse_weights_underflow": (
        {
            "kind": "fuse",
            "payload": {"rho_a": EYE2, "rho_b": EYE2, "n_samples": 10, "weight_exponent": 1e308},
        },
        2,
        "ImpossibleOutcomeError",
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
    if error is None:
        assert err.startswith("config error:") and not out_file.exists()
    else:
        assert json.loads(out_file.read_text())["error"]["name"] == error
        assert err.startswith(f"error: {error}:")
