"""Batch front door: scenario configs in, deterministic reports out.

All randomness flows from the config's single top-level seed; a scenario
that samples (``fuse``, and ``estimate`` with ``mc_samples``) draws from one
stream seeded by ``numpy.random.SeedSequence([seed, 0])``.  Re-running a
config with the same seed reproduces the ``outputs`` section of the report
bit-for-bit in canonical JSON.

Exit codes: 0 success, 1 configuration/validation problems and an
unwritable ``--out`` path, 2 numerical failures, invalid physics that passes
the schema and reports that cannot be serialized (``NonFiniteError`` or
``ReportError``; the error name is embedded in the emitted failure report).

Each scenario imports the modules it runs when it runs, before the clock
behind ``wall_clock_s`` starts, so ``validate``, ``reproduce-paper`` and an
``estimate`` without ``mc_samples`` never import numpy.

``QPOOL_OUT_DIR`` sets the directory against which relative ``--out`` paths
are resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import import_module
from pathlib import Path

from .config import FUSE_FAMILY, literal_to_matrix, load_config, matrix_to_literal, validate_config
from .errors import ConfigError, QpoolError
from .reporting import emit_report, render_text
from .tolerances import TOL_RANK

_EXPLORATORY_NOTE = (
    "EXPLORATORY: no canonical measure over measurement histories is claimed; "
    "the configured family is one pluggable choice."
)


def _stream_seed(seed: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([int(seed), 0]).generate_state(1)[0])


def _run_pool_classical(payload: dict, seed: int):
    from . import classical

    result = classical.pool_classical(
        classical.ProbDist(payload["p"]), classical.ProbDist(payload["q"])
    )
    return {"result": [float(x) for x in result.probs]}, []


def _build_history(steps: list):
    from . import measurement

    built = []
    for step in steps:
        if "kraus" in step:
            povm = measurement.KrausPovm(tuple(literal_to_matrix(m) for m in step["kraus"]))
        else:
            povm = measurement.KrausPovm.from_effects(
                [literal_to_matrix(m) for m in step["povm"]]
            )
        built.append((step["owner"], povm))
    return measurement.MeasurementHistory(tuple(built))


def _run_history(payload: dict, seed: int):
    from . import measurement

    history = _build_history(payload["steps"])
    residual = history.completeness_residual()
    # One propagation gives both the conditional state and its probability.
    state, probability = measurement.condition(history, payload.get("known"))
    outputs = {
        "i_max": history.i_max,
        "j_max": history.j_max,
        "e_max": history.e_max,
        "completeness_residual": residual,
        "probability": probability,
        "state": matrix_to_literal(state),
    }
    return outputs, []


def _run_consistency(payload: dict, seed: int):
    from . import fusion

    verdict, intersection = fusion.check_consistency(
        literal_to_matrix(payload["rho_a"]),
        literal_to_matrix(payload["rho_b"]),
        payload.get("tol", TOL_RANK),
    )
    outputs = {
        "consistent": bool(verdict),
        "intersection_dimension": intersection.dimension,
        "intersection_basis": matrix_to_literal(intersection.basis),
    }
    return outputs, []


def _run_realize(payload: dict, seed: int):
    from . import fusion

    rho_a = literal_to_matrix(payload["rho_a"])
    rho_b = literal_to_matrix(payload["rho_b"])
    sigma = literal_to_matrix(payload["sigma"])
    dec, alpha_max, beta_max, report = fusion.realize_pair(
        rho_a, rho_b, sigma, payload.get("alpha"), payload.get("beta")
    )
    outputs = {
        "alpha": dec.alpha,
        "beta": dec.beta,
        "alpha_max": alpha_max,
        "beta_max": beta_max,
        "norm_psi_sq": report.norm_psi_sq,
        "outcome_probs": [float(p) for p in report.outcome_probs],
        "predicted_probs": [float(p) for p in report.predicted_probs],
        "rho_a_recovered": matrix_to_literal(report.rho_a_recovered),
        "rho_b_recovered": matrix_to_literal(report.rho_b_recovered),
        "charlie_state": matrix_to_literal(report.charlie_state),
    }
    return outputs, []


def _run_ambiguity(payload: dict, seed: int):
    from . import fusion

    report = fusion.demonstrate_ambiguity(
        literal_to_matrix(payload["rho_a"]),
        literal_to_matrix(payload["rho_b"]),
        literal_to_matrix(payload["sigma_1"]),
        literal_to_matrix(payload["sigma_2"]),
    )
    outputs = {
        "trace_distance": report.distance,
        "charlie_deviations": [float(d) for d in report.charlie_deviations],
        "charlie_1": matrix_to_literal(report.reports[0].charlie_state),
        "charlie_2": matrix_to_literal(report.reports[1].charlie_state),
    }
    return outputs, []


def _run_fuse(payload: dict, seed: int):
    from . import fusion

    cfg = fusion.HistoryMeasureConfig(
        n_samples=payload["n_samples"],
        seed=_stream_seed(seed),
        weight_exponent=payload.get("weight_exponent", 1.0),
    )
    fused = fusion.averaged_fusion(
        literal_to_matrix(payload["rho_a"]), literal_to_matrix(payload["rho_b"]), cfg
    )
    outputs = {
        "fused": matrix_to_literal(fused),
        "family": FUSE_FAMILY,
        "n_samples": cfg.n_samples,
        "label": "EXPLORATORY",
    }
    return outputs, [_EXPLORATORY_NOTE]


def _run_estimate(payload: dict, seed: int):
    from .exact import predictive_populations, qubit_diagonal_posterior

    q_a = qubit_diagonal_posterior(payload["effects_a"])
    q_b = qubit_diagonal_posterior(payload.get("effects_b", []))
    outputs = {
        "posterior_coeffs_a": [float(c) for c in q_a.coeffs],
        "posterior_coeffs_b": [float(c) for c in q_b.coeffs],
    }
    for name, q in (("predictive_a", q_a), ("predictive_b", q_b), ("pooled", q_a.multiply(q_b))):
        top, bottom = predictive_populations(q)  # the diagonal of polynomial_predictive(q)
        outputs[name] = matrix_to_literal([[top, 0], [0, bottom]])
    provenance = ["predictive states: exact polynomial integration (derived)"]
    if "mc_samples" in payload:
        from . import estimation

        ens = estimation.WeightedStateEnsemble.from_prior(
            2, payload["mc_samples"], _stream_seed(seed)
        )
        effects = [estimation.DiagonalEffect(x) for x in payload["effects_a"]]
        ens = estimation.posterior_update(ens, *effects)
        outputs["mc_predictive_a"] = matrix_to_literal(estimation.predictive_state(ens))
        provenance.append("mc_predictive_a: Monte-Carlo cross-check of the exact path")
    return outputs, provenance


def _run_reproduce_paper(payload: dict, seed: int):
    from .exact import audit_published_example

    provenance = [
        "entries with a 'published' field audit printed values; others are derived",
        "exact rational integration distinguishes discrepancies from round-off",
    ]
    return audit_published_example(), provenance


# Each kind's handler, and the library modules it runs (numpy behind all but
# ``exact``).  ``run_scenario`` imports them before its clock starts, so
# ``wall_clock_s`` times the scenario, not the first import.
_KINDS = {
    "pool-classical": (_run_pool_classical, ("classical",)),
    "history": (_run_history, ("measurement",)),
    "consistency": (_run_consistency, ("fusion",)),
    "realize": (_run_realize, ("fusion",)),
    "ambiguity": (_run_ambiguity, ("fusion",)),
    "fuse": (_run_fuse, ("fusion",)),
    "estimate": (_run_estimate, ("exact",)),
    "reproduce-paper": (_run_reproduce_paper, ("exact",)),
}


def run_scenario(cfg: dict) -> dict:
    """Validate, dispatch, and wrap the scenario outputs in a run report."""
    cfg = validate_config(cfg)
    handler, modules = _KINDS[cfg["kind"]]
    if cfg["kind"] == "estimate" and "mc_samples" in cfg["payload"]:
        modules += ("estimation",)
    for name in modules:
        import_module(f"{__package__}.{name}")
    start = time.perf_counter()
    outputs, provenance = handler(cfg["payload"], cfg["seed"])
    return {
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "config": cfg,
        "outputs": outputs,
        "provenance": provenance,
        "wall_clock_s": time.perf_counter() - start,
    }


def _resolve_out(path: str) -> Path:
    out = Path(path)
    base = os.environ.get("QPOOL_OUT_DIR")
    if base and not out.is_absolute():
        out = Path(base) / out
    return out


def _deliver(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode())
        return
    target = _resolve_out(out)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc}") from exc


def _failure_report(cfg: dict, exc: QpoolError) -> dict:
    return {
        "kind": cfg.get("kind"),
        "seed": cfg.get("seed", 0),
        # Python's json reads NaN and Infinity; the report spells them as strings.
        "config": json.loads(json.dumps(cfg), parse_constant=str),
        "error": {"name": type(exc).__name__, "message": str(exc)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpool",
        description="Pooling classical and quantum states of knowledge: "
        "scenario runner and published-example audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config and emit a report")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--format", choices=("json", "text", "csv"), default="json")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")

    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config")

    rep_p = sub.add_parser(
        "reproduce-paper",
        help="audit the published estimation example (text to stdout, JSON to --out)",
    )
    rep_p.add_argument("--out", default=None, help="also write the canonical JSON report here")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            load_config(args.config)
            print(f"OK: {args.config} is a valid scenario config")
            return 0

        if args.command == "reproduce-paper":
            report = run_scenario({"kind": "reproduce-paper"})
            sys.stdout.write(render_text(report))
            if args.out is not None:
                _deliver(emit_report(report, "json"), args.out)
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        try:
            _deliver(emit_report(run_scenario(cfg), args.format), args.out)
        except ConfigError:
            raise
        except QpoolError as exc:
            _deliver(emit_report(_failure_report(cfg, exc), args.format), args.out)
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
