"""Benchmark of qpool's front door: scenario configs in, canonical reports out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload histories --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

An operation is one generated scenario config: ``qpool.cli.run_scenario``
validates and runs it, ``qpool.reporting.emit_report(report, "json")``
serializes it, and an independent oracle (``oracles.py``) checks its
outputs.  The load is a closed loop: one client, one process, no worker
threads; BLAS keeps its default thread count.

A run has three phases.  The first pass runs whole rotation periods of
blocks (``workloads.py``) until ``MIN_SUCCESSES`` operations succeeded; it
decides failures and outputs.  A second pass runs every success once more,
and the faster of its two runs ranks it.  Then the successes ranked nearest
the 50th and 90th percentiles (the probes) run again in rounds until
``--seconds`` have passed since the first pass began: the speed of a shared
host drifts by tens of percent over seconds, and the fastest of many runs is
far steadier than any single one.  A percentile is that of all successes'
faster pass, scaled by how much faster the probes ran at their best.  Between
rounds, in step with the clock, fresh interpreters import ``qpool.cli``
(set-up time) and the p50 configs run through ``python -m qpool.cli run``,
whose ``outputs`` bytes must equal the in-process ones.

An operation fails on any exception, a nonzero CLI exit, an oracle mismatch
or a CLI/in-process byte mismatch; failures are never retried or dropped.
The workloads are drawn where no operation should fail, so ``correct`` is
false as soon as one does.

``--trace 0`` prints the end-to-end metrics, plus throughput and error rate
for information.  ``--trace 1`` re-runs the first pass untraced and then
with spans around qpool's public functions (``tracing.py``), writes the
spans to ``.perfbench_out/``, and prints the per-layer metrics, the
import-time split and the size sweeps (``sweeps.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics and units are those declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_SUCCESSES = 100  # so that p90 has at least ten samples beyond it
MIN_ROUNDS = 2
# Successes ranked nearest p50 and nearest p90 that run again in rounds.  A
# p90 config costs several times a p50 one, so fewer of them keep rounds short.
PROBES = {"p50": 21, "p90": 9}
SETUP_RUNS = 10
CLI_CONFIGS = 3
CLI_REPEATS = 8
IMPORTTIME_RUNS = 3
CLI_TIMEOUT_S = 120

# Per-layer span names, reported per operation of the traced pass.
SELF_MS = (
    "config.validate_config",
    "config.literal_to_matrix",
    "config.matrix_to_literal",
    "reporting.emit_report",
    "measurement.flatten_history",
    "measurement.conditional_state",
    "measurement.outcome_probability",
    "fusion.check_consistency",
    "fusion.max_common_weight",
    "fusion.decompose_common",
    "fusion.realize_tripartite",
    "fusion.simulate_tripartite",
    "fusion.demonstrate_ambiguity",
    "fusion.averaged_fusion",
    "linalg.support",
    "linalg.subspace_intersection",
    "linalg.hermitian_eig",
    "haar.sample_amplitudes",
    "estimation.qubit_diagonal_posterior",
    "estimation.pooled_predictive",
    "estimation.polynomial_predictive",
    "estimation.posterior_update",
    "estimation.predictive_state",
)
CALLS = (
    "measurement.flatten_history",
    "linalg.support",
    "linalg.subspace_intersection",
    "linalg.hermitian_eig",
    "estimation.posterior_update",
    "estimation.predictive_state",
)
COUNTS = {
    "config.literal_entries": "count/op",
    "reporting.report_bytes": "bytes/op",
    "measurement.joint_outcomes": "count/op",
    "measurement.flat_ops_bytes": "bytes/op",
    "fusion.samples": "count/op",
    "haar.samples_drawn": "count/op",
    "estimation.effects": "count/op",
    "estimation.mc_sample_updates": "count/op",
}
FAILURE_KINDS = ("oracle_mismatch", "byte_mismatch", "cli_exit", "ImpossibleOutcomeError", "ValueError")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _timed_child(args: list) -> float:
    start = time.perf_counter()
    subprocess.run(args, env=_child_env(), cwd=ROOT, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


IMPORT_CLI = [sys.executable, "-c", "import qpool.cli"]


def import_split() -> dict:
    """Median import times of numpy, jsonschema and qpool's own modules."""
    samples = {"numpy": [], "jsonschema": [], "qpool": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qpool.cli"],
            env=_child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        totals = {"numpy": 0.0, "jsonschema": 0.0, "qpool": 0.0}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| *(\S+)$", line)
            if not match:
                continue
            own, cumulative, name = int(match[1]), int(match[2]), match[3]
            if name in ("numpy", "jsonschema"):
                totals[name] = max(totals[name], cumulative / 1e3)
            elif name == "qpool" or name.startswith("qpool."):
                totals["qpool"] += own / 1e3
        for key, value in totals.items():
            samples[key].append(value)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}


def _run_op(qpool, cfg: dict):
    """One operation: returns (seconds, error name or None, report)."""
    start = time.perf_counter()
    try:
        report = qpool.cli.run_scenario(cfg)
        qpool.reporting.emit_report(report, "json")
    except Exception as exc:  # each failure is counted by name, never retried
        return time.perf_counter() - start, type(exc).__name__, None
    return time.perf_counter() - start, None, report


def first_pass(qpool, workload):
    """Closed loop over whole rotation periods until MIN_SUCCESSES operations succeeded."""
    ops, records = [], []
    generating = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        block = workload.next_block()
        generating += time.perf_counter() - t0
        for cfg, expected in block:
            elapsed, error, report = _run_op(qpool, cfg)
            records.append({"latencies": [elapsed], "error": error, "outputs": report and report["outputs"]})
            ops.append((cfg, expected))
        successes = sum(rec["error"] is None for rec in records)
        if successes >= MIN_SUCCESSES and workload.blocks % workload.period == 0:
            return ops, records, time.perf_counter() - start - generating


def second_pass(qpool, ops: list, records: list) -> None:
    """Run every success once more, so that one slow first run does not set its rank."""
    for (cfg, _), rec in zip(ops, records):
        if rec["error"] is None:
            elapsed, rec["error"], _ = _run_op(qpool, cfg)
            rec["latencies"].append(elapsed)


def probes(records: list) -> dict:
    """The successful operations ranked nearest the 50th and the 90th percentile.

    Ranks come from the faster of the first two passes, nearest first.  Few
    probes make many rounds, and the fastest of many runs is what is steady
    on a shared host.
    """
    ranked = sorted((min(rec["latencies"]), k) for k, rec in enumerate(records) if rec["error"] is None)

    def window(q: float, n: int) -> list:
        centre = q * (len(ranked) - 1)
        return [ranked[i][1] for i in sorted(range(len(ranked)), key=lambda i: abs(i - centre))[:n]]

    return {"p50": window(0.5, PROBES["p50"]), "p90": window(0.9, PROBES["p90"])}


def refine(qpool, ops: list, records: list, probe_ops: list, deadline: float, side_tasks: list) -> int:
    """Rounds over the probe operations until ``deadline`` and MIN_ROUNDS are reached.

    The side tasks run between rounds, in step with the share of the time
    that has passed, so fresh-process timings sample the same stretch of
    time as the rounds and the whole refinement ends near the deadline.
    """
    start = time.perf_counter()
    rounds, done = 0, 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for k in probe_ops:
            elapsed, error, _ = _run_op(qpool, ops[k][0])
            records[k]["latencies"].append(elapsed)
            records[k]["error"] = records[k]["error"] or error
        rounds += 1
        share = (time.perf_counter() - start) / max(deadline - start, 1e-9)
        while done < min(len(side_tasks), math.ceil(len(side_tasks) * share)):
            side_tasks[done]()
            done += 1
    for task in side_tasks[done:]:
        task()
    return rounds


def run_cli(workload_name: str, k: int, cfg: dict, canonical_json):
    """One op through ``python -m qpool.cli run``: (seconds, exit code, outputs bytes)."""
    cfg_path = OUT_DIR / f"{workload_name}-cli-{k}.json"
    out_path = OUT_DIR / f"{workload_name}-cli-{k}.report.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qpool.cli", "run", str(cfg_path), "--out", str(out_path)],
        env=_child_env(), cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    data = None
    if proc.returncode == 0:
        data = canonical_json(json.loads(out_path.read_bytes())["outputs"]).encode()
    return elapsed, proc.returncode, data


def traced_pass(qpool, ops: list, tracing):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, qpool):
        for k, (cfg, _) in enumerate(ops):
            with tracer.operation(k):
                try:
                    report = qpool.cli.run_scenario(cfg)
                    qpool.reporting.emit_report(report, "json")
                except Exception:  # failures were already counted in the untraced loop
                    pass
    return tracer


def layer_metrics(tracer, n_ops: int, untraced_s: float) -> tuple:
    """Per-operation layer metrics from the spans, plus the accounting check."""
    times = tracer.self_times()
    metrics = {}
    empty = [0, 0.0, 0.0]
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (times.get(name, empty)[2] * 1e3 / n_ops, "ms/op")
    for name in CALLS:
        metrics[f"{name}.calls"] = (times.get(name, empty)[0] / n_ops, "calls/op")
    metrics["cli.run_scenario.total_ms"] = (times.get("cli.run_scenario", empty)[1] * 1e3 / n_ops, "ms/op")
    for name, unit in COUNTS.items():
        metrics[name] = (tracer.counts[name] / n_ops, unit)
    flat_calls = times.get("measurement.flatten_history", empty)[0]
    metrics["measurement.eve_share"] = (tracer.counts["measurement.eve_calls"] / flat_calls if flat_calls else 0.0, "ratio")
    ess = tracer.ess
    metrics["estimation.ess_ratio"] = (statistics.fmean(e / n for e, n in ess) if ess else 0.0, "ratio")
    remainder = times["op"][2] + times.get("cli.run_scenario", empty)[2]
    metrics["trace.unwrapped_ms"] = (remainder * 1e3 / n_ops, "ms/op")
    traced_s = times["op"][1]
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    wrapped_self = sum(v[2] for k, v in times.items() if k not in ("op", "cli.run_scenario"))
    accounting = {
        "traced_op_s": traced_s,
        "wrapped_self_s": wrapped_self,
        "unwrapped_remainder_s": remainder,
        "residual_s": traced_s - wrapped_self - remainder,
        "untraced_op_s": untraced_s,
        "ess_base_n_samples": sorted({n for _, n in ess}),
    }
    return metrics, accounting


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_oracles(workload_name: str, ops: list, records: list) -> list:
    """Mark every operation whose outputs fail its oracle; returns mismatch notes."""
    import oracles

    check = oracles.ORACLES[workload_name]
    mismatches = []
    for k, ((cfg, expected), rec) in enumerate(zip(ops, records)):
        if rec["error"] is None:
            errors = check(cfg, expected, rec["outputs"])
            if errors:
                rec["error"] = "oracle_mismatch"
                mismatches.append({"op": k, "kind": cfg["kind"], "errors": errors[:3]})
    return mismatches


def count_failures(qpool, records: list, cli_runs: dict) -> Counter:
    """Failures by name, CLI runs included; a CLI run must match the in-process bytes."""
    canonical_json = qpool.reporting.canonical_json
    fails = Counter(rec["error"] for rec in records if rec["error"] is not None)
    for k, runs in cli_runs.items():
        rec = records[k]
        for _, code, data in runs:
            if code != 0:
                fails["cli_exit"] += 1
            elif rec["error"] == "oracle_mismatch":
                fails["oracle_mismatch"] += 1
            elif rec["error"] is not None or data != canonical_json(rec["outputs"]).encode():
                fails["byte_mismatch"] += 1
    return fails


def percentile_ms(records: list, probe_ops: list, q: float) -> tuple:
    """The q-th percentile latency in ms, with its two factors.

    The level is the percentile over every success of its faster pass, so
    it does not hang on which few configs rank near q.  The scale is the
    median, over the probes, of their fastest run in all rounds divided by
    their faster pass: it carries the level to the steadier best-of-many
    timing of the probes.
    """
    passes = [min(rec["latencies"][:2]) for rec in records if rec["error"] is None]
    level = statistics.quantiles(passes, n=10, method="inclusive")[round(q * 10) - 1]
    scale = statistics.median(min(records[k]["latencies"]) / min(records[k]["latencies"][:2]) for k in probe_ops)
    return level * scale * 1e3, level * 1e3, scale


def end_to_end(records, chosen, cli_runs, setup, attempted, failed, first_wall, peak_rss_mb):
    """End-to-end metrics with the base each one is computed over."""
    successes = sum(rec["error"] is None for rec in records)
    cli_best = [min(t for t, _, _ in runs) for runs in cli_runs.values()]
    runs = len(records[chosen["p50"][0]]["latencies"])
    p50, level50, scale50 = percentile_ms(records, chosen["p50"], 0.5)
    p90, level90, scale90 = percentile_ms(records, chosen["p90"], 0.9)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_p50_ms": (statistics.median(cli_best) * 1e3, "ms"),
        "scenario_p50_ms": (p50, "ms"),
        "scenario_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    probe_base = f"probes ranked nearest it, each its fastest of {runs} runs"
    bases = {
        "setup_s": f"median of {len(setup)} fresh imports of qpool.cli",
        "cli_p50_ms": f"median over {len(cli_best)} p50 configs of the fastest of {CLI_REPEATS} CLI runs",
        "scenario_p50_ms": f"p50 of {successes} successes' faster pass {level50:.4g} ms x {scale50:.4f} from {len(chosen['p50'])} {probe_base}",
        "scenario_p90_ms": f"p90 of {successes} successes' faster pass {level90:.4g} ms x {scale90:.4f} from {len(chosen['p90'])} {probe_base}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    informational = {
        "scenarios_per_s": (successes / first_wall, "1/s", f"{successes} successes / {first_wall:.3f} s first pass (not gated)"),
        "error_rate": (failed / attempted, "ratio", f"{failed}/{attempted} failed/attempted (not gated)"),
    }
    return metrics, bases, informational


def traced_metrics(qpool, args, ops, records, fails, failed, traffic, summary):
    """Per-layer metrics: traced pass, import split, sweeps, failure counts, traffic shares."""
    import sweeps
    import tracing

    # Overhead compares two warm passes: the first pass ran every config cold.
    untraced_s = sum(_run_op(qpool, cfg)[0] for cfg, _ in ops)
    tracer = traced_pass(qpool, ops, tracing)
    metrics, accounting = layer_metrics(tracer, len(ops), untraced_s)
    if abs(accounting["residual_s"]) > 1e-6 * accounting["traced_op_s"]:
        raise RuntimeError(f"span self times do not add up: {accounting}")
    metrics.update({k: (v, "ms") for k, v in import_split().items()})
    metrics.update({k: (v, "ms") for k, v in sweeps.run(qpool, args.seed).items()})
    for kind in FAILURE_KINDS:
        metrics[f"fail.{kind}"] = (fails[kind], "count")
    metrics["fail.other"] = (failed - sum(fails[k] for k in FAILURE_KINDS), "count")
    for name in ("eve_share", "mc_share"):
        metrics[f"traffic.{name}"] = (traffic[name]["share"] if name in traffic else 0.0, "ratio")
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    summary["trace_accounting"] = accounting
    summary["spans"] = str(spans_path.relative_to(ROOT))
    bases = {"estimation.ess_ratio": f"Kish ESS / n_samples, n_samples in {accounting['ess_base_n_samples']}"}
    return metrics, bases


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import qpool
    import qpool.cli
    import qpool.reporting

    if Path(qpool.__file__).resolve().parent != ROOT / "src" / "qpool":
        print(f"error: imported qpool from {qpool.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import Workload

    declared = declared_metrics(args.trace)
    workload = Workload(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    if not args.trace:
        _timed_child(IMPORT_CLI)  # warm-up: writes the bytecode caches
    start = time.perf_counter()
    ops, records, first_wall = first_pass(qpool, workload)
    if not args.trace:
        second_pass(qpool, ops, records)
    mismatches = check_oracles(args.workload, ops, records)
    chosen = probes(records)

    setup, cli_runs = [], {}
    cli_ops = chosen["p50"][:CLI_CONFIGS]
    cli_tasks = [
        lambda k=k: cli_runs.setdefault(k, []).append(run_cli(args.workload, k, ops[k][0], qpool.reporting.canonical_json))
        for _ in range(CLI_REPEATS)
        for k in cli_ops
    ]
    setup_tasks = [] if args.trace else [lambda: setup.append(_timed_child(IMPORT_CLI))] * SETUP_RUNS
    # Interleave the two task lists evenly, so both spread over the rounds.
    spread = [((i + 0.5) / len(tasks), i, task) for tasks in (cli_tasks, setup_tasks) for i, task in enumerate(tasks)]
    side = [task for _, _, task in sorted(spread, key=lambda item: item[:2])]
    if args.trace:
        rounds = 0
        for task in side:
            task()
    else:
        rounds = refine(qpool, ops, records, chosen["p50"] + chosen["p90"], start + args.seconds, side)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    fails = count_failures(qpool, records, cli_runs)
    attempted = len(records) + sum(len(runs) for runs in cli_runs.values())
    failed = sum(fails.values())
    if sum(rec["error"] is None for rec in records) < 2:
        print(f"error: fewer than two of {len(records)} operations succeeded: {dict(fails)}", file=sys.stderr)
        return 3
    canonical = [qpool.reporting.canonical_json(r["outputs"]).encode() for r in records if r["outputs"] is not None]
    digest = hashlib.sha256(b"\n".join(canonical)).hexdigest()
    traffic = workload.traffic(ops)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "operations": len(records),
        "refinement_rounds": rounds,
        "probes": chosen,
        "latencies_s": [r["latencies"] for r in records],
        "failures": dict(fails),
        "mismatches": mismatches[:20],
        "outputs_sha256": digest,
        "traffic": traffic,
    }
    informational = {}
    if args.trace:
        metrics, bases = traced_metrics(qpool, args, ops, records, fails, failed, traffic, summary)
    else:
        metrics, bases, informational = end_to_end(
            records, chosen, cli_runs, setup, attempted, failed, first_wall, peak_rss_mb
        )
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(summary, indent=1, default=str)
    )

    print(f"workload {args.workload}  seed {args.seed}  operations {len(records)} + {attempted - len(records)} via CLI")
    print(f"  failures {dict(fails) or '{}'}  outputs sha256 {digest[:16]}")
    print(f"  traffic {json.dumps(traffic)}")
    if args.trace:
        a = summary["trace_accounting"]
        print(
            f"  traced op time {a['traced_op_s']:.6f} s = wrapped self {a['wrapped_self_s']:.6f} s"
            f" + unwrapped remainder {a['unwrapped_remainder_s']:.6f} s (residual {a['residual_s']:.1e} s);"
            f" untraced warm pass {a['untraced_op_s']:.6f} s; spans in {summary['spans']}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:9s} {bases.get(name, '')}")
    for name, (value, unit, base) in informational.items():
        print(f"  {name:48s} {value:14.6g} {unit:9s} {base}")

    missing = [n for n in declared if n not in metrics or metrics[n][1] != declared[n]]
    if missing:
        print(f"error: metrics missing or with other units than BENCHMARK.json declares: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and merge the result lines."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qpool" / "cli.py").is_file():
        print(f"error: no qpool sources under {ROOT / 'src'}; run from a qpool checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
