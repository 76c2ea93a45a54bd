"""Spans around qpool's public functions, installed from the benchmark's side.

Each wrapper replaces a function in the module namespace where its caller
looks it up (``qpool.cli.validate_config``, ``qpool.fusion.support``, ...),
so qpool's own source stays untouched.  Spans are kept in memory as
``(op, name, start, end, parent)`` and written out when the run ends; a
span's self time is its duration minus the time its child spans cover.
Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.ess = []  # (kish ess, n_samples) per predictive_state call
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([self.op, name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, op: int):
        self.op = op
        index = self.open("op")
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def self_times(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (_, name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[k]
        return dict(out)

    def write(self, path) -> None:
        names = ("op", "name", "start", "end", "parent")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")


def _count_literal(tr, args, result):
    tr.counts["config.literal_entries"] += result.size


def _count_report(tr, args, result):
    tr.counts["reporting.report_bytes"] += len(result)


def _count_flat(tr, args, result):
    tr.counts["measurement.joint_outcomes"] += int(np.prod(result.ops.shape[:3]))
    tr.counts["measurement.flat_ops_bytes"] += result.ops.nbytes
    tr.counts["measurement.eve_calls"] += result.e_max > 1


def _count_fusion(tr, args, result):
    tr.counts["fusion.samples"] += int(args[2].n_samples)


def _count_haar(tr, args, result):
    tr.counts["haar.samples_drawn"] += int(args[1])


def _count_effects(tr, args, result):
    tr.counts["estimation.effects"] += len(args[0])


def _count_update(tr, args, result):
    tr.counts["estimation.mc_sample_updates"] += args[0].n_samples


def _count_ess(tr, args, result):
    weights = args[0].weights
    tr.ess.append((float(weights.sum()) ** 2 / float((weights**2).sum()), weights.size))


def _targets(qpool):
    """(module, attribute, span name, counter) for every wrapped call site."""
    cli, reporting, measurement = qpool.cli, qpool.reporting, qpool.measurement
    fusion, estimation = qpool.fusion, qpool.estimation
    return [
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "validate_config", "config.validate_config", None),
        (cli, "literal_to_matrix", "config.literal_to_matrix", _count_literal),
        (cli, "matrix_to_literal", "config.matrix_to_literal", None),
        (reporting, "emit_report", "reporting.emit_report", _count_report),
        (measurement, "flatten_history", "measurement.flatten_history", _count_flat),
        (measurement, "conditional_state", "measurement.conditional_state", None),
        (measurement, "outcome_probability", "measurement.outcome_probability", None),
        (fusion, "check_consistency", "fusion.check_consistency", None),
        (fusion, "max_common_weight", "fusion.max_common_weight", None),
        (fusion, "decompose_common", "fusion.decompose_common", None),
        (fusion, "realize_tripartite", "fusion.realize_tripartite", None),
        (fusion, "simulate_tripartite", "fusion.simulate_tripartite", None),
        (fusion, "demonstrate_ambiguity", "fusion.demonstrate_ambiguity", None),
        (fusion, "averaged_fusion", "fusion.averaged_fusion", _count_fusion),
        (fusion, "support", "linalg.support", None),
        (fusion, "subspace_intersection", "linalg.subspace_intersection", None),
        (fusion, "hermitian_eig", "linalg.hermitian_eig", None),
        (fusion, "sample_amplitudes", "haar.sample_amplitudes", _count_haar),
        (estimation, "sample_amplitudes", "haar.sample_amplitudes", _count_haar),
        (estimation, "qubit_diagonal_posterior", "estimation.qubit_diagonal_posterior", _count_effects),
        (estimation, "polynomial_predictive", "estimation.polynomial_predictive", None),
        (estimation, "pooled_predictive", "estimation.pooled_predictive", None),
        (estimation, "posterior_update", "estimation.posterior_update", _count_update),
        (estimation, "predictive_state", "estimation.predictive_state", _count_ess),
    ]


@contextmanager
def installed(tracer: Tracer, qpool):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, count in _targets(qpool):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
