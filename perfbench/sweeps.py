"""Per-layer size sweeps: how each hot function's cost grows with its input.

Each point is the median of up to ``REPEATS`` timed calls; a point whose
first call takes longer than ``LONG_S`` is timed once.  Inputs come from the
run's seed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

from workloads import density, kraus_family, unitary

REPEATS = 3
LONG_S = 0.25


def _time(fn) -> float:
    """Median wall time of ``fn()`` in milliseconds."""
    times = []
    while len(times) < REPEATS and not (times and times[0] > LONG_S * 1e3):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def run(qpool, seed: int) -> dict:
    measurement, estimation, fusion = qpool.measurement, qpool.estimation, qpool.fusion
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 99]))
    out = {}

    # flatten_history by joint outcomes: binary Kraus steps on a qubit.
    for steps in (8, 10, 12):
        history = measurement.MeasurementHistory(
            tuple(
                (("alice", "bob", "eve")[k % 3], measurement.KrausPovm(tuple(kraus_family(rng, 2, 2))))
                for k in range(steps)
            )
        )
        out[f"sweep.flatten_history.joint_{2**steps}_ms"] = _time(lambda: measurement.flatten_history(history))

    # posterior_update and predictive_state by samples.
    effect = estimation.DiagonalEffect(0.3)
    for n in (10_000, 100_000, 1_000_000):
        ens = estimation.WeightedStateEnsemble.from_prior(2, n, int(rng.integers(2**31)))
        out[f"sweep.posterior_update.samples_{n}_ms"] = _time(lambda: estimation.posterior_update(ens, effect))
        updated = estimation.posterior_update(ens, effect)
        out[f"sweep.predictive_state.samples_{n}_ms"] = _time(lambda: estimation.predictive_state(updated))
    del ens, updated

    # definetti_state by the number of copies N.
    for copies in (2, 4, 6):
        out[f"sweep.definetti_state.n_{copies}_ms"] = _time(lambda: estimation.definetti_state(copies, 20_000, int(seed)))

    # averaged_fusion by dimension and by samples (full-rank pairs).
    for dim, n in ((4, 10_000), (16, 10_000), (16, 100_000)):
        basis = unitary(rng, dim)
        rho_a, rho_b = density(rng, basis), density(rng, basis)
        cfg = fusion.HistoryMeasureConfig(n_samples=n, seed=int(seed))
        out[f"sweep.averaged_fusion.d{dim}_samples_{n}_ms"] = _time(lambda: fusion.averaged_fusion(rho_a, rho_b, cfg))

    # Exact Fraction pooling; no config reaches it because JSON effects parse as floats.
    for n in (50, 100, 200):
        effects_a = [Fraction(int(k), 20) for k in rng.integers(1, 20, n)]
        effects_b = [Fraction(int(k), 20) for k in rng.integers(1, 20, n)]

        def pool():
            q_a = estimation.qubit_diagonal_posterior(effects_a)
            q_b = estimation.qubit_diagonal_posterior(effects_b)
            return estimation.pooled_predictive(q_a, q_b)

        out[f"sweep.exact_pooling.effects_{n}_ms"] = _time(pool)
    return out
