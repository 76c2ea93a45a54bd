"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import hashlib
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import random_consistent_pair, random_intersection_state, residual_outside
from scipy import stats

from qpool.cli import run_scenario
from qpool.classical import ProbDist, matrix_bayes_update, pool_classical, sequential_update
from qpool.estimation import (
    DiagonalEffect,
    WeightedStateEnsemble,
    audit_published_example,
    definetti_state,
    matching_beta,
    polynomial_predictive,
    posterior_update,
    predictive_populations,
    predictive_state,
    qubit_diagonal_posterior,
)
from qpool.fusion import (
    check_consistency,
    decompose_common,
    demonstrate_ambiguity,
    max_common_weight,
    simulate_tripartite,
)
from qpool.config import load_config
from qpool.haar import sample_amplitudes
from qpool.linalg import support
from qpool.reporting import canonical_json, emit_report

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def proj(vec):
    return np.outer(vec, np.conj(vec))


class _Stopwatch:
    def __init__(self, criterion: int, description: str, limit_s: float):
        self.criterion = criterion
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.2f} s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.criterion} exceeded its {self.limit_s:.0f} s budget"
            )
        return False


def random_model_rows(rng, n, n_outcomes):
    cond = rng.uniform(0.05, 1.0, (n_outcomes, n))
    return cond / cond.sum(axis=0, keepdims=True)


def test_criterion_1_classical_pooling_matches_joint_update():
    with _Stopwatch(1, "pooling equals the joint sequential update", 5.0):
        rng = np.random.default_rng(101)
        from qpool.classical import LikelihoodModel

        for _ in range(1000):
            n = int(rng.integers(2, 11))
            flat = ProbDist.flat(n)
            total = int(rng.integers(2, 7))
            split = int(rng.integers(1, total))
            evidence = [
                (LikelihoodModel(random_model_rows(rng, n, int(rng.integers(2, 5)))),
                 int(rng.integers(0, 2)))
                for _ in range(total)
            ]
            pooled = pool_classical(
                sequential_update(flat, evidence[:split]),
                sequential_update(flat, evidence[split:]),
            )
            joint = sequential_update(flat, evidence)
            assert np.abs(pooled.probs - joint.probs).max() <= 1e-12


def test_criterion_2_matrix_bayes_equals_vector_bayes():
    with _Stopwatch(2, "matrix-form Bayes equals vector Bayes on diagonals", 5.0):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            prior = rng.dirichlet(np.ones(n))
            row = rng.uniform(0.01, 1.0, n)
            post, prob = matrix_bayes_update(np.diag(prior), np.diag(row))
            expected = prior * row / (prior * row).sum()
            assert np.abs(np.diag(post).real - expected).max() <= 1e-12
            assert abs(prob - (prior * row).sum()) <= 1e-12


def test_criterion_3_published_numbers_at_alpha_half():
    with _Stopwatch(3, "published values: rho_A = sigma = I/2, beta = 3/4", 1.0):
        alpha, gamma = Fraction(1, 2), Fraction(1, 4)
        assert matching_beta(alpha, gamma) == Fraction(3, 4)  # exact rational
        q = qubit_diagonal_posterior([DiagonalEffect(alpha)])
        assert predictive_populations(q) == (Fraction(1, 2), Fraction(1, 2))
        assert predictive_populations(q.multiply(q)) == (Fraction(1, 2), Fraction(1, 2))
        # Float path agrees to 1e-12.
        np.testing.assert_allclose(
            polynomial_predictive(qubit_diagonal_posterior([0.5])), np.eye(2) / 2, atol=1e-12
        )


def test_criterion_4_discrepancy_audit_and_substitute():
    with _Stopwatch(4, "published pooled state refuted; substitute preserves it", 1.0):
        audit = audit_published_example()
        entries = {(e["quantity"], e["parameters"]): e for e in audit["entries"]}
        primary = "alpha=1/2, gamma=1/4"
        entry = entries["sigma_prime", primary]
        # Exact integrator: I/2, contradicting the published matrix; the
        # report must state both values and carry the symmetry sketch.
        assert entry["computed_exact"] == "diag(1/2, 1/2)"
        assert entry["published"] == "diag(299/406, 107/406)"
        assert entry["matches_published"] is False
        assert "r -> 1 - r" in entry["note"] and entry["symmetry_prediction"] == "I/2"

        alt = "alpha=3/4, gamma=3/10"
        assert entries["beta", alt]["computed_exact"] == "59/64"
        for name in ("rho_a", "rho_a_prime"):
            populations = entries[name, alt]["computed"]
            assert abs(populations[0] - 7 / 12) <= 1e-12
            assert abs(populations[1] - 5 / 12) <= 1e-12
        sigma = entries["sigma", alt]["computed"]
        assert abs(sigma[0] - 17 / 26) <= 1e-12
        sigma_prime = entries["sigma_prime", alt]["computed"]
        assert abs(sigma_prime[0] - 0.636624) <= 1e-6
        assert abs(sigma[0] - sigma_prime[0]) >= 0.015


def test_criterion_5_monte_carlo_matches_exact_integrals():
    with _Stopwatch(5, "MC predictive states match the polynomial path", 120.0):
        rng = np.random.default_rng(105)
        ensemble = WeightedStateEnsemble.from_prior(2, 1_000_000, seed=505)
        for _ in range(50):
            xs = rng.uniform(0.05, 0.95, size=int(rng.integers(1, 5)))
            updated = ensemble
            for x in xs:
                updated = posterior_update(updated, DiagonalEffect(x))
            mc = predictive_state(updated)
            exact = polynomial_predictive(qubit_diagonal_posterior(xs))
            assert np.abs(mc - exact).max() <= 5e-3


def test_criterion_6_realizability_round_trip():
    with _Stopwatch(6, "construction recovers both marginals and the common state", 30.0):
        rng = np.random.default_rng(106)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rho_a, rho_b, common = random_consistent_pair(rng, dim)
            sigma = random_intersection_state(rng, common, mixed=bool(rng.integers(0, 2)))
            alpha = max_common_weight(rho_a, sigma) / 2
            beta = max_common_weight(rho_b, sigma) / 2
            dec = decompose_common(rho_a, rho_b, sigma, alpha, beta)
            report = simulate_tripartite(dec)
            assert np.abs(report.rho_a_recovered - rho_a).max() <= 1e-10
            assert np.abs(report.rho_b_recovered - rho_b).max() <= 1e-10
            assert np.abs(report.charlie_state - sigma).max() <= 1e-10
            # P(n) against (lam_n + (1-alpha)/(alpha N)) / |Psi|^2.
            assert np.abs(report.outcome_probs - report.predicted_probs).max() <= 1e-12


def test_criterion_7_ambiguity_at_desk_scale():
    with _Stopwatch(7, "two realizations yield pooled states 1/sqrt(2) apart", 1.0):
        report = demonstrate_ambiguity(
            np.eye(2) / 2, np.eye(2) / 2, proj(KET0), proj(KET_PLUS)
        )
        assert abs(report.distance - 1 / np.sqrt(2)) <= 1e-9
        assert max(report.charlie_deviations) <= 1e-10


def test_criterion_8_invariant_measure_sampler():
    with _Stopwatch(8, "sampler moments, uniform population, two-copy state", 120.0):
        for dim in (2, 3):
            rng = np.random.default_rng(800 + dim)
            batches = (sample_amplitudes(dim, 200_000, rng) for _ in range(5))
            mean = sum(amps.T @ amps.conj() for amps in batches) / 1_000_000
            assert np.abs(mean - np.eye(dim) / dim).max() <= 5e-3
        populations = np.abs(sample_amplitudes(2, 100_000, np.random.default_rng(801))[:, 0]) ** 2
        assert stats.kstest(populations, "uniform").pvalue > 0.01
        # Exact two-copy state from entrywise phase/population integration.
        oracle = np.array(
            [
                [1 / 3, 0, 0, 0],
                [0, 1 / 6, 1 / 6, 0],
                [0, 1 / 6, 1 / 6, 0],
                [0, 0, 0, 1 / 3],
            ]
        )
        estimate = definetti_state(2, n_samples=1_000_000, seed=802)
        assert np.abs(estimate - oracle).max() <= 5e-3


def test_criterion_9_consistency_checker():
    with _Stopwatch(9, "consistency verdicts and forced pooled state", 5.0):
        ok, inter = check_consistency(proj(KET0), proj(KET1))
        assert not ok and inter.dimension == 0

        rng = np.random.default_rng(109)
        for dim, rank in ((2, 1), (3, 2), (4, 3)):
            from conftest import random_density

            rho = random_density(rng, dim, rank)
            ok, inter = check_consistency(rho, rho)
            sup = support(rho)
            assert ok and inter.dimension == sup.dimension == rank
            assert residual_outside(inter.basis, sup.basis) <= 1e-9
            assert residual_outside(sup.basis, inter.basis) <= 1e-9

        # One-dimensional intersection: the realization pipeline collapses
        # to a single possible pooled state.
        eye = np.eye(3)
        rho_a = 0.6 * proj(eye[:, 0]) + 0.4 * proj(eye[:, 1])
        rho_b = 0.7 * proj(eye[:, 0]) + 0.3 * proj(eye[:, 2])
        ok, inter = check_consistency(rho_a, rho_b)
        assert ok and inter.dimension == 1
        report = demonstrate_ambiguity(rho_a, rho_b, proj(eye[:, 0]), proj(eye[:, 0]))
        assert report.distance <= 1e-9


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# sha256 prefixes of each shipped config's reports: its canonical ``outputs``, its
# json report without ``wall_clock_s``, and its text and csv reports.
SHIPPED_DIGESTS = {
    "ambiguity": ("a0ddb4583bac7aa2", "73758ad8821ba3ad", "5287cee3e9f472da", "b0fb89d79850093f"),
    "consistency": ("30896940db9c4853", "6defb4250dac2067", "b1cd5b10f15fec4d", "4775ace3b8f3c163"),
    "estimate": ("807cd4d1c3a77d59", "021dec9cc0434796", "d90f079055450ebe", "b609e55bb8160b50"),
    "fuse": ("c85170fbf1b54adb", "bfe3d7ac0801918a", "7c5b8a04bc921f69", "81c978fd472c1ea3"),
    "history": ("19ebc95cbab7f0ce", "b5e56ce66853f71f", "6b0315b1e150aaea", "2565e2895ad1e168"),
    "pool-classical": ("4e24a818d9b77ebf", "81cfa742a96128bf", "823150dc65e5c2ff", "822b21b14f558a9d"),
    "realize": ("c198b33471e5b1ca", "16bbe649065db28b", "f01db8050e1057ad", "d60d065dc18591d7"),
    "reproduce-paper": ("432d4372da49ea16", "6d430eab00a37e04", "0bfddf73318f9358", "90410d4a4bcc9ade"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_reports_keep_their_bytes(name):
    report = run_scenario(load_config(CONFIG_DIR / f"{name}.json"))
    timeless = {key: value for key, value in report.items() if key != "wall_clock_s"}
    written = (
        canonical_json(report["outputs"]).encode(),
        emit_report(timeless, "json"),
        emit_report(report, "text"),
        emit_report(report, "csv"),
    )
    assert tuple(hashlib.sha256(data).hexdigest()[:16] for data in written) == SHIPPED_DIGESTS[name]
    assert sorted(SHIPPED_DIGESTS) == sorted(path.stem for path in CONFIG_DIR.glob("*.json"))
