import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import (
    assert_same_bytes,
    is_psd,
    random_consistent_pair,
    random_density,
    random_intersection_state,
    residual_outside,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpool import cli, fusion, linalg
from qpool.estimation import _block_rows
from qpool.errors import (
    AmbiguityPreconditionError,
    DegenerateConstructionError,
    ImpossibleOutcomeError,
    InconsistentStatesError,
    PositivityError,
    ShapeError,
)
from qpool.fusion import (
    CommonTermDecomposition,
    HistoryMeasureConfig,
    TripartiteReport,
    averaged_fusion,
    check_consistency,
    decompose_common,
    demonstrate_ambiguity,
    max_common_weight,
    realize_pair,
    realize_tripartite,
    simulate_tripartite,
)
from qpool.haar import sample_amplitudes
from qpool.linalg import (
    TOL_RANK,
    dagger,
    ensure_density_matrix,
    ensure_states,
    hermitian_eig,
    support,
    support_cutoff,
    trace_distance,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def proj(vec):
    return np.outer(vec, np.conj(vec))


def bisect_max_weight(rho, sigma, iters: int = 60) -> float:
    """Independent oracle: bisection on the PSD test for rho - a * sigma."""
    lo, hi = 0.0, 1.0
    if not is_psd(rho - hi * sigma, tol=1e-12):
        for _ in range(iters):
            mid = (lo + hi) / 2
            if is_psd(rho - mid * sigma, tol=1e-12):
                lo = mid
            else:
                hi = mid
    else:
        lo = 1.0
    return lo


class TestCheckConsistency:
    def test_identical_pure(self):
        ok, inter = check_consistency(proj(KET0), proj(KET0))
        assert ok and inter.dimension == 1

    def test_orthogonal_pure(self):
        ok, inter = check_consistency(proj(KET0), proj(KET1))
        assert not ok and inter.dimension == 0

    def test_mixed_with_pure(self):
        ok, inter = check_consistency(np.eye(2) / 2, proj(KET_PLUS))
        assert ok and inter.dimension == 1
        assert residual_outside(inter.basis, KET_PLUS) <= 1e-10

    def test_self_consistency_gives_support(self):
        rng = np.random.default_rng(0)
        for dim, rank in ((2, 1), (3, 2), (4, 3)):
            rho = random_density(rng, dim, rank)
            ok, inter = check_consistency(rho, rho)
            assert ok and inter.dimension == rank
            sup = support(rho)
            assert residual_outside(inter.basis, sup.basis) <= 1e-9
            assert residual_outside(sup.basis, inter.basis) <= 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            check_consistency(np.eye(2) / 2, np.eye(3) / 3)


class TestMaxCommonWeight:
    def test_equal_states(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 3)
        assert max_common_weight(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_pure_inside_mixed(self):
        # Remainder diag(1/2 - a, 1/2) first touches zero at a = 1/2.
        assert max_common_weight(np.eye(2) / 2, proj(KET0)) == pytest.approx(0.5, abs=1e-12)

    def test_unsupported_sigma(self):
        assert max_common_weight(proj(KET0), proj(KET_PLUS)) == 0.0

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            sigma = random_density(rng, dim, rank=int(rng.integers(1, dim + 1)))
            weight = max_common_weight(rho, sigma)
            assert weight == pytest.approx(bisect_max_weight(rho, sigma), abs=1e-10)
            assert is_psd(rho - weight * sigma, tol=1e-9)

    def test_one_only_for_equal_states(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            assert max_common_weight(rho, sigma) < 1.0 - 1e-9
        rho = random_density(rng, 4)
        assert max_common_weight(rho, rho) >= 1.0 - 1e-9


class TestDecomposeCommon:
    def test_hand_subtraction(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        for p, phi in (dec.remainder_a, dec.remainder_b):
            assert p.shape == (1,) and phi.shape == (2, 1)
            assert p[0] == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(proj(phi[:, 0]), proj(KET1), atol=1e-12)

    def test_full_weight_leaves_no_remainder(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        dec = decompose_common(rho, rho, rho, 1.0, 1.0)
        for p, phi in (dec.remainder_a, dec.remainder_b):
            assert p.shape == (0,) and phi.shape == (3, 0)

    def test_excessive_weight_rejected(self):
        # rho - 0.6 sigma has eigenvalue -0.1.
        with pytest.raises(PositivityError):
            decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.6, 0.5)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            rho_a, rho_b, common = random_consistent_pair(rng, dim)
            sigma = random_intersection_state(rng, common, mixed=bool(rng.integers(0, 2)))
            alpha = max_common_weight(rho_a, sigma) / 2
            beta = max_common_weight(rho_b, sigma) / 2
            dec = decompose_common(rho_a, rho_b, sigma, alpha, beta)
            np.testing.assert_allclose(dec.reconstruct_a(), rho_a, atol=1e-10)
            np.testing.assert_allclose(dec.reconstruct_b(), rho_b, atol=1e-10)
            assert abs(dec.alpha + sum(dec.remainder_a[0]) - 1.0) <= 1e-9


class TestRealizeTripartite:
    def test_qubit_example_dimensions_and_norm(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        psi = realize_tripartite(dec)
        assert psi.shape == (2, 2, 2)
        # lam_1 + p_A/alpha + p_B/beta = 1 + 1 + 1.
        assert np.vdot(psi, psi).real == pytest.approx(3.0, abs=1e-12)

    def test_pure_common_state_single_term(self):
        sigma = proj(KET_PLUS)
        dec = decompose_common(sigma, sigma, sigma, 1.0, 1.0)
        psi = realize_tripartite(dec)
        assert psi.shape == (2, 1, 1)
        np.testing.assert_allclose(psi[:, 0, 0], KET_PLUS.astype(complex), atol=1e-12)

    def test_full_weight_mixed_sigma(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2, 1.0, 1.0)
        lam, phi = dec.sigma_support
        assert realize_tripartite(dec).shape == (2, 2, 2) and lam.size == 2
        report = simulate_tripartite(dec)
        for n, state in enumerate(report.alice_outcome_states):
            np.testing.assert_allclose(state, proj(phi[:, n]), atol=1e-12)
        np.testing.assert_allclose(report.rho_a_recovered, np.eye(2) / 2, atol=1e-12)

    def test_zero_weight_rejected(self):
        # The (0, 1] rule is applied once, when the decomposition is built.
        with pytest.raises(DegenerateConstructionError, match="alpha"):
            decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.0, 0.5)


class TestSimulateTripartite:
    def test_qubit_example_numbers(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        report = simulate_tripartite(dec)
        assert report.outcome_probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert report.predicted_probs[0] == pytest.approx(2 / 3, abs=1e-12)
        np.testing.assert_allclose(report.rho_a_recovered, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(report.rho_b_recovered, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(report.charlie_state, proj(KET0), atol=1e-12)

    def test_pure_common_case(self):
        sigma = proj(KET_PLUS)
        report = simulate_tripartite(decompose_common(sigma, sigma, sigma, 1.0, 1.0))
        assert report.outcome_probs[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report.charlie_state, sigma, atol=1e-12)

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            rho_a, rho_b, common = random_consistent_pair(rng, dim)
            sigma = random_intersection_state(rng, common, mixed=bool(rng.integers(0, 2)))
            alpha = max_common_weight(rho_a, sigma) / 2
            beta = max_common_weight(rho_b, sigma) / 2
            dec = decompose_common(rho_a, rho_b, sigma, alpha, beta)
            report = simulate_tripartite(dec)
            np.testing.assert_allclose(report.rho_a_recovered, rho_a, atol=1e-10)
            np.testing.assert_allclose(report.rho_b_recovered, rho_b, atol=1e-10)
            np.testing.assert_allclose(report.charlie_state, sigma, atol=1e-10)
            np.testing.assert_allclose(
                report.outcome_probs, report.predicted_probs, atol=1e-12
            )


class TestDemonstrateAmbiguity:
    def test_distinct_pooled_states_for_mixed_marginals(self):
        report = demonstrate_ambiguity(
            np.eye(2) / 2, np.eye(2) / 2, proj(KET0), proj(KET_PLUS)
        )
        # Trace distance of two pure qubit states: sqrt(1 - 1/2).
        assert report.distance == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert max(report.charlie_deviations) <= 1e-10

    def test_equal_candidates_give_zero_distance(self):
        report = demonstrate_ambiguity(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), proj(KET0))
        assert report.distance <= 1e-12

    def test_candidate_outside_intersection(self):
        with pytest.raises(AmbiguityPreconditionError):
            demonstrate_ambiguity(proj(KET0), proj(KET0), proj(KET0), proj(KET1))

    def test_disjoint_supports(self):
        with pytest.raises(AmbiguityPreconditionError):
            demonstrate_ambiguity(proj(KET0), proj(KET1), proj(KET0), proj(KET0))

    def test_candidate_of_another_dimension(self):
        with pytest.raises(ShapeError):
            demonstrate_ambiguity(np.eye(2) / 2, np.eye(2) / 2, np.eye(3) / 3, np.eye(2) / 2)

    def test_one_dimensional_intersection_pins_the_pooled_state(self):
        # d=3: supports span{e0,e1} and span{e0,e2} meet only along e0, so
        # every admissible candidate collapses to the same pure state.
        eye = np.eye(3)
        rho_a = 0.6 * proj(eye[:, 0]) + 0.4 * proj(eye[:, 1])
        rho_b = 0.7 * proj(eye[:, 0]) + 0.3 * proj(eye[:, 2])
        report = demonstrate_ambiguity(rho_a, rho_b, proj(eye[:, 0]), proj(eye[:, 0]))
        assert report.distance <= 1e-9
        np.testing.assert_allclose(report.reports[0].charlie_state, proj(eye[:, 0]), atol=1e-10)


class TestAveragedFusion:
    def test_one_dimensional_intersection_is_forced(self):
        cfg = HistoryMeasureConfig(n_samples=100, seed=5)
        fused = averaged_fusion(proj(KET0), proj(KET0), cfg)
        np.testing.assert_allclose(fused, proj(KET0), atol=1e-12)

    def test_symmetric_family_recovers_maximally_mixed(self):
        cfg = HistoryMeasureConfig(n_samples=100_000, seed=11)
        fused = averaged_fusion(np.eye(2) / 2, np.eye(2) / 2, cfg)
        np.testing.assert_allclose(fused, np.eye(2) / 2, atol=5e-3)

    def test_inconsistent_states(self):
        with pytest.raises(InconsistentStatesError):
            averaged_fusion(proj(KET0), proj(KET1), HistoryMeasureConfig(n_samples=10))

    def test_support_stays_inside_intersection(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho_a, rho_b, common = random_consistent_pair(rng, 4, overlap=2)
            fused = averaged_fusion(rho_a, rho_b, HistoryMeasureConfig(n_samples=500, seed=3))
            _, inter = check_consistency(rho_a, rho_b)
            projected = inter.projector() @ fused @ inter.projector()
            assert float(np.abs(fused - projected).max()) <= 1e-9
            assert is_psd(fused) and abs(np.trace(fused).real - 1.0) <= 1e-12

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        rho_a, rho_b, _ = random_consistent_pair(rng, 3)
        cfg = HistoryMeasureConfig(n_samples=2_000, seed=42)
        np.testing.assert_array_equal(
            averaged_fusion(rho_a, rho_b, cfg), averaged_fusion(rho_a, rho_b, cfg)
        )

    def test_underflowing_weights_rejected(self):
        cfg = HistoryMeasureConfig(n_samples=10, weight_exponent=1e308)
        with pytest.raises(ImpossibleOutcomeError):
            averaged_fusion(np.eye(2) / 2, np.eye(2) / 2, cfg)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            HistoryMeasureConfig(n_samples=0)


class TestRealizePair:
    def test_default_weights_are_half_the_admissible_maximum(self):
        rng = np.random.default_rng(12)
        rho_a, rho_b, common = random_consistent_pair(rng, 3, overlap=2)
        sigma = random_intersection_state(rng, common)
        dec, alpha_max, beta_max, _ = realize_pair(rho_a, rho_b, sigma)
        assert dec.alpha == alpha_max / 2.0 and dec.beta == beta_max / 2.0
        assert alpha_max == max_common_weight(rho_a, sigma)

    def test_explicit_weights_are_used(self):
        half = np.eye(2) / 2
        dec, _, _, report = realize_pair(half, half, np.outer(KET0, KET0), 0.25, 0.5)
        assert (dec.alpha, dec.beta) == (0.25, 0.5)
        np.testing.assert_allclose(report.rho_a_recovered, half, atol=1e-12)

    @pytest.mark.parametrize(
        "rho_a, rho_b, sigma",
        [
            # sigma's eps lies below its own rank cutoff (5e-10) and outside rho_b's
            # support, whose 4.8e-13 is below rho_b's cutoff.
            (np.diag([0.5, 0.5 - eps, eps]), np.diag([0.6, 0.4 - 4.8e-13, 4.8e-13]), np.diag([0.5, 0.5 - eps, eps]))
            for eps in (3e-10, 1.5e-10)
        ]
        + [
            # Several eigenvalues of sigma below its cutoff, inside both supports: together
            # they weigh more than TOL_TRACE, so the common term's trace is below 1.
            (np.diag([1 - 3e-8] + [1e-8] * 3),) * 2 + (np.diag([1 - 2.7e-9] + [0.9e-9] * 3),),
            (np.diag([1 - 2e-8] + [1e-8] * 2),) * 2 + (np.diag([1 - 1.9e-9] + [0.95e-9] * 2),),
        ],
        ids=["one-below-3e-10", "one-below-1.5e-10", "three-below-d4", "two-below-d3"],
    )
    def test_sigma_below_its_rank_cutoff_realizes_at_every_returned_weight(self, rho_a, rho_b, sigma):
        # One rank decision for sigma must serve the remainders, the weight total,
        # the reconstruction and the realization.
        _, alpha_max, beta_max, at_half = realize_pair(rho_a, rho_b, sigma)
        at_max = realize_pair(rho_a, rho_b, sigma, alpha_max, beta_max)[-1]
        for report in (at_half, at_max):
            np.testing.assert_allclose(report.rho_a_recovered, rho_a, rtol=0, atol=1e-10)
            np.testing.assert_allclose(report.rho_b_recovered, rho_b, rtol=0, atol=1e-10)

    def test_sigma_outside_a_support_rejected(self):
        with pytest.raises(AmbiguityPreconditionError):
            realize_pair(np.outer(KET0, KET0), np.eye(2) / 2, np.outer(KET1, KET1))
        with pytest.raises(AmbiguityPreconditionError):
            realize_pair(np.outer(KET0, KET0), np.eye(2) / 2, np.outer(KET1, KET1), 0.5, 0.5)


def reference_realize(dec) -> np.ndarray:
    """The realization by definition: each term a Kronecker product summed into psi.

    ``dec.sigma`` is the support part built from ``dec.sigma_support``, so those
    eigenpairs are sigma's by definition.
    """
    lam, phi = dec.sigma_support
    n_common = int(lam.size)
    dim_s = dec.dim
    (p_a, phi_a), (p_b, phi_b) = dec.remainder_a, dec.remainder_b
    dim_a = n_common + p_b.size
    dim_b = n_common + p_a.size
    uniform_a = np.zeros(dim_a, dtype=complex)
    uniform_a[:n_common] = 1.0 / np.sqrt(n_common)
    uniform_b = np.zeros(dim_b, dtype=complex)
    uniform_b[:n_common] = 1.0 / np.sqrt(n_common)
    psi = np.zeros(dim_s * dim_a * dim_b, dtype=complex)  # S (x) S_A (x) S_B, S most significant

    def add(coeff, sys_vec, a_vec, b_vec):
        psi[:] += coeff * np.kron(np.kron(sys_vec, a_vec), b_vec)

    basis_a = np.eye(dim_a, dtype=complex)
    basis_b = np.eye(dim_b, dtype=complex)
    for n in range(n_common):
        add(np.sqrt(lam[n]), phi[:, n], basis_a[n], basis_b[n])
    for k in range(p_a.size):
        add(np.sqrt(p_a[k] / dec.alpha), phi_a[:, k], uniform_a, basis_b[n_common + k])
    for l in range(p_b.size):
        add(np.sqrt(p_b[l] / dec.beta), phi_b[:, l], basis_a[n_common + l], uniform_b)
    return psi.reshape(dim_s, dim_a, dim_b)


def reference_simulate(dec, psi3: np.ndarray) -> TripartiteReport:
    """The report arrays by definition: one pass per observer over the common outcomes."""
    lam = dec.sigma_support[0]
    n_common, dim_s = lam.size, dec.dim
    norm_sq = float(np.vdot(psi3, psi3).real)
    outcome_probs = np.zeros(n_common)
    alice_states = []
    a_accum = np.zeros((dim_s, dim_s), dtype=complex)
    a_weight = 0.0
    for n in range(n_common):
        block = psi3[:, n, :]
        weight = float(np.vdot(block, block).real)
        outcome_probs[n] = weight / norm_sq
        term = block @ dagger(block)
        alice_states.append(term / weight)
        a_accum += term
        a_weight += weight
    b_accum = np.zeros((dim_s, dim_s), dtype=complex)
    b_weight = 0.0
    for m in range(n_common):
        block = psi3[:, :, m]
        b_accum += block @ dagger(block)
        b_weight += float(np.vdot(block, block).real)
    c_accum = np.zeros((dim_s, dim_s), dtype=complex)
    c_weight = 0.0
    for n in range(n_common):
        vec = psi3[:, n, n]
        c_accum += np.outer(vec, vec.conj())
        c_weight += float(np.vdot(vec, vec).real)
    predicted = (lam + (1.0 - dec.alpha) / (dec.alpha * n_common)) / norm_sq
    return TripartiteReport(
        outcome_probs,
        predicted,
        tuple(alice_states),
        a_accum / a_weight,
        b_accum / b_weight,
        c_accum / c_weight,
        norm_sq,
    )


@st.composite
def consistent_pairs(draw, max_dim: int, candidates: int = 1, min_overlap: int = 1):
    """``(rho_a, rho_b, sigma, ...)``: each sigma, pure or mixed, inside the support intersection.

    The intersection has dimension at least ``min_overlap``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if min_overlap == 1:
        rho_a, rho_b, common = random_consistent_pair(rng, int(rng.integers(1, max_dim + 1)))
    else:
        overlap = int(rng.integers(min_overlap, max_dim + 1))
        rho_a, rho_b, common = random_consistent_pair(rng, int(rng.integers(overlap, max_dim + 1)), overlap)
    sigmas = [
        random_intersection_state(rng, common, mixed=draw(st.booleans())) for _ in range(candidates)
    ]
    return (rho_a, rho_b, *sigmas)


@st.composite
def decompositions(draw):
    """Decompositions at dims 1-8: full weight (no remainders) or explicit partial weights."""
    rho_a, rho_b, sigma = draw(consistent_pairs(8))
    if draw(st.booleans()):
        return decompose_common(sigma, sigma, sigma, 1.0, 1.0)
    alpha = draw(st.floats(0.05, 1.0)) * max_common_weight(rho_a, sigma)
    beta = draw(st.floats(0.05, 1.0)) * max_common_weight(rho_b, sigma)
    return decompose_common(rho_a, rho_b, sigma, alpha, beta)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(decompositions())
def test_realization_matches_reference(dec):
    psi, expected_psi = realize_tripartite(dec), reference_realize(dec)
    assert_same_bytes(psi, expected_psi)
    report, expected_report = simulate_tripartite(dec), reference_simulate(dec, expected_psi)
    for f in dataclasses.fields(report):
        assert_same_bytes(getattr(report, f.name), getattr(expected_report, f.name))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6), st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_realization_round_trip(pair, fraction):
    rho_a, rho_b, sigma = pair
    alpha = beta = None
    if fraction is not None:
        alpha = fraction * max_common_weight(rho_a, sigma)
        beta = fraction * max_common_weight(rho_b, sigma)
    _, _, _, report = realize_pair(rho_a, rho_b, sigma, alpha, beta)
    np.testing.assert_allclose(report.rho_a_recovered, rho_a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(report.rho_b_recovered, rho_b, rtol=0, atol=1e-10)
    np.testing.assert_allclose(report.charlie_state, sigma, rtol=0, atol=1e-10)
    np.testing.assert_allclose(report.outcome_probs, report.predicted_probs, rtol=0, atol=1e-10)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6))
def test_max_common_weight_is_tight(pair):
    rho_a, rho_b, sigma = pair
    for rho in (rho_a, rho_b):
        weight = max_common_weight(rho, sigma)
        remainder = rho - weight * sigma
        assert is_psd(remainder)
        if weight < 1.0:
            basis = support(rho).basis
            compressed = dagger(basis) @ remainder @ basis
            assert abs(float(np.linalg.eigvalsh(compressed)[0])) <= 1e-9


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# (eigvalsh, eigh, Hermiticity passes) per shipped config that validates a
# matrix.  They stay out of the test ids, so changing a count renames no test.
EIGEN_SOLVES = {
    "realize": (2, 5, 5),
    "ambiguity": (7, 8, 14),
    "fuse": (0, 2, 2),
    "consistency": (0, 2, 2),
    "history": (0, 4, 4),
    "estimate": (0, 2, 2),
}


@pytest.mark.parametrize("kind", EIGEN_SOLVES)
def test_each_state_is_eigendecomposed_once_per_entry_point(kind, monkeypatch):
    """Eigen-solves per shipped config: one symmetrize and one eigh per validated state or effect."""
    counts = dict.fromkeys(("eigvalsh", "eigh", "ensure_hermitian"), 0)
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"), (linalg, "ensure_hermitian")):
        solve = getattr(module, name)

        def counted(*args, _name=name, _solve=solve, **kwargs):
            counts[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cli.run_scenario(json.loads((SHIPPED_CONFIGS / f"{kind}.json").read_text()))
    assert tuple(counts.values()) == EIGEN_SOLVES[kind], counts


# Calls per shipped config to these fusion functions, in this order.
FUSION_CALL_NAMES = ("check_consistency", "support", "max_common_weight", "decompose_common", "realize_tripartite")
FUSION_CALLS = {
    "consistency": (1, 2, 0, 0, 0),
    "realize": (0, 0, 2, 1, 1),
    "ambiguity": (1, 2, 4, 2, 2),
    "fuse": (1, 2, 0, 0, 0),
}


@pytest.mark.parametrize("kind", FUSION_CALLS)
def test_fusion_work_goes_through_the_public_functions(kind, monkeypatch):
    """Counted through fusion's module attributes, where a tracer wraps them."""
    counts = dict.fromkeys(FUSION_CALL_NAMES, 0)
    for name in FUSION_CALL_NAMES:

        def counted(*args, _name=name, _call=getattr(fusion, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(fusion, name, counted)
    cli.run_scenario(json.loads((SHIPPED_CONFIGS / f"{kind}.json").read_text()))
    assert tuple(counts.values()) == FUSION_CALLS[kind], counts


def assert_same_tree(actual, expected) -> None:
    """``assert_same_bytes`` on every leaf of nested dataclasses and tuples."""
    if dataclasses.is_dataclass(actual):
        for f in dataclasses.fields(actual):
            assert_same_tree(getattr(actual, f.name), getattr(expected, f.name))
    elif isinstance(actual, tuple):
        assert isinstance(expected, tuple) and len(actual) == len(expected)
        for got, ref in zip(actual, expected):
            assert_same_tree(got, ref)
    else:
        assert_same_bytes(actual, expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6), st.one_of(st.none(), st.floats(0.05, 1.0)))
def test_realize_pair_matches_the_public_composition(pair, fraction):
    rho_a, rho_b, sigma = pair
    a_max, b_max = max_common_weight(rho_a, sigma), max_common_weight(rho_b, sigma)
    alpha = a_max / 2.0 if fraction is None else fraction * a_max
    beta = b_max / 2.0 if fraction is None else fraction * b_max
    dec = decompose_common(rho_a, rho_b, sigma, alpha, beta)
    report = simulate_tripartite(dec)
    weights = (None, None) if fraction is None else (alpha, beta)
    assert_same_tree(realize_pair(rho_a, rho_b, sigma, *weights), (dec, a_max, b_max, report))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(5, candidates=2))
def test_each_ambiguity_report_is_realize_pair_for_its_sigma(case):
    rho_a, rho_b, *sigmas = case
    ambiguity = demonstrate_ambiguity(rho_a, rho_b, *sigmas)
    expected = tuple(realize_pair(rho_a, rho_b, sigma)[-1] for sigma in sigmas)
    assert_same_tree(ambiguity.reports, expected)
    deviations = tuple(trace_distance(r.charlie_state, sigma) for r, sigma in zip(expected, sigmas))
    assert_same_tree(ambiguity.charlie_deviations, deviations)
    assert_same_bytes(
        ambiguity.distance, trace_distance(expected[0].charlie_state, expected[1].charlie_state)
    )


def test_decomposition_builds_sigma_from_its_support():
    dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
    with pytest.raises(TypeError):
        CommonTermDecomposition(np.eye(2) / 2, dec.sigma_support, 0.5, 0.5, dec.remainder_a, dec.remainder_b)
    assert not dec.sigma.flags.writeable and not realize_tripartite(dec).flags.writeable


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(8))
def test_fusion_reuses_the_validation_eigenpairs_bit_for_bit(pair):
    for state in pair:
        rho, *eig = ensure_density_matrix(state)
        assert_same_tree(tuple(eig), hermitian_eig(rho))
    dec = realize_pair(*pair)[0]
    lam, phi = support_cutoff(*hermitian_eig(pair[2]), TOL_RANK)
    assert_same_tree(dec.sigma_support, (lam, phi))
    assert_same_bytes(dec.sigma, (phi * lam) @ dagger(phi))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6, candidates=2), st.floats(0.05, 1.0))
def test_fusion_gives_the_same_bytes_for_raw_matrices_and_states(raw, fraction):
    states = tuple(ensure_states(rho_a=raw[0], rho_b=raw[1], sigma_1=raw[2], sigma_2=raw[3]))
    alpha = fraction * max_common_weight(raw[0], raw[2])
    beta = fraction * max_common_weight(raw[1], raw[2])
    calls = (
        lambda a, b, s1, s2: check_consistency(a, b),
        lambda a, b, s1, s2: (max_common_weight(a, s1), max_common_weight(b, s2)),
        lambda a, b, s1, s2: decompose_common(a, b, s1, alpha, beta),
        lambda a, b, s1, s2: realize_pair(a, b, s1),
        lambda a, b, s1, s2: realize_pair(a, b, s1, alpha, beta),
        lambda a, b, s1, s2: demonstrate_ambiguity(a, b, s1, s2),
        lambda a, b, s1, s2: averaged_fusion(a, b, HistoryMeasureConfig(n_samples=50, seed=3)),
    )
    for call in calls:
        assert_same_tree(call(*states), call(*raw))


def psd_edge_state(lam_min: float) -> np.ndarray:
    """A qutrit state with spectrum (1/2, 1/2 - lam_min, lam_min) in a fixed non-diagonal basis."""
    rot = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + 1j * np.eye(3))[0]
    return rot @ np.diag([0.5, 0.5 - lam_min, lam_min]) @ dagger(rot)


MIXED3 = np.eye(3) / 3
PSD_EDGE_ENTRY_POINTS = {
    "support": support,
    "check_consistency": lambda s: check_consistency(s, MIXED3),
    "max_common_weight": lambda s: max_common_weight(MIXED3, s),
    "decompose_common": lambda s: decompose_common(MIXED3, MIXED3, s, 0.5, 0.5),
    "realize_pair": lambda s: realize_pair(MIXED3, MIXED3, s),
    "demonstrate_ambiguity": lambda s: demonstrate_ambiguity(MIXED3, MIXED3, s, MIXED3),
    "averaged_fusion": lambda s: averaged_fusion(s, MIXED3, HistoryMeasureConfig(n_samples=4)),
}


@pytest.mark.parametrize("entry", sorted(PSD_EDGE_ENTRY_POINTS))
@pytest.mark.parametrize("lam_min, accepted", [(-2e-9, False), (-5e-10, True)])
def test_psd_edge_is_decided_by_the_validation_eigen_solve(entry, lam_min, accepted):
    """TOL_PSD is 1e-9 and lambda_max is 1/2, so -2e-9 is rejected and -5e-10 accepted."""
    call = PSD_EDGE_ENTRY_POINTS[entry]
    if accepted:
        call(psd_edge_state(lam_min))
    else:
        with pytest.raises(PositivityError, match="has negative eigenvalue"):
            call(psd_edge_state(lam_min))


def reference_averaged_fusion(rho_a, rho_b, cfg: HistoryMeasureConfig) -> np.ndarray:
    """The route through ``check_consistency`` and a support pseudo-inverse per state."""

    def support_pinv(rho):
        lam, basis = support_cutoff(*hermitian_eig(rho), TOL_RANK)
        return (basis / lam) @ dagger(basis)

    consistent, intersection = check_consistency(rho_a, rho_b)
    assert consistent
    local = sample_amplitudes(intersection.dimension, int(cfg.n_samples), np.random.default_rng(cfg.seed))
    states = local @ intersection.basis.T
    alpha = 0.5 / np.einsum("nd,dc,nc->n", states.conj(), support_pinv(rho_a), states).real
    beta = 0.5 / np.einsum("nd,dc,nc->n", states.conj(), support_pinv(rho_b), states).real
    weights = (1.0 / (1.0 + (1.0 - alpha) / alpha + (1.0 - beta) / beta)) ** cfg.weight_exponent
    fused = (states.T * weights) @ states.conj() / weights.sum()
    return (fused + dagger(fused)) / 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6), st.integers(1, 300), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_averaged_fusion_matches_the_check_consistency_route(pair, n_samples, seed, exponent):
    rho_a, rho_b, _ = pair
    cfg = HistoryMeasureConfig(n_samples=n_samples, seed=seed, weight_exponent=exponent)
    np.testing.assert_allclose(
        averaged_fusion(rho_a, rho_b, cfg), reference_averaged_fusion(rho_a, rho_b, cfg), rtol=0, atol=1e-13
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6), st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-700.0, 700.0))
def test_averaged_fusion_weighs_each_sample_by_its_realized_norm(pair, n_samples, seed, exponent):
    """Each sample s weighs ``norm_psi_sq ** -exponent`` of the scenario realizing |s><s|.

    The weights are normalized in mpmath, so exponents whose float powers
    underflow or overflow (|exponent| above about 650) still have a reference.
    """
    rho_a, rho_b, _ = pair
    _, intersection = check_consistency(rho_a, rho_b)
    local = sample_amplitudes(intersection.dimension, n_samples, np.random.default_rng(seed))
    states = local @ intersection.basis.T
    norms = [realize_pair(rho_a, rho_b, proj(s))[-1].norm_psi_sq for s in states]
    powers = [mpmath.mpf(x) ** -exponent for x in norms]
    total = mpmath.fsum(powers)
    weights = np.array([float(w / total) for w in powers])
    cfg = HistoryMeasureConfig(n_samples=n_samples, seed=seed, weight_exponent=exponent)
    np.testing.assert_allclose(
        averaged_fusion(rho_a, rho_b, cfg), (states.T * weights) @ states.conj(), rtol=0, atol=1e-13
    )


def one_shot_averaged_fusion(rho_a, rho_b, cfg: HistoryMeasureConfig) -> np.ndarray:
    """``averaged_fusion`` with every sample at once: all weights taken against the top of all,
    normalized as reals, and one weighted copy of the samples multiplied into their real Gram."""
    a, b = ensure_states(rho_a=rho_a, rho_b=rho_b)
    consistent, intersection = check_consistency(a, b)
    assert consistent
    basis, k = intersection.basis, intersection.dimension
    quad = -np.eye(k)
    for lam, vecs in (support_cutoff(s.vals, s.vecs, TOL_RANK) for s in (a, b)):
        c = (dagger(vecs) @ basis) / np.sqrt(lam)[:, None]
        quad = quad + 2.0 * (dagger(c) @ c)
    real_quad = np.kron(quad.real, np.eye(2)) + np.kron(quad.imag, [[0.0, -1.0], [1.0, 0.0]])
    parts = sample_amplitudes(k, int(cfg.n_samples), np.random.default_rng(cfg.seed)).view(np.float64)
    norm_sq = np.einsum("ij,ij->i", parts @ real_quad, parts)
    with np.errstate(over="ignore"):
        log_w = -cfg.weight_exponent * np.log(norm_sq)
    top = log_w.max()
    if not np.isfinite(top):
        raise ImpossibleOutcomeError(f"top log-weight {float(top)!r} at exponent {cfg.weight_exponent!r}")
    weights = np.exp(log_w - top)
    weights = weights / weights.max()
    gram = (parts.T * (weights / weights.sum())) @ parts
    local = (gram[0::2, 0::2] + gram[1::2, 1::2]) + 1j * (gram[1::2, 0::2] - gram[0::2, 1::2])
    fused = basis @ ((local + dagger(local)) / 2) @ dagger(basis)
    return (fused + dagger(fused)) / 2


@st.composite
def streamed_pairs(draw, k: int):
    """``(rho_a, rho_b, n_samples)``: an intersection of dimension k, and n_samples of 1, one
    block of rows less one, one block, one block and one row, or two to four blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho_a, rho_b, _ = random_consistent_pair(rng, k + draw(st.integers(0, 8 - k)), overlap=k)
    rows = _block_rows(k)
    n_samples = draw(st.sampled_from([1, rows - 1, rows, rows + 1, None]))
    if n_samples is None:
        n_samples = draw(st.integers(2 * rows, 4 * rows))
    return rho_a, rho_b, n_samples


@pytest.mark.parametrize("k", range(1, 9))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_streamed_fusion_matches_the_one_shot_reference(k, data):
    """Both sum the same n weighted rank-one terms, each entry at most 1 once the weights are
    normalized, in another order.  Recursive summation of n terms errs by at most about n eps of
    their total (Higham, ch. 4), once in the Gram and once in the weight total, and the streamed
    sum adds one rounding per block where a rescale by exp(old top - new top) falls.  An absolute
    tolerance of 4 n eps covers all three."""
    exponent = data.draw(st.floats(-700.0, 700.0))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rho_a, rho_b, n_samples = data.draw(streamed_pairs(k))
    cfg = HistoryMeasureConfig(n_samples=n_samples, seed=seed, weight_exponent=exponent)
    atol = 4 * n_samples * np.finfo(float).eps
    np.testing.assert_allclose(
        averaged_fusion(rho_a, rho_b, cfg), one_shot_averaged_fusion(rho_a, rho_b, cfg), rtol=0, atol=atol
    )


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("exponent", [-700.0, -1.0, 1.0, 700.0])
def test_rescaled_blocks_match_the_one_shot_reference(k, exponent):
    """Four blocks and three rows, so later blocks bring new top log-weights and rescale the sum."""
    rho_a, rho_b, _ = random_consistent_pair(np.random.default_rng(k), 8, overlap=k)
    n_samples = 4 * _block_rows(k) + 3
    cfg = HistoryMeasureConfig(n_samples=n_samples, seed=k, weight_exponent=exponent)
    np.testing.assert_allclose(
        averaged_fusion(rho_a, rho_b, cfg),
        one_shot_averaged_fusion(rho_a, rho_b, cfg),
        rtol=0,
        atol=4 * n_samples * np.finfo(float).eps,
    )


@pytest.mark.parametrize("k", range(1, 9))
def test_block_draws_are_the_single_draw(k):
    rows = _block_rows(k)
    n_samples = 3 * rows + 5
    rng = np.random.default_rng(k)
    blocks = [sample_amplitudes(k, min(rows, n_samples - start), rng) for start in range(0, n_samples, rows)]
    assert_same_bytes(np.concatenate(blocks), sample_amplitudes(k, n_samples, np.random.default_rng(k)))


@pytest.mark.parametrize("exponent", [1e308, -1e308, np.inf, np.nan])
def test_overflowing_log_weights_keep_the_one_shot_message(exponent):
    """At the maximally mixed qubit pair every <x|M|x> is 7, so +-1e308 log 7 overflows in every
    block, and a NaN exponent makes every log-weight NaN."""
    cfg = HistoryMeasureConfig(n_samples=3 * _block_rows(2) + 1, seed=4, weight_exponent=exponent)
    with pytest.raises(ImpossibleOutcomeError) as expected:
        one_shot_averaged_fusion(np.eye(2) / 2, np.eye(2) / 2, cfg)
    with pytest.raises(ImpossibleOutcomeError, match=f"^{re.escape(str(expected.value))}$"):
        averaged_fusion(np.eye(2) / 2, np.eye(2) / 2, cfg)


def test_fusion_memory_does_not_grow_with_the_sample_count():
    """At k = 8 a block is 4096 rows of 16 floats (512 kB); the traced peak holds a few block-sized
    buffers, whatever n_samples is."""
    rng = np.random.default_rng(21)
    a, b = ensure_states(rho_a=random_density(rng, 8), rho_b=random_density(rng, 8))
    peaks = []
    for n_samples in (50_000, 500_000):
        tracemalloc.start()
        try:
            averaged_fusion(a, b, HistoryMeasureConfig(n_samples=n_samples, seed=5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 4e6


MC_SIGMAS = 6.0  # as in perfbench/oracles.py: a Monte-Carlo entry lies within this many standard errors


def laplace_spectrum(m, w) -> list:
    """f_i = E[p_i (m.p)^-w] / E[(m.p)^-w] for p uniform on the simplex and 0 < w < k, by mpmath.

    With p = e / S (e_j iid Exp(1), S ~ Gamma(k) independent of p) and
    (m.e)^-w = Gamma(w)^-1 int_0^inf t^(w-1) exp(-t m.e) dt,

        f_i = (k - w)^-1 int t^(w-1) (1 + t m_i)^-1 prod_j (1 + t m_j)^-1 dt / int t^(w-1) prod_j (1 + t m_j)^-1 dt.

    Each integral is split at t = 1.  On (0, 1), t = s^(1/w); beyond, t = 1/u with u = s^(1/a),
    where u^(a-1) prod_j (u + m_j)^-1 is the integrand in u (a = k - w, plus 1 with the extra
    factor).  Both substitutions leave smooth integrands on [0, 1].
    """
    k, w = len(m), mpmath.mpf(w)

    def integral(extra):
        def lower(s):
            t = s ** (1 / w)
            out = 1 / (w * (1 + t * extra)) if extra is not None else 1 / w
            for mj in m:
                out /= 1 + t * mj
            return out

        a = k - w + (extra is not None)

        def upper(s):
            u = s ** (1 / a)
            out = 1 / (a * (u + extra)) if extra is not None else 1 / a
            for mj in m:
                out /= u + mj
            return out

        return mpmath.quad(lower, [0, 1]) + mpmath.quad(upper, [0, 1])

    with mpmath.workdps(20):
        total = integral(None)
        return [float(integral(mi) / total / (k - w)) for mi in m]


def intersection_basis(rho_a, rho_b) -> np.ndarray:
    """Orthonormal columns spanning the null space of [I - P_a; I - P_b], by numpy's eigh and SVD."""

    def outside(rho):
        vals, vecs = np.linalg.eigh(rho)
        kept = vecs[:, vals > 1e-9]
        return np.eye(rho.shape[0]) - kept @ dagger(kept)

    _, sv, vh = np.linalg.svd(np.vstack([outside(rho_a), outside(rho_b)]))
    return dagger(vh[sv < 1e-9])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(consistent_pairs(6, min_overlap=2), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_averaged_fusion_converges_to_the_laplace_integral(pair, fraction, seed):
    """In the eigenbasis of M = -I + 2 B^dag (rho_a^+ + rho_b^+) B the fused state is diag(f), f from
    ``laplace_spectrum``.  The standard error of each entry is sqrt(Var / ESS): ESS is the Kish
    effective sample size (sum w)^2 / sum w^2 of the sample weights w = <y|M|y>^-w, and Var the
    w^2-weighted variance of the entry of |y><y| about the exact value."""
    rho_a, rho_b, _ = pair
    basis = intersection_basis(rho_a, rho_b)
    k = basis.shape[1]
    exponent = fraction * k
    pinv = np.linalg.pinv(rho_a, rcond=1e-9, hermitian=True) + np.linalg.pinv(rho_b, rcond=1e-9, hermitian=True)
    m, frame = np.linalg.eigh(-np.eye(k) + 2 * dagger(basis) @ pinv @ basis)
    exact = np.diag(laplace_spectrum(m, exponent))
    assert abs(np.trace(exact) - 1) <= 1e-12

    cfg = HistoryMeasureConfig(n_samples=100_000, seed=seed, weight_exponent=exponent)
    fused = dagger(basis @ frame) @ averaged_fusion(rho_a, rho_b, cfg) @ (basis @ frame)

    y = sample_amplitudes(k, cfg.n_samples, np.random.default_rng(seed))  # Haar in any basis
    probs = np.abs(y) ** 2
    log_w = -exponent * np.log(probs @ m)
    w = np.exp(log_w - log_w.max())
    ess = w.sum() ** 2 / (w**2).sum()
    w2 = w**2 / (w**2).sum()
    var = np.einsum("n,nij->ij", w2, np.abs(y[:, :, None] * y[:, None, :].conj() - exact[None]) ** 2)
    se = np.sqrt(var / ess)
    assert np.all(np.abs(fused - exact) <= MC_SIGMAS * se)


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)
# Relative; closer knots make the recursion's 1 / (t_j+r - t_j) lose digits.  At k = 2 a pair of
# knots 1e-6 apart costs up to 1.1e-10 in the closed forms below, and 1e-9 apart up to 1e-7.
MIN_KNOT_GAP = 1e-6


def log_spline_moment(knots, w) -> float:
    """log int x^-w M(x | knots) dx, M the B-spline density with integral 1 on sorted knots t_0..t_n.

    M is evaluated by the Cox-de Boor recursion M_j,1 = 1 / (t_j+1 - t_j) on [t_j, t_j+1) and
    M_j,r = r ((x - t_j) M_j,r-1 + (t_j+r - x) M_j+1,r-1) / ((r - 1) (t_j+r - t_j)), whose terms
    are all >= 0, at 64 Gauss-Legendre nodes on each knot interval of positive length; the
    integral is their log-sum-exp, so it holds for any real w.
    """
    t = np.sort(np.asarray(knots, dtype=float))
    step = np.diff(t)
    lo, hi = t[:-1][step > 0], t[1:][step > 0]
    half = (hi - lo)[:, None] / 2
    x = ((lo + hi)[:, None] / 2 + half * GAUSS_NODES).ravel()
    # A doubled knot's empty interval holds no node, so its M_j,1 is 0 whatever it is divided by.
    spline = [((t[j] <= x) & (x < t[j + 1])) / max(step[j], np.finfo(float).tiny) for j in range(step.size)]
    for r in range(2, t.size):
        spline = [
            r * ((x - t[j]) * spline[j] + (t[j + r] - x) * spline[j + 1]) / ((r - 1) * (t[j + r] - t[j]))
            for j in range(t.size - r)
        ]
    with np.errstate(divide="ignore"):
        terms = np.log((half * GAUSS_WEIGHTS).ravel()) - w * np.log(x) + np.log(spline[0])
    top = terms.max()
    return float(top + np.log(np.exp(terms - top).sum()))


def spline_spectrum(m, w) -> np.ndarray:
    """f_i = E[p_i (m.p)^-w] / E[(m.p)^-w] for p uniform on the simplex, at any real w and k >= 2.

    m.p has the B-spline density M(x | m_1..m_k) (Curry and Schoenberg), and p_i times the flat
    density is 1/k times the Dirichlet density with alpha_i = 2, which is the spline with knot
    m_i doubled, so f_i = (1/k) int x^-w M(x | m, m_i) dx / int x^-w M(x | m) dx.
    """
    m = np.asarray(m, dtype=float)
    gaps = np.diff(np.sort(m))
    assert gaps.min() >= MIN_KNOT_GAP * m.max()
    total = log_spline_moment(m, w)
    return np.array([np.exp(log_spline_moment(np.append(m, mi), w) - total) / m.size for mi in m])


@pytest.mark.parametrize("k", range(2, 9))
def test_spline_spectrum_matches_the_closed_forms(k):
    """w = 0 gives f_i = 1/k; w = -1 gives E[p_i m.p] / E[m.p] = (sum m + m_i) / ((k + 1) sum m),
    from E[p_i^2] = 2 / (k (k + 1)) and E[p_i p_j] = 1 / (k (k + 1)).  Only rounding separates
    the spline integral from either, 1e-14 at most."""
    rng = np.random.default_rng(k)
    for _ in range(5):
        m = rng.uniform(3.0, 40.0, k)
        np.testing.assert_allclose(spline_spectrum(m, 0.0), np.full(k, 1 / k), rtol=0, atol=1e-14)
        np.testing.assert_allclose(spline_spectrum(m, -1.0), (m.sum() + m) / ((k + 1) * m.sum()), rtol=0, atol=1e-14)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_spline_spectrum_matches_the_laplace_integral(k):
    """Two independent routes for 0 < w < k: the spline integral and mpmath's ``laplace_spectrum``."""
    m = np.random.default_rng(10 + k).uniform(3.0, 40.0, k)
    for w in (0.3, k / 2, k - 0.3):
        np.testing.assert_allclose(spline_spectrum(m, w), laplace_spectrum(m, w), rtol=0, atol=1e-12)


# The weight exponents of the spline check, as functions of the intersection dimension k.
SPLINE_EXPONENTS = {
    "-2": lambda k: -2.0,
    "0": lambda k: 0.0,
    "k-1/2": lambda k: k - 0.5,
    "k": float,
    "k+3": lambda k: k + 3.0,
}


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("exponent_of_k", SPLINE_EXPONENTS.values(), ids=SPLINE_EXPONENTS)
def test_averaged_fusion_converges_to_the_spline_integral(k, exponent_of_k):
    """As ``test_averaged_fusion_converges_to_the_laplace_integral``, at w = -2, 0, k - 1/2, k and
    k + 3, where the Laplace route does not reach.  The random states' M spectra have gaps of at
    least MIN_KNOT_GAP relative, which ``spline_spectrum`` checks."""
    exponent = exponent_of_k(k)
    seed = 100 * k + list(SPLINE_EXPONENTS.values()).index(exponent_of_k)
    rng = np.random.default_rng(seed)
    rho_a, rho_b, _ = random_consistent_pair(rng, k + int(rng.integers(0, 7 - k)), overlap=k)
    basis = intersection_basis(rho_a, rho_b)
    pinv = np.linalg.pinv(rho_a, rcond=1e-9, hermitian=True) + np.linalg.pinv(rho_b, rcond=1e-9, hermitian=True)
    m, frame = np.linalg.eigh(-np.eye(k) + 2 * dagger(basis) @ pinv @ basis)
    exact = np.diag(spline_spectrum(m, exponent))
    assert abs(np.trace(exact) - 1) <= 1e-12

    cfg = HistoryMeasureConfig(n_samples=100_000, seed=seed, weight_exponent=exponent)
    fused = dagger(basis @ frame) @ averaged_fusion(rho_a, rho_b, cfg) @ (basis @ frame)

    y = sample_amplitudes(k, cfg.n_samples, np.random.default_rng(seed))  # Haar in any basis
    log_w = -exponent * np.log(np.abs(y) ** 2 @ m)
    w = np.exp(log_w - log_w.max())
    ess = w.sum() ** 2 / (w**2).sum()
    w2 = w**2 / (w**2).sum()
    var = np.einsum("n,nij->ij", w2, np.abs(y[:, :, None] * y[:, None, :].conj() - exact[None]) ** 2)
    se = np.sqrt(var / ess)
    assert np.all(np.abs(fused - exact) <= MC_SIGMAS * se)
