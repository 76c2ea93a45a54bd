import numpy as np
import pytest
from conftest import (
    random_consistent_pair,
    random_density,
    random_intersection_state,
)

from qpool.errors import (
    AmbiguityPreconditionError,
    DegenerateConstructionError,
    ImpossibleOutcomeError,
    InconsistentStatesError,
    PositivityError,
    ShapeError,
)
from qpool.fusion import (
    HistoryMeasureConfig,
    averaged_fusion,
    check_consistency,
    decompose_common,
    demonstrate_ambiguity,
    max_common_weight,
    realize_pair,
    realize_tripartite,
    simulate_tripartite,
)
from qpool.linalg import is_psd, support

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
        assert inter.projection_residual(KET_PLUS.reshape(2, 1)) <= 1e-10

    def test_self_consistency_gives_support(self):
        rng = np.random.default_rng(0)
        for dim, rank in ((2, 1), (3, 2), (4, 3)):
            rho = random_density(rng, dim, rank)
            ok, inter = check_consistency(rho, rho)
            assert ok and inter.dimension == rank
            sup = support(rho)
            assert inter.projection_residual(sup.basis) <= 1e-9
            assert sup.projection_residual(inter.basis) <= 1e-9

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
        for terms in (dec.remainder_a, dec.remainder_b):
            assert len(terms) == 1
            weight, vec = terms[0]
            assert weight == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(proj(vec), proj(KET1), atol=1e-12)

    def test_full_weight_leaves_no_remainder(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        dec = decompose_common(rho, rho, rho, 1.0, 1.0)
        assert dec.remainder_a == () and dec.remainder_b == ()

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
            assert abs(dec.alpha + sum(p for p, _ in dec.remainder_a) - 1.0) <= 1e-9


class TestRealizeTripartite:
    def test_qubit_example_dimensions_and_norm(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        sc = realize_tripartite(dec)
        assert (sc.dim_s, sc.dim_a, sc.dim_b) == (2, 2, 2)
        # lam_1 + p_A/alpha + p_B/beta = 1 + 1 + 1.
        assert sc.norm_sq == pytest.approx(3.0, abs=1e-12)

    def test_pure_common_state_single_term(self):
        sigma = proj(KET_PLUS)
        dec = decompose_common(sigma, sigma, sigma, 1.0, 1.0)
        sc = realize_tripartite(dec)
        assert (sc.dim_s, sc.dim_a, sc.dim_b) == (2, 1, 1)
        np.testing.assert_allclose(sc.psi, KET_PLUS.astype(complex), atol=1e-12)

    def test_full_weight_mixed_sigma(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, np.eye(2) / 2, 1.0, 1.0)
        sc = realize_tripartite(dec)
        assert sc.n_common == 2
        report = simulate_tripartite(sc)
        for n, state in enumerate(report.alice_outcome_states):
            np.testing.assert_allclose(state, proj(sc.sigma_eigvecs[:, n]), atol=1e-12)
        np.testing.assert_allclose(report.rho_a_recovered, np.eye(2) / 2, atol=1e-12)

    def test_zero_weight_rejected(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        object.__setattr__(dec, "alpha", 0.0)
        with pytest.raises(DegenerateConstructionError):
            realize_tripartite(dec)


class TestSimulateTripartite:
    def test_qubit_example_numbers(self):
        dec = decompose_common(np.eye(2) / 2, np.eye(2) / 2, proj(KET0), 0.5, 0.5)
        report = simulate_tripartite(realize_tripartite(dec))
        assert report.outcome_probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert report.predicted_probs[0] == pytest.approx(2 / 3, abs=1e-12)
        np.testing.assert_allclose(report.rho_a_recovered, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(report.rho_b_recovered, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(report.charlie_state, proj(KET0), atol=1e-12)

    def test_pure_common_case(self):
        sigma = proj(KET_PLUS)
        report = simulate_tripartite(realize_tripartite(decompose_common(sigma, sigma, sigma, 1.0, 1.0)))
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
            report = simulate_tripartite(realize_tripartite(dec))
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

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            HistoryMeasureConfig(n_samples=10, family="not-a-family")

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

    def test_sigma_outside_a_support_rejected(self):
        with pytest.raises(AmbiguityPreconditionError):
            realize_pair(np.outer(KET0, KET0), np.eye(2) / 2, np.outer(KET1, KET1))
        with pytest.raises(AmbiguityPreconditionError):
            realize_pair(np.outer(KET0, KET0), np.eye(2) / 2, np.outer(KET1, KET1), 0.5, 0.5)
