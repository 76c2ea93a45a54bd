import tracemalloc

import numpy as np
import pytest
from conftest import random_unitary
from scipy import stats

from qpool.errors import ShapeError
from qpool.haar import sample_amplitudes


class TestSamplePureState:
    def test_one_dimensional(self):
        amps = sample_amplitudes(1, 1, np.random.default_rng(0))
        assert amps.shape == (1, 1)
        assert abs(amps[0, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_dimension_rejected(self):
        for n_samples in (1, 5):
            with pytest.raises(ShapeError):
                sample_amplitudes(0, n_samples, np.random.default_rng(0))

    def test_normalization_and_projector(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 5):
            amps = sample_amplitudes(dim, 1, rng)[0]
            assert (np.abs(amps) ** 2).sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(amps).max() <= 1.0 + 1e-12
            p = np.outer(amps, amps.conj())
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_qubit_population_is_uniform(self):
        # For d = 2 the flat simplex measure makes P_1 exactly uniform;
        # this fact underlies the exact polynomial integrals downstream.
        rng = np.random.default_rng(2)
        amps = sample_amplitudes(2, 100_000, rng)
        populations = np.abs(amps[:, 0]) ** 2
        assert stats.kstest(populations, "uniform").pvalue > 0.01

    def test_unitary_invariance_of_overlaps(self):
        # |<phi|psi>|^2 must be distributed identically before and after a
        # fixed unitary is applied to the samples.
        rng = np.random.default_rng(3)
        dim, n = 3, 100_000
        amps = sample_amplitudes(dim, n, rng)
        rotated = sample_amplitudes(dim, n, rng) @ random_unitary(rng, dim).T
        phi = sample_amplitudes(dim, 1, rng)[0]
        overlaps = np.abs(amps @ phi.conj()) ** 2
        overlaps_rotated = np.abs(rotated @ phi.conj()) ** 2
        assert stats.ks_2samp(overlaps, overlaps_rotated).pvalue > 0.01

    def test_phases_independent_of_probabilities(self):
        amps = sample_amplitudes(2, 100_000, np.random.default_rng(4))
        p1 = np.abs(amps[:, 0]) ** 2
        theta1 = np.angle(amps[:, 0])
        assert abs(np.corrcoef(p1, theta1)[0, 1]) < 0.01

    def test_pure_state_is_the_first_amplitude_row_of_the_same_draw(self):
        # Rows are drawn in order, so a one-state draw is the first row of a larger one.
        for dim in (1, 2, 5):
            state = sample_amplitudes(dim, 1, np.random.default_rng(5))
            rows = sample_amplitudes(dim, 7, np.random.default_rng(5))
            assert state.tobytes() == rows[:1].tobytes()


def assert_mean(values, expected, what):
    """The sample mean lies within 6 standard errors, estimated from the draws, of ``expected``.

    The 1e-12 floor covers moments that are constant up to rounding (|a|^2 = 1 at d = 1).
    """
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - expected) <= 6.0 * se + 1e-12, f"{what}: mean {values.mean()!r}, exact {expected!r}, se {se!r}"


@pytest.mark.parametrize("dim", range(1, 9))
def test_sampler_matches_the_exact_moments_of_the_invariant_measure(dim):
    """E|a_i|^2 = 1/d, E|a_i|^4 = 2/(d(d+1)), E|a_i|^2|a_j|^2 = 1/(d(d+1)) and E a_i a_j^* = 0 for i != j."""
    amps = sample_amplitudes(dim, 200_000, np.random.default_rng(900 + dim))
    probs = np.abs(amps) ** 2
    for i in range(dim):
        assert_mean(probs[:, i], 1.0 / dim, f"E|a_{i}|^2")
        assert_mean(probs[:, i] ** 2, 2.0 / (dim * (dim + 1)), f"E|a_{i}|^4")
        for j in range(i + 1, dim):
            assert_mean(probs[:, i] * probs[:, j], 1.0 / (dim * (dim + 1)), f"E|a_{i}|^2|a_{j}|^2")
            cross = amps[:, i] * amps[:, j].conj()
            assert_mean(cross.real, 0.0, f"Re E a_{i} a_{j}^*")
            assert_mean(cross.imag, 0.0, f"Im E a_{i} a_{j}^*")


@pytest.mark.parametrize("dim", [1, 2, 5, 16])
def test_sampler_layout_norms_and_determinism(dim):
    # _sample_features, predictive_state and averaged_fusion read the rows through a float64 view.
    amps = sample_amplitudes(dim, 1000, np.random.default_rng(6))
    assert amps.shape == (1000, dim)
    assert amps.dtype == np.complex128
    assert amps.flags.c_contiguous
    np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, rtol=0, atol=1e-14)
    assert sample_amplitudes(dim, 1000, np.random.default_rng(6)).tobytes() == amps.tobytes()


def test_sampler_peak_memory_is_at_most_twice_its_result():
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        amps = sample_amplitudes(2, 100_000, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * amps.nbytes, f"peak {peak} bytes for a {amps.nbytes}-byte result"


def average_projector(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Mean projector of ``n_samples`` sampled pure states; the invariant measure makes it I/d."""
    amps = sample_amplitudes(dim, n_samples, np.random.default_rng(seed))
    return amps.T @ amps.conj() / n_samples


class TestAverageProjector:
    def test_single_sample_is_rank_one(self):
        out = average_projector(3, 1, seed=0)
        vals = np.linalg.eigvalsh(out)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vals[:-1]).max() <= 1e-12

    def test_converges_to_maximally_mixed(self):
        out = average_projector(2, 1_000_000, seed=1)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=3e-3)

    def test_off_diagonals_average_out(self):
        out = average_projector(3, 300_000, seed=2)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() <= 5e-3
