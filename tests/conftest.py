"""Shared random-object generators for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, sqrtm

from qpool.measurement import KrausPovm, MeasurementHistory


def assert_same_bytes(actual, expected) -> None:
    """Stricter than np.array_equal: a signed zero counts as a difference too."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def is_psd(mat, tol: float = 1e-9) -> bool:
    """PSD verdict from numpy's ``eigvalsh`` of the Hermitian part: lambda_min >= -tol * max(1, lambda_max)."""
    mat = np.asarray(mat, dtype=complex)
    vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return bool(vals[0] >= -tol * max(1.0, vals[-1]))


def sqrtm_psd(mat) -> np.ndarray:
    """Principal square root by scipy's Schur-based ``sqrtm``.

    scipy warns on every singular input, but a PSD matrix has a principal
    root whether or not it is singular, so that warning is silenced here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return sqrtm(np.asarray(mat, dtype=complex))


def residual_outside(basis, vectors) -> float:
    """Largest norm, over the columns of ``vectors``, of the least-squares residual in span(basis columns)."""
    basis = np.asarray(basis, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex).reshape(basis.shape[0], -1)
    if vectors.shape[1] == 0:
        return 0.0
    coeffs = np.linalg.lstsq(basis, vectors, rcond=None)[0]
    return float(np.linalg.norm(vectors - basis @ coeffs, axis=0).max())


def projective(basis) -> KrausPovm:
    """Rank-1 projective measurement onto the columns of ``basis``."""
    return KrausPovm(tuple(np.outer(col, col.conj()) for col in np.asarray(basis, dtype=complex).T))


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    g = ginibre(rng, dim, rank or dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim, dim)
    return g + g.conj().T


def random_effects(rng: np.random.Generator, dim: int, n_outcomes: int) -> list:
    """Random complete effect set: E_i = S^{-1/2} G_i G_i^dag S^{-1/2}."""
    gs = [ginibre(rng, dim, dim) for _ in range(n_outcomes)]
    s = sum(g @ g.conj().T for g in gs)
    vals, vecs = np.linalg.eigh(s)
    s_inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [s_inv_root @ g @ g.conj().T @ s_inv_root for g in gs]


def random_kraus_povm(
    rng: np.random.Generator, dim: int, n_outcomes: int, hermitian: bool = True
) -> KrausPovm:
    """Random complete measurement.

    The default takes Hermitian operators sqrt(E_i) of a random effect set
    (the dispensed-unitaries form); ``hermitian=False`` produces general
    operators M_i = G_i S^{-1/2}, which satisfy completeness but need not
    preserve the maximally mixed state non-selectively.
    """
    if hermitian:
        return KrausPovm.from_effects(random_effects(rng, dim, n_outcomes))
    gs = [ginibre(rng, dim, dim) for _ in range(n_outcomes)]
    s = sum(g.conj().T @ g for g in gs)
    vals, vecs = np.linalg.eigh(s)
    s_inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return KrausPovm(tuple(g @ s_inv_root for g in gs))


def random_history(
    rng: np.random.Generator,
    dim: int,
    n_steps: int,
    owners=("alice", "bob", "eve"),
    hermitian: bool = True,
) -> MeasurementHistory:
    steps = []
    for k in range(n_steps):
        owner = owners[k % len(owners)] if k < len(owners) else rng.choice(owners)
        steps.append((owner, random_kraus_povm(rng, dim, int(rng.integers(2, 4)), hermitian)))
    return MeasurementHistory(tuple(steps))


def random_consistent_pair(rng: np.random.Generator, dim: int, overlap: int | None = None):
    """Two densities whose supports intersect in a known subspace.

    All supports are spans of columns of one random unitary frame, so the
    intersection is exactly the span of the shared leading columns.
    Returns ``(rho_a, rho_b, common_basis)``.
    """
    frame = random_unitary(rng, dim)
    if overlap is None:
        overlap = int(rng.integers(1, dim + 1))
    spare = dim - overlap
    extra_a = int(rng.integers(0, spare + 1))
    extra_b = int(rng.integers(0, spare - extra_a + 1))
    cols_a = frame[:, : overlap + extra_a]
    cols_b = np.concatenate(
        [frame[:, :overlap], frame[:, overlap + extra_a : overlap + extra_a + extra_b]], axis=1
    )

    def mixture(cols):
        weights = rng.uniform(0.2, 1.0, cols.shape[1])
        weights /= weights.sum()
        return (cols * weights) @ cols.conj().T

    return mixture(cols_a), mixture(cols_b), frame[:, :overlap]


def random_intersection_state(
    rng: np.random.Generator, basis: np.ndarray, mixed: bool = False
) -> np.ndarray:
    """A random state (pure by default) supported inside span(basis columns)."""
    k = basis.shape[1]
    if mixed and k > 1:
        small = random_density(rng, k)
        return basis @ small @ basis.conj().T
    vec = ginibre(rng, k, 1).ravel()
    vec /= np.linalg.norm(vec)
    psi = basis @ vec
    return np.outer(psi, psi.conj())
