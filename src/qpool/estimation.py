"""Bayesian estimation of an unknown pure state from measured copies.

Exchangeable copies of an unknown pure state carry a probability density
over states; measuring one copy multiplies the density by the outcome
likelihood (Bayes' rule) and the remaining copies are described by the
density-weighted average of tensor powers.

Two evaluation paths are provided and cross-checked against each other:

* a Monte-Carlo path over weighted samples from the invariant measure,
  valid for any effects.  ``posterior_update`` folds any number of effects
  into one pass over the samples, a block at a time: each likelihood is one
  real matrix-vector product with the block's table of populations and
  coherences, and the weights stay the unnormalized product of the
  likelihoods.  Readout normalizes the weights as reals before any complex
  sum, so a subnormal or huge total weight still gives a density matrix,
  and sums the real Gram matrix of the samples' tensor powers over blocks
  of ``_BLOCK_FLOATS`` floats, so it copies one block, not the ensemble;
  ``predictive_state`` is the one-copy ``definetti_state``; and
* an exact path for diagonal qubit effects, where the posterior reduces to
  a polynomial in the excited-state population r (the population is
  uniformly distributed under the invariant measure, and the phase average
  kills all off-diagonal moments).

The exact path is defined in ``exact``, which needs no numpy, and its public
names are re-exported here; ``polynomial_predictive`` and
``pooled_predictive`` give its predictive states as numpy matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionGuardError,
    ImpossibleOutcomeError,
    NonFiniteError,
    PositivityError,
    ShapeError,
)
from .exact import (  # re-exported: the exact path is defined in ``exact``
    DiagonalEffect,
    PolynomialDensity,
    audit_published_example,
    matching_beta,
    predictive_populations,
    qubit_diagonal_posterior,
)
from .haar import sample_amplitudes
from .linalg import dagger, ensure_effect

_DIM_GUARD = 4096
_BLOCK_FLOATS = 65_536  # float64 per block of rows in a streamed pass over the samples


def polynomial_predictive(q: PolynomialDensity) -> np.ndarray:
    """Predictive state for the one remaining copy, as a diagonal 2x2 matrix.

    The off-diagonal moments vanish in the phase average, so the state is
    ``diag(m1/m0, 1 - m1/m0)`` with the moments m_k of q.
    """
    top, bottom = predictive_populations(q)
    return np.diag([float(top), float(bottom)]).astype(complex)


def pooled_predictive(q_a: PolynomialDensity, q_b: PolynomialDensity) -> np.ndarray:
    """Predictive state given both observers' outcome records: use q_a * q_b."""
    return polynomial_predictive(q_a.multiply(q_b))


@dataclass(frozen=True)
class WeightedStateEnsemble:
    """Weighted pure-state samples representing a (possibly updated) density.

    Amplitude rows carry the samples; weights are unnormalized and only
    normalized at readout.  At least one weight is positive, so every
    ensemble has a positive total weight.
    """

    amplitudes: np.ndarray = field(repr=False)  # shape (n_samples, dim)
    weights: np.ndarray = field(repr=False)  # shape (n_samples,)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if amps.ndim != 2:
            raise ShapeError("amplitudes must have shape (n, dim)")
        if weights.shape != (amps.shape[0],):
            raise ShapeError("one weight per sample is required")
        if weights.size == 0:
            raise ShapeError("an ensemble needs at least one sample")
        if not np.all(np.isfinite(weights)):
            raise NonFiniteError("weights must be finite")
        if weights.min() < 0.0:
            raise PositivityError("weights must be nonnegative")
        if not np.any(weights > 0.0):
            raise ImpossibleOutcomeError("no sample has positive weight: the outcome is impossible")
        amps.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_prior(cls, dim: int, n_samples: int, seed: int) -> "WeightedStateEnsemble":
        """Uniform-weight samples from the invariant (zero knowledge) measure."""
        rng = np.random.default_rng(seed)
        amps = sample_amplitudes(dim, n_samples, rng)
        return cls(amps, np.ones(int(n_samples)))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def n_samples(self) -> int:
        return self.amplitudes.shape[0]


def _likelihood_coefficients(effect: np.ndarray) -> np.ndarray:
    """Real coefficients (E_ii, 2 Re E_ij, -2 Im E_ij for i < j) that dot ``_sample_features``."""
    upper = effect[np.triu_indices(effect.shape[0], 1)]
    return np.concatenate([effect.diagonal().real, 2.0 * upper.real, -2.0 * upper.imag])


def _sample_features(amps: np.ndarray) -> np.ndarray:
    """Real (d^2, n) table, one column per sample: |a_i|^2, then Re and Im of conj(a_i) a_j for i < j.

    Re<a|E|a> = sum_i E_ii |a_i|^2 + sum_{i<j} 2 Re(E_ij conj(a_i) a_j), so
    ``_likelihood_coefficients(E)`` times the table gives every sample's
    likelihood.  Each row is written in place from strided views of the
    amplitudes' real and imaginary parts; one row ``temp`` is the only other
    allocation.
    """
    dim = amps.shape[1]
    temp = np.empty(amps.shape[0])
    parts = np.ascontiguousarray(amps).view(np.float64)
    re, im = parts[:, 0::2].T, parts[:, 1::2].T
    out = np.empty((dim * dim, amps.shape[0]))
    for k in range(dim):
        np.multiply(re[k], re[k], out=out[k])
        out[k] += np.multiply(im[k], im[k], out=temp)
    rows, cols = np.triu_indices(dim, 1)
    for p, (i, j) in enumerate(zip(rows, cols), start=dim):
        np.multiply(re[i], re[j], out=out[p])
        out[p] += np.multiply(im[i], im[j], out=temp)
        q = p + rows.size
        np.multiply(re[i], im[j], out=out[q])
        out[q] -= np.multiply(im[i], re[j], out=temp)
    return out


def posterior_update(ens: WeightedStateEnsemble, *effects) -> WeightedStateEnsemble:
    """Multiply every sample weight by its outcome likelihood Tr[E rho_sample] for each effect.

    The effects are validated in argument order and applied in one pass over
    blocks of ``_block_rows(dim * dim)`` samples: each likelihood is one real
    matrix-vector product with the block's features, clipped at 0 and
    multiplied into one copy of the weights, so the feature table is one block,
    not the whole ensemble.  With no effects the weights are unchanged.
    """
    coeffs = []
    for effect in effects:
        if isinstance(effect, DiagonalEffect):
            effect = effect.matrix()
        effect = ensure_effect(effect)[0]
        if effect.shape[0] != ens.dim:
            raise ShapeError(f"effect dim {effect.shape[0]} != ensemble dim {ens.dim}")
        coeffs.append(_likelihood_coefficients(effect))
    weights = np.array(ens.weights)
    rows = _block_rows(ens.dim * ens.dim)
    for start in range(0, ens.n_samples if coeffs else 0, rows):
        features = _sample_features(ens.amplitudes[start : start + rows])
        block = weights[start : start + rows]
        likelihood = np.empty(block.size)
        for c in coeffs:
            np.matmul(c, features, out=likelihood)
            block *= np.maximum(likelihood, 0.0, out=likelihood)
    return WeightedStateEnsemble(ens.amplitudes, weights)


def _normalized_weights(ens: WeightedStateEnsemble) -> np.ndarray:
    """The weights scaled to sum to 1, in reals, so a subnormal or huge total divides nothing complex."""
    w = ens.weights / ens.weights.max()
    w /= w.sum()
    return w


def _block_rows(dim: int) -> int:
    """Rows per block of ``_BLOCK_FLOATS`` floats, at 2 * dim floats a row."""
    return max(1, _BLOCK_FLOATS // (2 * dim))


def _gram_state(gram: np.ndarray) -> np.ndarray:
    """The Hermitian matrix sum_n w_n a_n a_n^dag read from G = sum_n w_n c_n c_n^T.

    Each real row c_n interleaves (Re a_i, Im a_i), so one real Gram matrix
    holds every product: Re(a_i conj(a_j)) = G[re_i, re_j] + G[im_i, im_j] and
    Im(a_i conj(a_j)) = G[im_i, re_j] - G[re_i, im_j].
    """
    out = (gram[0::2, 0::2] + gram[1::2, 1::2]) + 1j * (gram[1::2, 0::2] - gram[0::2, 1::2])
    return (out + dagger(out)) / 2


def predictive_state(ens: WeightedStateEnsemble) -> np.ndarray:
    """Weight-normalized mean projector sum_n w_n a_n a_n^dag of the ensemble: its one-copy state."""
    return definetti_state(1, posterior=ens)


def definetti_state(
    n_copies: int,
    n_samples: int = 100_000,
    seed: int = 0,
    posterior: WeightedStateEnsemble | None = None,
    dim: int = 2,
) -> np.ndarray:
    """Monte-Carlo estimate of the density-weighted average of N-fold copies.

    With no posterior this is the exchangeable zero-knowledge state of
    ``n_copies`` identically prepared systems; a posterior ensemble yields
    the state of the unmeasured copies after conditioning.  Supported on the
    symmetric subspace by construction.

    The real Gram of the tensor-power rows is summed over blocks of
    ``_block_rows(dim**n_copies)`` samples and read out once by ``_gram_state``,
    so the weighted copy it multiplies is one block, not the whole ensemble.
    """
    if n_copies < 0:
        raise ShapeError("n_copies must be nonnegative")
    if n_copies == 0:
        return np.eye(1, dtype=complex)
    if posterior is not None:
        dim = posterior.dim
    full_dim = dim**n_copies
    if full_dim > _DIM_GUARD:
        raise DimensionGuardError(f"dim^N = {full_dim} exceeds the guard {_DIM_GUARD}")
    if posterior is None:
        posterior = WeightedStateEnsemble.from_prior(dim, n_samples, seed)

    weights = _normalized_weights(posterior)
    rows = _block_rows(full_dim)
    gram = np.zeros((2 * full_dim, 2 * full_dim))
    for start in range(0, posterior.n_samples, rows):
        amps = posterior.amplitudes[start : start + rows]
        power = amps
        for _ in range(n_copies - 1):
            power = np.einsum("ni,nj->nij", power, amps).reshape(amps.shape[0], -1)
        block = np.ascontiguousarray(power).view(np.float64)
        gram += (block.T * weights[start : start + rows]) @ block
    return _gram_state(gram)
