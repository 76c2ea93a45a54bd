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
  coherences, whose log is added to the sample's log weight, so a long record
  cannot underflow.  Readout is ``_weighted_state``, the package's one weighted
  sum, shared with ``fusion.averaged_fusion``: it sums the real Gram matrix of
  blocks of ``_BLOCK_FLOATS`` floats against their running top log weight and
  reads the state out once, so it copies one block, not the ensemble;
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
    """Log-weighted pure-state samples representing a (possibly updated) density.

    Amplitude rows carry the samples; the log weights are unnormalized, so a
    long record of likelihoods cannot underflow them.  At least one is finite,
    so every ensemble has a positive total weight.
    """

    amplitudes: np.ndarray = field(repr=False)  # shape (n_samples, dim)
    log_weights: np.ndarray = field(repr=False)  # shape (n_samples,), -inf for weight zero

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        log_w = np.asarray(self.log_weights, dtype=float)
        if amps.ndim != 2:
            raise ShapeError("amplitudes must have shape (n, dim)")
        if log_w.shape != (amps.shape[0],):
            raise ShapeError("one weight per sample is required")
        if log_w.size == 0:
            raise ShapeError("an ensemble needs at least one sample")
        if not np.all(log_w < np.inf):
            raise NonFiniteError("log weights must be below +inf and not NaN")
        if not np.any(log_w > -np.inf):
            raise ImpossibleOutcomeError("no sample has positive weight: the outcome is impossible")
        amps.setflags(write=False)
        log_w.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "log_weights", log_w)

    @classmethod
    def from_prior(cls, dim: int, n_samples: int, seed: int) -> "WeightedStateEnsemble":
        """Uniform-weight samples from the invariant (zero knowledge) measure."""
        rng = np.random.default_rng(seed)
        amps = sample_amplitudes(dim, n_samples, rng)
        return cls(amps, np.zeros(int(n_samples)))

    @property
    def weights(self) -> np.ndarray:
        """The weights relative to the largest, exp(log_w - max)."""
        return np.exp(self.log_weights - self.log_weights.max())

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
    """Add log max(Tr[E rho_sample], 0) to every sample's log weight for each effect.

    The effects are validated in argument order and applied in one pass over
    blocks of ``_block_rows(dim * dim)`` samples: each likelihood is one real
    matrix-vector product with the block's features, clipped at 0 and its log
    added into one copy of the log weights, so the feature table is one block,
    not the whole ensemble.  With no effects the log weights are unchanged.
    """
    coeffs = []
    for effect in effects:
        if isinstance(effect, DiagonalEffect):
            effect = effect.matrix()
        effect = ensure_effect(effect)[0]
        if effect.shape[0] != ens.dim:
            raise ShapeError(f"effect dim {effect.shape[0]} != ensemble dim {ens.dim}")
        coeffs.append(_likelihood_coefficients(effect))
    log_w = np.array(ens.log_weights)
    rows = _block_rows(ens.dim * ens.dim)
    with np.errstate(divide="ignore"):  # a zero likelihood gives log weight -inf
        for start in range(0, ens.n_samples if coeffs else 0, rows):
            features = _sample_features(ens.amplitudes[start : start + rows])
            block = log_w[start : start + rows]
            likelihood = np.empty(block.size)
            for c in coeffs:
                np.matmul(c, features, out=likelihood)
                block += np.log(np.maximum(likelihood, 0.0, out=likelihood), out=likelihood)
    return WeightedStateEnsemble(ens.amplitudes, log_w)


def _block_rows(dim: int) -> int:
    """Rows per block of ``_BLOCK_FLOATS`` floats, at 2 * dim floats a row."""
    return max(1, _BLOCK_FLOATS // (2 * dim))


def _weighted_state(blocks, context: str) -> np.ndarray:
    """sum_n w_n a_n a_n^dag / sum_n w_n from ``(parts, log_w)`` blocks, with w_n = exp(log_w_n).

    Each real row c_n of parts interleaves (Re a_i, Im a_i).  A block adds its weighted real Gram to a
    running G = sum_n w_n c_n c_n^T, after scaling G and the weight total by exp(old top - new
    top) if it holds a new top log weight.  A top of +inf or NaN ends the sum, and one not finite
    raises ``ImpossibleOutcomeError`` naming ``context``.  The state is read out of G once:
    Re(a_i conj(a_j)) = G[re_i, re_j] + G[im_i, im_j], Im(a_i conj(a_j)) = G[im_i, re_j] - G[re_i, im_j].
    The blocks are drawn under an ``np.errstate`` in which an overflowing log weight is infinite.
    """
    gram, total, top = 0.0, 0.0, -np.inf
    with np.errstate(over="ignore"):
        for parts, log_w in blocks:
            block_top = log_w.max()
            if not block_top <= top:  # a new top, +inf or NaN
                if not block_top < np.inf:
                    top = block_top
                    break
                scale = np.exp(top - block_top)
                gram *= scale
                total *= scale
                top = block_top
            if top == -np.inf:  # every weight so far is zero
                continue
            weights = np.exp(log_w - top)
            gram += (parts.T * weights) @ parts
            total += weights.sum()
    if not np.isfinite(top):
        raise ImpossibleOutcomeError(f"top log-weight {float(top)!r} at {context}")
    gram = gram / total
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
) -> np.ndarray:
    """Monte-Carlo estimate of the density-weighted average of N-fold copies.

    With no posterior this is the exchangeable zero-knowledge state of
    ``n_copies`` identically prepared qubits, over the prior
    ``WeightedStateEnsemble.from_prior(2, n_samples, seed)``; a posterior
    ensemble, of any dimension, yields the state of the unmeasured copies
    after conditioning (pass ``from_prior(d, n, seed)`` for the prior of
    another dimension).  Supported on the symmetric subspace by construction.

    The tensor-power rows go to ``_weighted_state`` in blocks of
    ``_block_rows(dim**n_copies)`` samples with their log weights, so the
    weighted copy it multiplies is one block, not the whole ensemble.
    """
    if n_copies < 0:
        raise ShapeError("n_copies must be nonnegative")
    if n_copies == 0:
        return np.eye(1, dtype=complex)
    dim = 2 if posterior is None else posterior.dim
    full_dim = dim**n_copies
    if full_dim > _DIM_GUARD:
        raise DimensionGuardError(f"dim^N = {full_dim} exceeds the guard {_DIM_GUARD}")
    if posterior is None:
        posterior = WeightedStateEnsemble.from_prior(dim, n_samples, seed)
    rows = _block_rows(full_dim)

    def blocks():
        for start in range(0, posterior.n_samples, rows):
            amps = posterior.amplitudes[start : start + rows]
            power = amps
            for _ in range(n_copies - 1):
                power = np.einsum("ni,nj->nij", power, amps).reshape(amps.shape[0], -1)
            yield np.ascontiguousarray(power).view(np.float64), posterior.log_weights[start : start + rows]

    return _weighted_state(blocks(), "ensemble readout")
