"""Classical states of knowledge and the rules for updating and pooling them.

A state of knowledge about a discrete variable is a probability vector.
Independent bodies of evidence combine by multiplying the densities entrywise
and renormalizing; the same rule in matrix form applies to co-diagonal
density matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ImpossibleOutcomeError,
    IncompatibleKnowledgeError,
    NoncommutingError,
    NonFiniteError,
    NotNormalizedError,
    PositivityError,
    ShapeError,
)
from .linalg import (
    TOL_COMMUTE,
    TOL_DIAGONAL,
    TOL_PROB_SUM,
    dagger,
    ensure_density_matrix,
    ensure_hermitian,
    matrix_sqrt_psd,
)


@dataclass(frozen=True)
class ProbDist:
    """Probability vector over hypotheses 0..n-1."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float).reshape(-1)
        if arr.size == 0:
            raise ShapeError("distribution must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("distribution contains non-finite entries")
        if arr.min() < -TOL_PROB_SUM:
            raise PositivityError(f"negative probability {float(arr.min())!r}")
        arr = np.clip(arr, 0.0, None)
        if abs(arr.sum() - 1.0) > TOL_PROB_SUM:
            raise NotNormalizedError(f"probabilities sum to {float(arr.sum())!r}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def flat(cls, n: int) -> "ProbDist":
        """The maximum-entropy (zero knowledge) distribution on n hypotheses."""
        return cls(np.full(int(n), 1.0 / int(n)))

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class LikelihoodModel:
    """Conditional probabilities ``cond[m, n] = P(m|n)``.

    Each column (fixed hypothesis n) sums to 1 over outcomes m; rows need not
    be normalized over n.
    """

    cond: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.cond, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ShapeError(f"likelihood table must be a non-empty 2-D array, got {arr.shape}")
        if arr.min() < 0.0 or arr.max() > 1.0 + TOL_PROB_SUM:
            raise ValueError("conditional probabilities must lie in [0, 1]")
        col_sums = arr.sum(axis=0)
        if np.abs(col_sums - 1.0).max() > TOL_PROB_SUM:
            raise ValueError("each column of P(m|n) must sum to 1 (complete outcome set)")
        arr.setflags(write=False)
        object.__setattr__(self, "cond", arr)

    @property
    def n_outcomes(self) -> int:
        return self.cond.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.cond.shape[1]

    def row(self, outcome: int) -> np.ndarray:
        return self.cond[int(outcome), :]


@dataclass(frozen=True)
class PermutationTransform:
    """Deterministic reversible relabeling of hypotheses: n -> perm[n]."""

    perm: tuple

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        object.__setattr__(self, "perm", perm)


def shannon_entropy(dist: ProbDist) -> float:
    """Entropy in bits, with the 0 * log(0) = 0 convention."""
    p = dist.probs[dist.probs > 0.0]
    return float(-(p * np.log2(p)).sum())


def bayes_update(prior: ProbDist, model: LikelihoodModel, outcome: int) -> ProbDist:
    """Posterior over hypotheses after observing ``outcome`` under ``model``."""
    if model.n_hypotheses != prior.n:
        raise ShapeError(
            f"likelihood has {model.n_hypotheses} hypotheses, prior has {prior.n}"
        )
    unnorm = model.row(outcome) * prior.probs
    total = unnorm.sum()
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero prior probability")
    return ProbDist(unnorm / total)


def sequential_update(prior: ProbDist, evidence: Sequence[tuple]) -> ProbDist:
    """Left fold of Bayes updates over ``(model, outcome)`` pairs.

    The result is order-independent because the per-outcome likelihood rows
    multiply entrywise.
    """
    unnorm = prior.probs.copy()
    for model, outcome in evidence:
        if model.n_hypotheses != prior.n:
            raise ShapeError("evidence model size does not match prior")
        unnorm *= model.row(outcome)
    total = unnorm.sum()
    if total <= 0.0:
        raise ImpossibleOutcomeError("evidence sequence has zero joint probability")
    return ProbDist(unnorm / total)


def pool_classical(p: ProbDist, q: ProbDist) -> ProbDist:
    """Combine two independently obtained distributions: multiply and renormalize."""
    if p.n != q.n:
        raise ShapeError(f"distribution sizes differ: {p.n} vs {q.n}")
    unnorm = p.probs * q.probs
    total = unnorm.sum()
    if total <= 0.0:
        raise IncompatibleKnowledgeError("distributions have disjoint supports")
    return ProbDist(unnorm / total)


def apply_transform(dist: ProbDist, transform: PermutationTransform) -> ProbDist:
    """Relabel hypotheses: result[perm[n]] = P(n).  Entropy is preserved."""
    if len(transform.perm) != dist.n:
        raise ShapeError(f"permutation size {len(transform.perm)} != distribution size {dist.n}")
    out = np.empty_like(dist.probs)
    out[list(transform.perm)] = dist.probs
    return ProbDist(out)


def _ensure_diagonal(mat: np.ndarray, *, name: str) -> np.ndarray:
    off = mat - np.diag(np.diag(mat))
    scale = max(1.0, float(np.abs(mat).max()))
    if mat.size and float(np.abs(off).max()) > TOL_DIAGONAL * scale:
        raise ValueError(f"{name} must be diagonal for the matrix-form Bayes rule")
    return mat


def matrix_bayes_update(rho, effect):
    """Matrix form of the Bayes update for co-diagonal ``rho`` and ``effect``.

    Returns ``(sqrt(E) rho sqrt(E) / Tr[E rho], Tr[E rho])``.  The diagonal of
    the updated matrix equals the vector Bayes posterior of the diagonals.
    """
    rho = _ensure_diagonal(ensure_density_matrix(rho, name="rho"), name="rho")
    effect = _ensure_diagonal(ensure_hermitian(effect, name="effect"), name="effect")
    if effect.shape != rho.shape:
        raise ShapeError(f"effect shape {effect.shape} != rho shape {rho.shape}")
    prob = float(np.trace(effect @ rho).real)
    if prob <= 0.0:
        raise ImpossibleOutcomeError("effect has zero probability on this state")
    root = matrix_sqrt_psd(effect, name="effect")
    post = root @ rho @ root / prob
    return (post + dagger(post)) / 2, prob


def pool_commuting_density(rho_a, rho_b) -> np.ndarray:
    """Pool two commuting density matrices: rho_a rho_b / Tr[rho_a rho_b]."""
    a = ensure_density_matrix(rho_a, name="rho_a")
    b = ensure_density_matrix(rho_b, name="rho_b")
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    comm = a @ b - b @ a
    if float(np.linalg.norm(comm)) > TOL_COMMUTE:
        raise NoncommutingError(
            f"states do not commute (||[rho_a, rho_b]|| = {np.linalg.norm(comm):.3e})"
        )
    prod = a @ b
    total = float(np.trace(prod).real)
    if total <= 0.0:
        raise IncompatibleKnowledgeError("Tr[rho_a rho_b] = 0; supports are disjoint")
    out = prod / total
    return (out + dagger(out)) / 2
