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
    InvalidEffectError,
    NoncommutingError,
    NonFiniteError,
    PositivityError,
    ShapeError,
)
from .linalg import (
    TOL_COMMUTE,
    TOL_DIAGONAL,
    TOL_PROB_SUM,
    dagger,
    ensure_density_matrix,
    ensure_effect,
    ensure_states,
    psd_root,
    require_normalized,
)


@dataclass(frozen=True)
class ProbDist:
    """Probability vector over hypotheses 0..n-1."""

    probs: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.probs, dtype=float).reshape(-1)
        except OverflowError as exc:
            raise NonFiniteError("distribution has an entry beyond the float range") from exc
        if arr.size == 0:
            raise ShapeError("distribution must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("distribution contains non-finite entries")
        if arr.min() < -TOL_PROB_SUM:
            raise PositivityError(f"negative probability {float(arr.min())!r}")
        arr = np.clip(arr, 0.0, None)
        with np.errstate(over="ignore"):  # a sum past the float range fails the check below
            total = float(arr.sum())
        require_normalized(total, TOL_PROB_SUM, "probability sum")
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
        if not np.isfinite(arr).all():
            raise NonFiniteError("likelihood table contains non-finite entries")
        if arr.min() < 0.0 or arr.max() > 1.0 + TOL_PROB_SUM:
            raise InvalidEffectError("conditional probabilities must lie in [0, 1]")
        require_normalized(arr.sum(axis=0), TOL_PROB_SUM, "column sums of P(m|n)")
        arr.setflags(write=False)
        object.__setattr__(self, "cond", arr)

    @property
    def n_outcomes(self) -> int:
        return self.cond.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.cond.shape[1]

    def row(self, outcome: int) -> np.ndarray:
        if not 0 <= int(outcome) < self.n_outcomes:
            raise ImpossibleOutcomeError(f"no outcome {outcome} among 0..{self.n_outcomes - 1}")
        return self.cond[int(outcome), :]


def _renormalize(unnorm: np.ndarray, error: type, message: str) -> ProbDist:
    """The second half of multiply-and-renormalize; a zero total raises ``error(message)``."""
    total = unnorm.sum()
    if total <= 0.0:
        raise error(message)
    return ProbDist(unnorm / total)


def bayes_update(prior: ProbDist, model: LikelihoodModel, outcome: int) -> ProbDist:
    """Posterior over hypotheses after observing ``outcome`` under ``model``."""
    return sequential_update(prior, [(model, outcome)])


def sequential_update(prior: ProbDist, evidence: Sequence[tuple]) -> ProbDist:
    """Left fold of Bayes updates over ``(model, outcome)`` pairs.

    The result is order-independent because the per-outcome likelihood rows
    multiply entrywise.
    """
    unnorm = prior.probs.copy()
    for model, outcome in evidence:
        if model.n_hypotheses != prior.n:
            raise ShapeError(f"likelihood has {model.n_hypotheses} hypotheses, prior has {prior.n}")
        unnorm *= model.row(outcome)
    return _renormalize(unnorm, ImpossibleOutcomeError, "evidence has zero joint probability")


def pool_classical(p: ProbDist, q: ProbDist) -> ProbDist:
    """Combine two independently obtained distributions: multiply and renormalize."""
    if p.n != q.n:
        raise ShapeError(f"distribution sizes differ: {p.n} vs {q.n}")
    unnorm = p.probs * q.probs
    return _renormalize(unnorm, IncompatibleKnowledgeError, "distributions have disjoint supports")


def _ensure_diagonal(mat: np.ndarray, *, name: str) -> np.ndarray:
    off = mat - np.diag(np.diag(mat))
    scale = max(1.0, float(np.abs(mat).max()))
    if mat.size and float(np.abs(off).max()) > TOL_DIAGONAL * scale:
        raise NoncommutingError(f"{name} must be diagonal for the matrix-form Bayes rule")
    return mat


def matrix_bayes_update(rho, effect):
    """Matrix form of the Bayes update for co-diagonal ``rho`` and ``effect``.

    Returns ``(sqrt(E) rho sqrt(E) / Tr[E rho], Tr[E rho])``.  The diagonal of
    the updated matrix equals the vector Bayes posterior of the diagonals.
    """
    rho = _ensure_diagonal(ensure_density_matrix(rho, name="rho")[0], name="rho")
    effect, *eig = ensure_effect(effect, name="effect")
    _ensure_diagonal(effect, name="effect")
    if effect.shape != rho.shape:
        raise ShapeError(f"effect shape {effect.shape} != rho shape {rho.shape}")
    prob = float(np.trace(effect @ rho).real)
    if prob <= 0.0:
        raise ImpossibleOutcomeError("effect has zero probability on this state")
    root = psd_root(*eig)
    post = root @ rho @ root / prob
    return (post + dagger(post)) / 2, prob


def pool_commuting_density(rho_a, rho_b) -> np.ndarray:
    """Pool two commuting density matrices: rho_a rho_b / Tr[rho_a rho_b]."""
    (a, _, _), (b, _, _) = ensure_states(rho_a=rho_a, rho_b=rho_b)
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
