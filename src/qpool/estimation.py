"""Bayesian estimation of an unknown pure state from measured copies.

Exchangeable copies of an unknown pure state carry a probability density
over states; measuring one copy multiplies the density by the outcome
likelihood (Bayes' rule) and the remaining copies are described by the
density-weighted average of tensor powers.

Two evaluation paths are provided and cross-checked against each other:

* a Monte-Carlo path over weighted samples from the invariant measure,
  valid for any effects, and
* an exact path for diagonal qubit effects, where the posterior reduces to
  a polynomial in the excited-state population r (the population is
  uniformly distributed under the invariant measure, and the phase average
  kills all off-diagonal moments).

The exact path keeps rational coefficients rational so that audits can
distinguish genuine discrepancies from round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (
    DimensionGuardError,
    ImpossibleOutcomeError,
    InvalidEffectError,
    ShapeError,
    SingularConstraintError,
)
from .haar import PureStateSample, sample_amplitudes
from .linalg import TOL_DENSITY, TOL_SINGULAR, dagger
from .measurement import ensure_effect

_GRID_POINTS = 1001
_DIM_GUARD = 4096


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PolynomialDensity:
    """Unnormalized posterior density q(r) on r in [0, 1], ascending coefficients.

    Coefficients stay exact (int/Fraction) whenever the inputs were exact;
    float coefficients fall back to compensated summation for the moments.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ShapeError("polynomial needs at least one coefficient")
        grid = np.linspace(0.0, 1.0, _GRID_POINTS)
        values = np.polynomial.polynomial.polyval(grid, [float(c) for c in coeffs])
        if values.min() < -TOL_DENSITY:
            raise ValueError(f"density is negative on [0, 1] (min {values.min():.3e})")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, r):
        """Evaluate q at a scalar or array of points."""
        return np.polynomial.polynomial.polyval(r, [float(c) for c in self.coeffs])

    def moment(self, k: int):
        """Integral of r^k q(r) over [0, 1]; exact when the coefficients are."""
        if self.is_exact:
            return sum(Fraction(c) / (j + k + 1) for j, c in enumerate(self.coeffs))
        return math.fsum(float(c) / (j + k + 1) for j, c in enumerate(self.coeffs))

    def multiply(self, other: "PolynomialDensity") -> "PolynomialDensity":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolynomialDensity(tuple(out))


@dataclass(frozen=True)
class DiagonalEffect:
    """The diagonal qubit effect diag(x, 1 - x)."""

    x: object  # int, Fraction or float in [0, 1]

    def __post_init__(self):
        if not 0 <= self.x <= 1:
            raise InvalidEffectError(f"effect parameter {self.x!r} outside [0, 1]")

    def matrix(self) -> np.ndarray:
        return np.diag([float(self.x), 1.0 - float(self.x)]).astype(complex)

    def likelihood(self) -> PolynomialDensity:
        """Outcome probability as a polynomial in the population: (2x-1) r + (1-x)."""
        return PolynomialDensity((1 - self.x, 2 * self.x - 1))


FLAT_DENSITY = PolynomialDensity((1,))


def qubit_diagonal_posterior(effects: Sequence) -> PolynomialDensity:
    """Posterior density after a sequence of diagonal qubit effects.

    Each element may be a ``DiagonalEffect`` or a bare parameter x.  The
    empty sequence returns the flat density.
    """
    polys = [
        (e if isinstance(e, DiagonalEffect) else DiagonalEffect(e)).likelihood()
        for e in effects
    ]
    return reduce(PolynomialDensity.multiply, polys, FLAT_DENSITY)


def predictive_populations(q: PolynomialDensity):
    """Diagonal entries of the predictive state, exact when ``q`` is."""
    m0 = q.moment(0)
    m1 = q.moment(1)
    if m0 <= 0:
        raise ImpossibleOutcomeError("posterior density integrates to zero")
    top = m1 / m0
    return top, 1 - top


def polynomial_predictive(q: PolynomialDensity) -> np.ndarray:
    """Predictive state for the one remaining copy, as a diagonal 2x2 matrix.

    The off-diagonal moments vanish in the phase average, so the state is
    ``diag(m1/m0, 1 - m1/m0)`` with the monomial moments of q.
    """
    top, bottom = predictive_populations(q)
    return np.diag([float(top), float(bottom)]).astype(complex)


def pooled_predictive(q_a: PolynomialDensity, q_b: PolynomialDensity) -> np.ndarray:
    """Predictive state given both observers' outcome records: use q_a * q_b."""
    return polynomial_predictive(q_a.multiply(q_b))


def matching_beta(alpha, gamma):
    """Second-round parameter making two measurements mimic one.

    Solves ``predictive([A(beta), A(gamma)]) == predictive([A(alpha)])`` for
    beta; exact for exact inputs.  Raises when the constraint is singular or
    the solution is not a valid effect parameter.
    """
    exact = _is_exact(alpha) and _is_exact(gamma)
    if exact:
        alpha, gamma = Fraction(alpha), Fraction(gamma)
        half, third = Fraction(1, 2), Fraction(1, 3)
    else:
        alpha, gamma = float(alpha), float(gamma)
        half, third = 0.5, 1.0 / 3.0
    target = third * (alpha + 1)
    denom = (2 * gamma - 1) * target - gamma
    if denom == 0 or (not exact and abs(denom) < TOL_SINGULAR):
        raise SingularConstraintError(f"constraint singular at alpha={alpha}, gamma={gamma}")
    beta = (target * (gamma - 2) + half) / denom
    if not 0 <= beta <= 1:
        raise InvalidEffectError(f"matching beta {beta!r} outside [0, 1]")
    return beta


@dataclass(frozen=True)
class WeightedStateEnsemble:
    """Weighted pure-state samples representing a (possibly updated) density.

    Amplitude rows carry the samples; weights are unnormalized and only
    normalized at readout.
    """

    dim: int
    amplitudes: np.ndarray = field(repr=False)  # shape (n_samples, dim)
    weights: np.ndarray = field(repr=False)  # shape (n_samples,)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if amps.ndim != 2 or amps.shape[1] != self.dim:
            raise ShapeError(f"amplitudes must have shape (n, {self.dim})")
        if weights.shape != (amps.shape[0],):
            raise ShapeError("one weight per sample is required")
        if not np.all(np.isfinite(weights)) or weights.min() < 0.0:
            raise ValueError("weights must be finite and nonnegative")
        if not np.any(weights > 0.0):
            raise ValueError("at least one weight must be positive")
        amps.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_prior(cls, dim: int, n_samples: int, seed: int) -> "WeightedStateEnsemble":
        """Uniform-weight samples from the invariant (zero knowledge) measure."""
        rng = np.random.default_rng(seed)
        amps = sample_amplitudes(dim, n_samples, rng)
        return cls(dim, amps, np.ones(int(n_samples)))

    @classmethod
    def from_samples(cls, samples: Sequence[PureStateSample], weights=None) -> "WeightedStateEnsemble":
        if not samples:
            raise ShapeError("ensemble needs at least one sample")
        dim = samples[0].dim
        amps = np.stack([s.amplitudes for s in samples])
        if weights is None:
            weights = np.ones(len(samples))
        return cls(dim, amps, np.asarray(weights, dtype=float))

    @property
    def n_samples(self) -> int:
        return self.amplitudes.shape[0]


def posterior_update(ens: WeightedStateEnsemble, effect) -> WeightedStateEnsemble:
    """Multiply every sample weight by its outcome likelihood Tr[E rho_sample]."""
    if isinstance(effect, DiagonalEffect):
        effect = effect.matrix()
    effect = ensure_effect(effect)
    if effect.shape[0] != ens.dim:
        raise ShapeError(f"effect dim {effect.shape[0]} != ensemble dim {ens.dim}")
    likelihood = np.einsum(
        "ni,ij,nj->n", ens.amplitudes.conj(), effect, ens.amplitudes
    ).real
    weights = ens.weights * np.clip(likelihood, 0.0, None)
    if not np.any(weights > 0.0):
        raise ImpossibleOutcomeError("outcome has zero probability on the whole ensemble")
    return WeightedStateEnsemble(ens.dim, ens.amplitudes, weights)


def predictive_state(ens: WeightedStateEnsemble) -> np.ndarray:
    """Weight-normalized mean projector of the ensemble."""
    total = float(ens.weights.sum())
    if total <= 0.0:
        raise ImpossibleOutcomeError("ensemble weights sum to zero")
    out = (ens.amplitudes.T * ens.weights) @ ens.amplitudes.conj() / total
    return (out + dagger(out)) / 2


def definetti_state(
    n_copies: int,
    n_samples: int = 100_000,
    seed: int = 0,
    posterior: WeightedStateEnsemble | None = None,
    dim: int = 2,
    *,
    chunk: int = 65_536,
) -> np.ndarray:
    """Monte-Carlo estimate of the density-weighted average of N-fold copies.

    With no posterior this is the exchangeable zero-knowledge state of
    ``n_copies`` identically prepared systems; a posterior ensemble yields
    the state of the unmeasured copies after conditioning.  Supported on the
    symmetric subspace by construction.
    """
    if n_copies < 0:
        raise ValueError("n_copies must be nonnegative")
    if n_copies == 0:
        return np.eye(1, dtype=complex)
    if posterior is not None:
        dim = posterior.dim
    full_dim = dim**n_copies
    if full_dim > _DIM_GUARD:
        raise DimensionGuardError(f"dim^N = {full_dim} exceeds the guard {_DIM_GUARD}")

    if posterior is None:
        posterior = WeightedStateEnsemble.from_prior(dim, n_samples, seed)

    total_weight = float(posterior.weights.sum())
    out = np.zeros((full_dim, full_dim), dtype=complex)
    chunk = max(1, int(chunk * 4 // max(1, full_dim)))
    for start in range(0, posterior.n_samples, chunk):
        amps = posterior.amplitudes[start : start + chunk]
        weights = posterior.weights[start : start + chunk]
        power = amps
        for _ in range(n_copies - 1):
            power = np.einsum("ni,nj->nij", power, amps).reshape(amps.shape[0], -1)
        out += (power.T * weights) @ power.conj()
    out /= total_weight
    return (out + dagger(out)) / 2


@dataclass(frozen=True)
class AuditEntry:
    """One audited quantity: computed value vs the published one, if any."""

    quantity: str
    parameters: str
    computed_exact: str
    computed: tuple
    published: str | None = None
    symmetry_prediction: str | None = None
    matches_published: bool | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "parameters": self.parameters,
            "computed_exact": self.computed_exact,
            "computed": list(self.computed),
            "published": self.published,
            "symmetry_prediction": self.symmetry_prediction,
            "matches_published": self.matches_published,
            "note": self.note,
        }


@dataclass(frozen=True)
class EstimationAudit:
    """Full audit of the published two-observer estimation example."""

    entries: tuple
    symmetry_note: str
    conclusion: str

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "symmetry_note": self.symmetry_note,
            "conclusion": self.conclusion,
        }

    def entry(self, quantity: str, parameters: str | None = None) -> AuditEntry:
        for e in self.entries:
            if e.quantity == quantity and (parameters is None or e.parameters == parameters):
                return e
        raise KeyError(f"no audit entry for {quantity!r}")


def _diag_str(populations) -> str:
    return f"diag({populations[0]}, {populations[1]})"


def _state_entry(quantity, params_label, populations, published=None, prediction=None, note=""):
    matches = None
    if published is not None:
        matches = _diag_str(populations) == published or (
            published == "I/2" and populations[0] == Fraction(1, 2)
        )
    return AuditEntry(
        quantity=quantity,
        parameters=params_label,
        computed_exact=_diag_str(populations),
        computed=(float(populations[0]), float(populations[1])),
        published=published,
        symmetry_prediction=prediction,
        matches_published=matches,
        note=note,
    )


_SYMMETRY_NOTE = (
    "With alpha = 1/2 the matching constraint forces beta = 1 - gamma, which "
    "makes the two-effect likelihood invariant under r -> 1 - r.  The squared "
    "likelihood inherits that symmetry, so both populations of the pooled "
    "predictive state integrate to exactly 1/2: the pooled state is I/2, and "
    "the published diag(299, 107)/406 cannot follow from these parameters."
)


def audit_published_example() -> EstimationAudit:
    """Recompute every number of the published two-observer example exactly.

    The primary parameter set (alpha = 1/2, gamma = 1/4, hence beta = 3/4)
    reproduces the published marginals and single-measurement pooled state,
    but the exact integral contradicts the published two-measurement pooled
    state, which the r -> 1-r symmetry forces to I/2.  A derived parameter
    set (alpha = 3/4, gamma = 3/10, beta = 59/64) restores the example's
    point: equal marginals with genuinely different pooled states.
    """
    entries = []

    # Primary parameters: alpha = 1/2, gamma = 1/4.
    alpha, gamma = Fraction(1, 2), Fraction(1, 4)
    beta = matching_beta(alpha, gamma)
    label = f"alpha={alpha}, gamma={gamma}"
    entries.append(
        AuditEntry(
            quantity="beta",
            parameters=label,
            computed_exact=str(beta),
            computed=(float(beta),),
            published="3/4",
            matches_published=beta == Fraction(3, 4),
        )
    )
    q_one = qubit_diagonal_posterior([DiagonalEffect(alpha)])
    q_two = qubit_diagonal_posterior([DiagonalEffect(beta), DiagonalEffect(gamma)])
    entries.append(
        _state_entry("rho_a", label, predictive_populations(q_one), published="I/2")
    )
    entries.append(
        _state_entry("rho_a_prime", label, predictive_populations(q_two), published="I/2")
    )
    entries.append(
        _state_entry(
            "sigma", label, predictive_populations(q_one.multiply(q_one)), published="I/2"
        )
    )
    entries.append(
        _state_entry(
            "sigma_prime",
            label,
            predictive_populations(q_two.multiply(q_two)),
            published="diag(299/406, 107/406)",
            prediction="I/2",
            note=_SYMMETRY_NOTE,
        )
    )

    # Derived substitute parameters preserving the example's conclusion.
    alt_alpha, alt_gamma = Fraction(3, 4), Fraction(3, 10)
    alt_beta = matching_beta(alt_alpha, alt_gamma)
    alt_label = f"alpha={alt_alpha}, gamma={alt_gamma}"
    entries.append(
        AuditEntry(
            quantity="beta",
            parameters=alt_label,
            computed_exact=str(alt_beta),
            computed=(float(alt_beta),),
            note="derived parameters; no published counterpart",
        )
    )
    alt_one = qubit_diagonal_posterior([DiagonalEffect(alt_alpha)])
    alt_two = qubit_diagonal_posterior([DiagonalEffect(alt_beta), DiagonalEffect(alt_gamma)])
    alt_rho = predictive_populations(alt_one)
    alt_rho_prime = predictive_populations(alt_two)
    alt_sigma = predictive_populations(alt_one.multiply(alt_one))
    alt_sigma_prime = predictive_populations(alt_two.multiply(alt_two))
    entries.append(_state_entry("rho_a", alt_label, alt_rho))
    entries.append(_state_entry("rho_a_prime", alt_label, alt_rho_prime))
    entries.append(_state_entry("sigma", alt_label, alt_sigma))
    entries.append(_state_entry("sigma_prime", alt_label, alt_sigma_prime))
    gap = abs(alt_sigma[0] - alt_sigma_prime[0])
    entries.append(
        AuditEntry(
            quantity="population_gap",
            parameters=alt_label,
            computed_exact=str(gap),
            computed=(float(gap),),
            note="top populations of sigma and sigma_prime differ while the marginals agree",
        )
    )

    conclusion = (
        "Equal marginal states with different measurement records can yield "
        f"different pooled states (population gap {float(gap):.6f} at the derived "
        "parameters): the pooled state is not determined by the two density "
        "matrices alone."
    )
    return EstimationAudit(tuple(entries), _SYMMETRY_NOTE, conclusion)
