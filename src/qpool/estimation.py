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

The exact path expands the posterior in the basis r^k (1 - r)^(n - k), where
its coefficients and moments are sums of nonnegative terms, so nothing
cancels.  Rational coefficients stay rational so that audits can
distinguish genuine discrepancies from round-off: rational effects fold as
integer numerators over one common denominator, and each predictive
population is one Fraction formed at the end.  Float effects fold as floats
carrying one power-of-two exponent (Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 2), so neither the coefficients nor the moment
terms underflow where the unscaled ones would, from about 1000 effects near
1/2 on.  Scaling by a power of two is exact, so wherever the unscaled
arithmetic stays in the normal float range the scaled path gives the same
floats.  ``PolynomialDensity.coeffs`` (and a report's ``posterior_coeffs_*``)
hold the unscaled values, so a coefficient below the float range reads 0.
A float posterior whose mass is below what the scaled floats resolve (past
about 2000 effects near 1/2) raises ``DimensionGuardError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, frexp, lcm, ldexp
from numbers import Rational
from typing import Sequence

import numpy as np

from .errors import (
    DimensionGuardError,
    ImpossibleOutcomeError,
    InvalidEffectError,
    NonFiniteError,
    PositivityError,
    ShapeError,
    SingularConstraintError,
)
from .haar import sample_amplitudes
from .linalg import TOL_SINGULAR, dagger, ensure_effect

_DIM_GUARD = 4096
_BLOCK_FLOATS = 65_536  # float64 per block of rows in a streamed pass over the samples
_SCALE_EXPONENT = 1020  # float posterior coefficients are scaled to sum below 2^1020


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PolynomialDensity:
    """Unnormalized posterior density q(r) = sum_k c_k r^k (1 - r)^(n - k) on [0, 1].

    ``coeffs`` holds the nonnegative c_0 .. c_n.  They stay exact (int/Fraction)
    whenever the inputs were exact, and then so do the moments.

    The arithmetic runs on a scaled copy.  Exact coefficients are integer
    numerators over one common denominator, c_k = _scaled[k] / _scale.  Float
    coefficients carry one power-of-two exponent, c_k = _scaled[k] * 2**_scale,
    with the scaled values summing to below 2^1020; scaling by a power of two is
    exact, so the scaled arithmetic rounds as the unscaled would wherever that
    stays in the normal float range.  ``coeffs`` are the unscaled values, so a
    float coefficient below the float range reads 0 there while the moments
    still see it.
    """

    coeffs: tuple
    _scaled: tuple = field(init=False, repr=False, compare=False)
    _scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        _check_coefficients(coeffs)
        if all(isinstance(c, Rational) for c in coeffs):
            scale = lcm(*(int(c.denominator) for c in coeffs))
            scaled = tuple([int(c.numerator) * (scale // int(c.denominator)) for c in coeffs])
        else:
            floats = [float(c) for c in coeffs]
            top = max(floats)
            shift = _SCALE_EXPONENT - frexp(top)[1] - len(floats).bit_length() if top > 0 else 0
            scaled, scale = tuple([ldexp(c, shift) for c in floats]), -shift
        for name, value in (("coeffs", coeffs), ("_scaled", scaled), ("_scale", scale)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_scaled(cls, scaled: tuple, scale: int) -> "PolynomialDensity":
        """The density with these scaled coefficients (see the class docstring), validated once."""
        _check_coefficients(scaled)
        if isinstance(scaled[0], int):
            coeffs = tuple([Fraction(c, scale) for c in scaled])
        else:
            coeffs = tuple([ldexp(c, scale) for c in scaled])
        density = cls.__new__(cls)
        for name, value in (("coeffs", coeffs), ("_scaled", scaled), ("_scale", scale)):
            object.__setattr__(density, name, value)
        return density

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def _exact(self) -> bool:
        return isinstance(self._scaled[0], int)

    def _float_form(self) -> tuple:
        """(scaled float coefficients, exponent); exact coefficients are rounded once."""
        return _float_scaled(self._scaled, self._scale) if self._exact else (self._scaled, self._scale)

    def _moment_sums(self, *orders) -> list:
        """One pass over the scaled coefficients for the moments of the given orders.

        Term j of the k-th moment integrates to c_j B(j+k+1, n-j+1) = c_j / N_j
        with N_j = (n+k+1) C(n+k, j+k) = (n+k+1)! / ((j+k)! (n-j)!).  Exact sums
        weigh the numerators by the integers (j+k)! (n-j)!, so the k-th moment is
        the sum over (_scale (n+k+1)!).  Float sums add the float c_j / N_j
        scaled by 2**-_scale, formed as s_j * (2^u / N_j) * 2^-u with u the bit
        length of N_j, so no reciprocal underflows.  Both integer weights follow
        from their j = 0 values by recurrence.
        """
        n = self.degree
        if self._exact:
            weights = [factorial(k) * factorial(n) for k in orders]
            sums = [0] * len(orders)
            for j, c in enumerate(self._scaled):
                for i, k in enumerate(orders):
                    if j:
                        weights[i] = weights[i] * (j + k) // (n - j + 1)
                    sums[i] += c * weights[i]
            return sums
        denominators = [(n + k + 1) * comb(n + k, k) for k in orders]
        sums = [0.0] * len(orders)
        for j, c in enumerate(self._scaled):
            for i, k in enumerate(orders):
                den = denominators[i]
                bits = den.bit_length()
                sums[i] += ldexp(c * ((1 << bits) / den), -bits)
                denominators[i] = den * (n - j) // (j + k + 1)
        return sums

    def moment(self, k: int):
        """Integral of r^k q(r) over [0, 1]; exact when the coefficients are.

        A float moment is unscaled last, so it reads 0 below the float range;
        ``predictive_populations`` divides the scaled moments instead.
        """
        (total,) = self._moment_sums(k)
        if self._exact:
            return Fraction(total, self._scale * factorial(self.degree + k + 1))
        return ldexp(total, self._scale)

    def multiply(self, other: "PolynomialDensity") -> "PolynomialDensity":
        """The product density.

        Float factors are scaled down to split the 2^1020 headroom in
        proportion to their degrees, which bound how far their coefficients
        spread, so the product's coefficients also sum to below 2^1020.
        """
        if self._exact and other._exact:
            return PolynomialDensity._from_scaled(
                _convolve(self._scaled, other._scaled, 0), self._scale * other._scale
            )
        (a, exp_a), (b, exp_b) = self._float_form(), other._float_form()
        n = self.degree + other.degree
        shift_a = _SCALE_EXPONENT * other.degree // n if n else _SCALE_EXPONENT // 2
        shift_b = _SCALE_EXPONENT - shift_a
        a = [ldexp(c, -shift_a) for c in a]
        b = [ldexp(c, -shift_b) for c in b]
        return PolynomialDensity._from_scaled(
            _convolve(a, b, 0.0), exp_a + exp_b + shift_a + shift_b
        )


def _check_coefficients(coeffs: tuple) -> None:
    if not coeffs:
        raise ShapeError("polynomial needs at least one coefficient")
    if any(c < 0 for c in coeffs):
        raise PositivityError(f"density has a negative coefficient (min {min(coeffs)})")


def _float_scaled(nums, den: int) -> tuple:
    """Rationals nums[k] / den as floats scaled by one power of two to sum below 2^1020, and the exponent undoing it.

    Each is one correctly rounded integer division, so it is the float of
    nums[k] / den times a power of two wherever that float is normal.
    """
    shift = _SCALE_EXPONENT - (sum(nums).bit_length() - den.bit_length() + 1)
    if shift >= 0:
        return tuple([(c << shift) / den for c in nums]), -shift
    return tuple([c / (den << -shift) for c in nums]), -shift


def _convolve(a, b, zero) -> tuple:
    """Coefficients of the product of two polynomials.

    Each output coefficient adds its products in increasing index of ``a``,
    starting from ``zero``; for floats that order fixes the bytes.
    """
    out = [zero] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return tuple(out)


@dataclass(frozen=True)
class DiagonalEffect:
    """The diagonal qubit effect diag(x, 1 - x)."""

    x: object  # int, Fraction or float in [0, 1]

    def __post_init__(self):
        if not 0 <= self.x <= 1:
            raise InvalidEffectError(f"effect parameter {self.x!r} outside [0, 1]")

    def matrix(self) -> np.ndarray:
        return np.diag([float(self.x), 1.0 - float(self.x)]).astype(complex)


def qubit_diagonal_posterior(effects: Sequence) -> PolynomialDensity:
    """Posterior density after a sequence of diagonal qubit effects.

    Each element may be a ``DiagonalEffect`` or a bare parameter x.  The
    empty sequence returns the flat density.

    Every effect multiplies the coefficient list by its likelihood
    (1 - x) (1 - r) + x r, whose coefficients are (1 - x, x), and the list is
    validated once at the end.  Rational effects before the first float one
    fold as integer numerators over one common denominator.  From the first
    float effect on, the coefficients are scaled floats (see
    ``PolynomialDensity``) and a rational x enters as float(x) and
    float(1 - x), the values float arithmetic would give it.
    """
    xs = [(e if isinstance(e, DiagonalEffect) else DiagonalEffect(e)).x for e in effects]
    first_float = next((i for i, x in enumerate(xs) if not isinstance(x, Rational)), len(xs))
    nums, den = [1], 1
    for x in xs[:first_float]:
        top, bottom = int(x.numerator), int(x.denominator)
        nums = [c * top + d * (bottom - top) for c, d in zip([0, *nums], [*nums, 0])]
        den *= bottom
    if first_float == len(xs):
        return PolynomialDensity._from_scaled(tuple(nums), den)
    scaled, exponent = _float_scaled(nums, den)
    for x in xs[first_float:]:
        p, q = float(1 - x), float(x)
        scaled = [c * q + d * p for c, d in zip([0.0, *scaled], [*scaled, 0.0])]
    return PolynomialDensity._from_scaled(tuple(scaled), exponent)


def predictive_populations(q: PolynomialDensity):
    """Diagonal entries of the predictive state, exact when ``q`` is.

    Both moments come from one pass over the scaled coefficients.  For exact
    ones the top population is one Fraction, sum_j c_j (j+1)! (n-j)! over
    (n+2) sum_j c_j j! (n-j)!; float ones divide the two scaled sums, which
    gives the float the unscaled moments would and stays defined where they
    would underflow.
    """
    m0, m1 = q._moment_sums(0, 1)
    if m0 <= 0 and not any(q._scaled):
        raise ImpossibleOutcomeError("posterior density integrates to zero")
    n = q.degree
    if q._exact:
        top = Fraction(m1, (n + 2) * m0)
    elif m0 < ldexp((n + 2) * (n + 3), -1025):
        # Subnormal roundings in a fold move each scaled moment by at most
        # (n + 3) 2^-1075, and m1 >= m0 / (n + 2): below this bound the ratio
        # could be off by more than 2^-50.
        raise DimensionGuardError(
            f"posterior of degree {n} is below the float range (scaled mass {m0:.3g})"
        )
    else:
        top = m1 / m0
    return top, 1 - top


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


def matching_beta(alpha, gamma):
    """Second-round parameter making two measurements mimic one.

    Solves ``predictive([A(beta), A(gamma)]) == predictive([A(alpha)])`` for
    beta; exact for exact inputs.  Raises when the constraint is singular or
    the solution is not a valid effect parameter.
    """
    exact = _is_exact(alpha) and _is_exact(gamma)
    alpha, gamma = (Fraction(alpha), Fraction(gamma)) if exact else (float(alpha), float(gamma))
    target = Fraction(1, 3) * (alpha + 1)
    denom = (2 * gamma - 1) * target - gamma
    if denom == 0 or (not exact and abs(denom) < TOL_SINGULAR):
        raise SingularConstraintError(f"constraint singular at alpha={alpha}, gamma={gamma}")
    beta = (target * (gamma - 2) + Fraction(1, 2)) / denom
    if not 0 <= beta <= 1:
        raise InvalidEffectError(f"matching beta {beta!r} outside [0, 1]")
    return beta


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


_SYMMETRY_NOTE = (
    "With alpha = 1/2 the matching constraint forces beta = 1 - gamma, which "
    "makes the two-effect likelihood invariant under r -> 1 - r.  The squared "
    "likelihood inherits that symmetry, so both populations of the pooled "
    "predictive state integrate to exactly 1/2: the pooled state is I/2, and "
    "the published diag(299, 107)/406 cannot follow from these parameters."
)

# The audited quantities of each parameter set (alpha, gamma), in report order,
# with the fields their entries carry besides the computed values.
_AUDIT_TABLE = {
    (Fraction(1, 2), Fraction(1, 4)): {
        "beta": {"published": "3/4"},
        "rho_a": {"published": "I/2"},
        "rho_a_prime": {"published": "I/2"},
        "sigma": {"published": "I/2"},
        "sigma_prime": {
            "published": "diag(299/406, 107/406)",
            "symmetry_prediction": "I/2",
            "note": _SYMMETRY_NOTE,
        },
    },
    # Derived substitute parameters preserving the example's conclusion.
    (Fraction(3, 4), Fraction(3, 10)): {
        "beta": {"note": "derived parameters; no published counterpart"},
        "rho_a": {},
        "rho_a_prime": {},
        "sigma": {},
        "sigma_prime": {},
        "population_gap": {
            "note": "top populations of sigma and sigma_prime differ while the marginals agree"
        },
    },
}


def _audit_entry(quantity, parameters, values, published=None, symmetry_prediction=None, note="") -> dict:
    """One report entry; a state's ``values`` are its two populations, a scalar's a 1-tuple."""
    exact = str(values[0]) if len(values) == 1 else f"diag({values[0]}, {values[1]})"
    matches = None
    if published is not None:
        matches = exact == published or (published == "I/2" and values[0] == Fraction(1, 2))
    return {
        "quantity": quantity,
        "parameters": parameters,
        "computed_exact": exact,
        "computed": [float(v) for v in values],
        "published": published,
        "symmetry_prediction": symmetry_prediction,
        "matches_published": matches,
        "note": note,
    }


def _audit_parameter_set(alpha, gamma, quantities: dict) -> list:
    """Audit entries of one parameter set, for the quantities listed in ``_AUDIT_TABLE``."""
    beta = matching_beta(alpha, gamma)
    one = qubit_diagonal_posterior([DiagonalEffect(alpha)])
    two = qubit_diagonal_posterior([DiagonalEffect(beta), DiagonalEffect(gamma)])
    sigma = predictive_populations(one.multiply(one))
    sigma_prime = predictive_populations(two.multiply(two))
    values = {
        "beta": (beta,),
        "rho_a": predictive_populations(one),
        "rho_a_prime": predictive_populations(two),
        "sigma": sigma,
        "sigma_prime": sigma_prime,
        "population_gap": (abs(sigma[0] - sigma_prime[0]),),
    }
    label = f"alpha={alpha}, gamma={gamma}"
    return [_audit_entry(q, label, values[q], **fields) for q, fields in quantities.items()]


def audit_published_example() -> dict:
    """Recompute every number of the published two-observer example exactly.

    Returns the report's ``entries`` (one dict per audited quantity),
    ``symmetry_note`` and ``conclusion``.

    The primary parameter set (alpha = 1/2, gamma = 1/4, hence beta = 3/4)
    reproduces the published marginals and single-measurement pooled state,
    but the exact integral contradicts the published two-measurement pooled
    state, which the r -> 1-r symmetry forces to I/2.  A derived parameter
    set (alpha = 3/4, gamma = 3/10, beta = 59/64) restores the example's
    point: equal marginals with genuinely different pooled states.
    """
    entries = []
    for (alpha, gamma), quantities in _AUDIT_TABLE.items():
        entries += _audit_parameter_set(alpha, gamma, quantities)
    gap = next(e["computed"][0] for e in entries if e["quantity"] == "population_gap")
    conclusion = (
        "Equal marginal states with different measurement records can yield "
        f"different pooled states (population gap {gap:.6f} at the derived "
        "parameters): the pooled state is not determined by the two density "
        "matrices alone."
    )
    return {"entries": entries, "symmetry_note": _SYMMETRY_NOTE, "conclusion": conclusion}
