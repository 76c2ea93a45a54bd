"""Exact posteriors for diagonal qubit effects, and the audit of the published example.

Under the invariant measure the excited-state population r of an unknown
qubit state is uniform on [0, 1] and the phase average kills all
off-diagonal moments, so diagonal effects leave a posterior that is a
polynomial in r (Caves, Fuchs and Schack, JMP 43, 4537 (2002)).  This
module computes it in ints, Fractions and floats and imports no numpy, so a
run of the exact path or of the audit never loads it; ``estimation``
re-exports the public names.

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

from .errors import (
    DimensionGuardError,
    ImpossibleOutcomeError,
    InvalidEffectError,
    PositivityError,
    ShapeError,
    SingularConstraintError,
)
from .tolerances import TOL_SINGULAR

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

    def matrix(self):
        """The effect as a 2x2 complex numpy matrix, for the Monte-Carlo path."""
        import numpy as np

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
