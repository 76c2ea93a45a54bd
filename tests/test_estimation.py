import json
import math
import random
import struct
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import mpmath
import numpy as np
import pytest
from conftest import assert_same_bytes, random_effects, random_unitary
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Poly, symbols

from qpool.cli import _stream_seed, main
from qpool.config import matrix_to_literal
from qpool.errors import (
    DimensionGuardError,
    ImpossibleOutcomeError,
    InvalidEffectError,
    NonFiniteError,
    PositivityError,
    QpoolError,
    ShapeError,
    SingularConstraintError,
)
from qpool.estimation import (
    _block_rows,
    _likelihood_coefficients,
    _sample_features,
    DiagonalEffect,
    PolynomialDensity,
    WeightedStateEnsemble,
    audit_published_example,
    definetti_state,
    matching_beta,
    polynomial_predictive,
    pooled_predictive,
    posterior_update,
    predictive_populations,
    predictive_state,
    qubit_diagonal_posterior,
)
from qpool.exact import _AUDIT_TABLE, _is_exact
from qpool.haar import sample_amplitudes
from qpool.linalg import TOL_SINGULAR, trace_distance
from qpool.measurement import ensure_effect


def evaluate(q: PolynomialDensity, r):
    """q(r) = sum_j c_j r^j (1 - r)^(n - j), pointwise at a scalar or array r."""
    r, n = np.asarray(r, dtype=float), q.degree
    return sum(float(c) * r**j * (1.0 - r) ** (n - j) for j, c in enumerate(q.coeffs))


def gauss_moment(q: PolynomialDensity, k: int) -> float:
    """Quadrature oracle: Gauss-Legendre is exact for polynomial integrands."""
    nodes, weights = np.polynomial.legendre.leggauss(q.degree + k + 2)
    r = (nodes + 1.0) / 2.0
    return float(0.5 * np.sum(weights * r**k * evaluate(q, r)))


R = symbols("r")


def sympy_top_population(effects) -> Fraction:
    """Exact oracle: expand the likelihood product with sympy and integrate it in QQ[r].

    Each factor is scaled by its effect's denominator into ZZ[r], which the
    ratio of the two integrals cancels, and equal effects enter as one power
    of their factor: 2000 effects k/20 take a few seconds.
    """
    q = Poly(1, R, domain=ZZ)
    for x, count in sorted(Counter(effects).items()):
        a, b = x.numerator, x.denominator  # b (x r + (1 - x)(1 - r)); the factor b cancels
        q = q * Poly([2 * a - b, b - a], R, domain=ZZ) ** count
    q = Poly(q, R, domain=QQ)
    top = (q * Poly(R, R, domain=QQ)).integrate().eval(1) / q.integrate().eval(1)
    return Fraction(int(top.p), int(top.q))


def mpmath_top_population(effects) -> float:
    """Oracle for float or rational effects: the monomial expansion in fixed point, summed in mpmath.

    Each effect is an exact ratio x = p / d, so its factor (1 - x) + (2x - 1) r
    is (a + b r) / d with integers a = d - p and b = 2p - d; equal effects
    enter as one binomial power.  The monomial coefficients are kept as
    integers in units of 2^-prec, each update rounded down, so after n factors
    they are off by at most n 2^(S - prec), where 2^S bounds
    prod(max(1, (|a| + |b|) / d)) and so the coefficients too.  As m0 >=
    2^-n / (n + 1) (every factor is 1/2 at r = 1/2 with slope at most 1),
    prec = S + n + 3 log2(n + 1) + 120 leaves over 100 bits after the
    cancellation.  mpmath then sums m0 and m1 exactly enough at the
    coefficients' own bit length plus 64.
    """
    groups = Counter(effects)
    n = len(effects)
    spread = sum(m * max(0.0, math.log2(abs(1 - x) + abs(2 * x - 1))) for x, m in groups.items())
    prec = int(spread + n + 3 * math.log2(n + 1)) + 120
    coeffs = [1 << prec]
    for x, m in groups.items():
        p, d = x.as_integer_ratio()
        a, b = d - p, 2 * p - d
        power = [a**m]  # C(m, k) a^(m-k) b^k by recurrence in k; a = 0 only for x = 1
        for k in range(m):
            power.append(power[-1] * (m - k) * b // ((k + 1) * a) if a else 0)
        power[m] = b**m
        product = [0] * (len(coeffs) + m)
        for i, c in enumerate(coeffs):
            product[i : i + m + 1] = [u + c * t for u, t in zip(product[i : i + m + 1], power)]
        # Floor division by d^m; a shift when d is a power of two, as for every float.
        coeffs = [u >> (m * (d.bit_length() - 1)) for u in product] if d & (d - 1) == 0 else [u // d**m for u in product]
    with mpmath.workprec(max(c.bit_length() for c in coeffs) + 64):
        m0 = mpmath.fsum(mpmath.mpf(c) / (j + 1) for j, c in enumerate(coeffs))
        m1 = mpmath.fsum(mpmath.mpf(c) / (j + 2) for j, c in enumerate(coeffs))
        return float(m1 / m0)


class TestPolynomialDensity:
    def test_negative_density_rejected(self):
        with pytest.raises(PositivityError):
            PolynomialDensity((-0.1, 0.0))

    def test_moments_exact_for_exact_coefficients(self):
        assert PolynomialDensity((Fraction(1, 2), 1)).moment(1) == Fraction(5, 12)
        assert PolynomialDensity((1, 0, 2)).moment(0) == Fraction(1)
        assert isinstance(PolynomialDensity((0.5, 1)).moment(1), float)

    def test_moments_match_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = qubit_diagonal_posterior(rng.uniform(0.05, 0.95, size=rng.integers(0, 5)))
            for k in (0, 1, 2):
                assert q.moment(k) == pytest.approx(gauss_moment(q, k), abs=1e-13)


class TestQubitDiagonalPosterior:
    def test_empty_sequence_is_flat(self):
        q = qubit_diagonal_posterior([])
        assert q.coeffs == (1,)

    def test_single_effect_coefficients(self):
        alpha = Fraction(2, 5)
        q = qubit_diagonal_posterior([DiagonalEffect(alpha)])
        assert q.coeffs == (1 - alpha, alpha)

    def test_two_effect_expansion(self):
        # Product of the two likelihoods (1-x)(1-r) + x r, expanded by hand:
        # (1-b)(1-g) (1-r)^2 + (b(1-g) + (1-b)g) r(1-r) + bg r^2.
        beta, gamma = Fraction(3, 4), Fraction(1, 4)
        q = qubit_diagonal_posterior([DiagonalEffect(beta), DiagonalEffect(gamma)])
        assert q.coeffs[2] == beta * gamma
        assert q.coeffs[1] == beta * (1 - gamma) + (1 - beta) * gamma
        assert q.coeffs[0] == (1 - beta) * (1 - gamma)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64), max_size=20))
    def test_coefficients_nonnegative_and_sum_to_one(self, effects):
        coeffs = qubit_diagonal_posterior(effects).coeffs
        assert all(c >= 0 for c in coeffs)
        assert sum(coeffs) == 1

    def test_matches_pointwise_product(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(0.05, 0.95, 3)
        q = qubit_diagonal_posterior(xs)
        for r in rng.uniform(0.0, 1.0, 10):
            expected = np.prod([(2 * x - 1) * r + (1 - x) for x in xs])
            assert evaluate(q, r) == pytest.approx(float(expected), abs=1e-13)

    def test_effect_parameter_validated(self):
        with pytest.raises(InvalidEffectError):
            DiagonalEffect(1.2)


ALPHA_GRID = [Fraction(n, 20) for n in range(1, 20)]


class TestPolynomialPredictive:
    def test_flat_gives_maximally_mixed(self):
        np.testing.assert_allclose(
            polynomial_predictive(qubit_diagonal_posterior([])), np.eye(2) / 2, atol=1e-15
        )

    def test_single_effect_closed_form(self):
        # m0 = 1/2 and m1 = (alpha+1)/6, so the populations are
        # ((alpha+1)/3, (2-alpha)/3).
        for alpha in ALPHA_GRID:
            q = qubit_diagonal_posterior([DiagonalEffect(alpha)])
            top, bottom = predictive_populations(q)
            assert q.moment(0) == Fraction(1, 2)
            assert top == (alpha + 1) / 3
            assert bottom == (2 - alpha) / 3

    def test_zero_density_rejected(self):
        with pytest.raises(ImpossibleOutcomeError):
            polynomial_predictive(PolynomialDensity((0,)))


class TestPooledPredictive:
    def test_single_effect_pool_closed_form(self):
        # Pooling two identical one-measurement records:
        # top population (alpha^2 + 1/2) / (2 (1-alpha)^2 + 2 alpha).
        for alpha in ALPHA_GRID:
            q = qubit_diagonal_posterior([DiagonalEffect(alpha)])
            top, _ = predictive_populations(q.multiply(q))
            assert top == (alpha**2 + Fraction(1, 2)) / (2 * (1 - alpha) ** 2 + 2 * alpha)

    def test_half_gives_maximally_mixed(self):
        q = qubit_diagonal_posterior([DiagonalEffect(Fraction(1, 2))])
        np.testing.assert_allclose(pooled_predictive(q, q), np.eye(2) / 2, atol=1e-15)

    def test_two_effect_pool_frozen_value(self):
        # Exact rational integration gives 422149/663106 for the top
        # population at effects (59/64, 3/10); see the quadrature oracle.
        q = qubit_diagonal_posterior([DiagonalEffect(Fraction(59, 64)), DiagonalEffect(Fraction(3, 10))])
        top, bottom = predictive_populations(q.multiply(q))
        assert top == Fraction(422149, 663106)
        assert float(top) == pytest.approx(0.636624, abs=1e-6)
        q2 = q.multiply(q)
        assert float(top) == pytest.approx(gauss_moment(q2, 1) / gauss_moment(q2, 0), abs=1e-12)

    def test_flat_is_neutral(self):
        rng = np.random.default_rng(2)
        q = qubit_diagonal_posterior(rng.uniform(0.1, 0.9, 3))
        flat = qubit_diagonal_posterior([])
        np.testing.assert_array_equal(pooled_predictive(q, flat), polynomial_predictive(q))

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        qa = qubit_diagonal_posterior(rng.uniform(0.1, 0.9, 2))
        qb = qubit_diagonal_posterior(rng.uniform(0.1, 0.9, 3))
        np.testing.assert_allclose(pooled_predictive(qa, qb), pooled_predictive(qb, qa), atol=1e-15)

    def test_m0_positive_for_interior_effects(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            xs = rng.uniform(0.01, 0.99, size=rng.integers(1, 5))
            assert qubit_diagonal_posterior(xs).moment(0) > 0


# The exact path before the scaled fold: one PolynomialDensity per effect and
# one Fraction per moment term, in the parent's float arithmetic.  It is the
# reference for the fold's bytes.  ``ReferenceUnderflow`` marks inputs on which
# one of its float steps left the normal range, where its bytes carry no claim.
class ReferenceUnderflow(Exception):
    pass


def _reference_product(a, b):
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)  # a Fraction meets a float as float(Fraction)
        product = a * b
        if any(0 < abs(v) < sys.float_info.min for v in (a, b, product)) or (a and b and not product):
            raise ReferenceUnderflow
        return product
    return a * b


def reference_multiply(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += _reference_product(x, y)
    return out


def reference_posterior(effects) -> list:
    return reduce(lambda coeffs, x: reference_multiply(coeffs, [1 - x, x]), effects, [1])


def reference_moment(coeffs, k: int):
    d = len(coeffs) - 1 + k
    return sum(_reference_product(c, Fraction(1, (d + 1) * math.comb(d, j + k))) for j, c in enumerate(coeffs))


def reference_populations(coeffs) -> tuple:
    m0, m1 = reference_moment(coeffs, 0), reference_moment(coeffs, 1)
    top = m1 / m0
    if isinstance(top, float) and m1 and abs(top) < sys.float_info.min:
        raise ReferenceUnderflow
    return top, 1 - top


EFFECT_VALUES = st.one_of(
    st.floats(0, 1),
    st.sampled_from([0, 1, 0.0, 1.0, 0.5, 1e-300, 1 - 2**-53]),
    st.fractions(0, 1, max_denominator=64),
)


@st.composite
def effect_lists(draw):
    """0-40 effects drawn from a pool of up to 8 values, so that repeats are common."""
    pool = draw(st.lists(EFFECT_VALUES, min_size=1, max_size=8))
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))]


def _bits(values) -> list:
    return [struct.pack("<d", float(v)) for v in values]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(effect_lists(), effect_lists())
def test_scaled_posteriors_keep_the_reference_bytes(effects_a, effects_b):
    try:
        ref_a, ref_b = reference_posterior(effects_a), reference_posterior(effects_b)
        ref_pooled = reference_multiply(ref_a, ref_b)
        expected = [(c, reference_populations(c)) for c in (ref_a, ref_b, ref_pooled)]
    except ReferenceUnderflow:
        return
    q_a, q_b = qubit_diagonal_posterior(effects_a), qubit_diagonal_posterior(effects_b)
    for (coeffs, populations), q in zip(expected, (q_a, q_b, q_a.multiply(q_b))):
        assert list(q.coeffs) == coeffs and _bits(q.coeffs) == _bits(coeffs)
        got = predictive_populations(q)
        assert got == populations and _bits(got) == _bits(populations)
        assert [type(v) for v in got] == [type(v) for v in populations]


MC_SIGMAS = 6.0  # as in perfbench/oracles.py: a Monte-Carlo entry lies within this many standard errors


def _estimate_populations(tmp_path, payload) -> dict:
    """Run an ``estimate`` config through the CLI; the two populations of each reported state."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "estimate", "payload": payload}))
    out = tmp_path / "report.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    pops = {key: (outputs[key][0][0][0], outputs[key][1][1][0]) for key in ("predictive_a", "predictive_b", "pooled")}
    return outputs, pops


class TestOracles:
    def test_exact_path_equals_sympy(self):
        # Effects k/20 keep sympy's rationals small; float-derived ones make
        # the 300-effect expansion take tens of seconds.
        rng = np.random.default_rng(6)
        effects = [Fraction(int(k), 20) for k in rng.integers(1, 20, 300)]
        for n in (1, 21, 87):
            assert predictive_populations(qubit_diagonal_posterior(effects[:n]))[0] == (
                sympy_top_population(effects[:n])
            )
        q_a = qubit_diagonal_posterior(effects[:150])
        q_b = qubit_diagonal_posterior(effects[150:])
        top, bottom = predictive_populations(q_a.multiply(q_b))
        assert top == sympy_top_population(effects) and top + bottom == 1

    def test_exact_path_equals_sympy_at_2000_effects(self):
        rng = np.random.default_rng(6)
        effects = [Fraction(int(k), 20) for k in rng.integers(1, 20, 2000)]
        top, bottom = predictive_populations(qubit_diagonal_posterior(effects))
        assert top == sympy_top_population(effects) and top + bottom == 1

    @pytest.mark.parametrize(
        "effects",
        [[0.1] * 20, [0.1] * 21, [0.3] * 87, [0.5] * 1100, [0.3] * 2000, [0.9] * 2000, [0.5] * 2000],
        ids=["20x0.1", "21x0.1", "87x0.3", "1100x0.5", "2000x0.3", "2000x0.9", "2000x0.5"],
    )
    def test_repeated_float_effects(self, effects):
        top = mpmath_top_population(effects)
        got = polynomial_predictive(qubit_diagonal_posterior(effects))
        np.testing.assert_allclose(got, np.diag([top, 1 - top]), rtol=0, atol=1e-13)

    def test_float_pairs(self):
        rng = np.random.default_rng(7)
        for n_a, n_b in ((3, 5), (40, 60), (150, 150)):
            xs_a, xs_b = list(rng.uniform(0, 1, n_a)), list(rng.uniform(0, 1, n_b))
            q_a, q_b = qubit_diagonal_posterior(xs_a), qubit_diagonal_posterior(xs_b)
            for got, xs in (
                (polynomial_predictive(q_a), xs_a),
                (polynomial_predictive(q_b), xs_b),
                (pooled_predictive(q_a, q_b), xs_a + xs_b),
            ):
                top = mpmath_top_population(xs)
                np.testing.assert_allclose(got, np.diag([top, 1 - top]), rtol=0, atol=1e-13)

    def test_cli_runs_repeated_effects(self, tmp_path):
        outputs, _ = _estimate_populations(tmp_path, {"effects_a": [0.1] * 21})
        assert min(outputs["posterior_coeffs_a"]) >= 0
        assert sum(outputs["posterior_coeffs_a"]) == pytest.approx(1, abs=1e-15)

    def test_cli_runs_1100_half_effects(self, tmp_path):
        # Every moment term is 2^-1100 / 1101: the unscaled moments underflow.
        outputs, pops = _estimate_populations(tmp_path, {"effects_a": [0.5] * 1100})
        for key in ("predictive_a", "pooled"):
            assert pops[key][0] == pytest.approx(0.5, abs=1e-13)
            assert pops[key][1] == pytest.approx(0.5, abs=1e-13)
        assert pops["predictive_b"] == (0.5, 0.5)
        # The report holds the unscaled coefficients: c_0 = 2^-1100 reads 0.
        coeffs = outputs["posterior_coeffs_a"]
        assert coeffs[0] == 0.0 and coeffs[550] > 0
        assert sum(coeffs) == pytest.approx(1, abs=1e-13)

    def test_cli_runs_600_plus_600_random_effects(self, tmp_path):
        rng = np.random.default_rng(17)
        xs_a, xs_b = rng.uniform(0, 1, 600).tolist(), rng.uniform(0, 1, 600).tolist()
        _, pops = _estimate_populations(tmp_path, {"effects_a": xs_a, "effects_b": xs_b})
        for key, xs in (("predictive_a", xs_a), ("predictive_b", xs_b), ("pooled", xs_a + xs_b)):
            top = mpmath_top_population(xs)
            assert abs(pops[key][0] - top) <= 1e-13 and abs(pops[key][1] - (1 - top)) <= 1e-13

    def test_cli_monte_carlo_runs_1200_random_effects(self, tmp_path):
        """1200 likelihoods of about 1/2 multiply to below the smallest subnormal, so a linear
        product of weights leaves none positive.  The log weights give the exact top population
        within MC_SIGMAS Kish standard errors sqrt(Var / ESS), as in ``test_fusion.py``: ESS is
        (sum w)^2 / sum w^2, and Var the w^2-weighted variance of the sample populations about it."""
        rng = random.Random(5)
        effects = [rng.random() for _ in range(1200)]
        outputs, pops = _estimate_populations(tmp_path, {"effects_a": effects, "mc_samples": 1000})
        ens = WeightedStateEnsemble.from_prior(2, 1000, _stream_seed(0))
        ens = posterior_update(ens, *map(DiagonalEffect, effects))
        assert outputs["mc_predictive_a"] == matrix_to_literal(predictive_state(ens))
        exact, got = pops["predictive_a"][0], outputs["mc_predictive_a"][0][0][0]
        w, top = ens.weights, np.abs(ens.amplitudes[:, 0]) ** 2
        ess = w.sum() ** 2 / (w**2).sum()
        se = np.sqrt((w**2 @ (top - exact) ** 2) / (w**2).sum() / ess)
        assert abs(got - exact) <= MC_SIGMAS * se

    def test_beyond_the_float_range_is_a_named_error(self, tmp_path):
        # A mass of 2^-3000 is past what the scaled floats resolve.
        with pytest.raises(DimensionGuardError, match="below the float range"):
            predictive_populations(qubit_diagonal_posterior([0.5] * 3000))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "estimate", "payload": {"effects_a": [0.5] * 3000}}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "report.json")]) == 2


class TestMatchingBeta:
    def test_published_point(self):
        assert matching_beta(Fraction(1, 2), Fraction(1, 4)) == Fraction(3, 4)

    def test_half_alpha_reduces_to_complement(self):
        for gamma in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            assert matching_beta(Fraction(1, 2), gamma) == 1 - gamma

    def test_derived_point(self):
        # (7 gamma - 8) / (2 gamma - 7) at gamma = 3/10.
        assert matching_beta(Fraction(3, 4), Fraction(3, 10)) == Fraction(59, 64)

    def test_postcondition_on_grid(self):
        for alpha in [Fraction(n, 100) for n in range(55, 100, 5)]:
            for gamma in [Fraction(n, 20) for n in range(1, 20)]:
                try:
                    beta = matching_beta(alpha, gamma)
                except InvalidEffectError:
                    continue
                one = predictive_populations(qubit_diagonal_posterior([DiagonalEffect(alpha)]))
                two = predictive_populations(
                    qubit_diagonal_posterior([DiagonalEffect(beta), DiagonalEffect(gamma)])
                )
                assert one == two  # exact rational equality

    def test_singular_denominator(self):
        with pytest.raises(SingularConstraintError):
            matching_beta(2, 1)

    def test_out_of_range_solution(self):
        with pytest.raises(InvalidEffectError):
            matching_beta(Fraction(1, 10), Fraction(9, 10))


# matching_beta as it was when it picked float constants for float inputs,
# kept as the reference for the one-set-of-constants version.
def reference_matching_beta(alpha, gamma):
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


BETA_ARGUMENTS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.fractions(-2, 2, max_denominator=40),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.0 / 3.0, 2.0 / 3.0, 2.0, -0.0]),
)


def _beta_outcome(solve, alpha, gamma):
    """``(type, repr)`` of the solved beta, or the class and message of the qpool error raised."""
    try:
        beta = solve(alpha, gamma)
    except QpoolError as exc:
        return type(exc), str(exc)
    return type(beta), repr(beta)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(BETA_ARGUMENTS, BETA_ARGUMENTS)
def test_matching_beta_matches_reference(alpha, gamma):
    assert _beta_outcome(matching_beta, alpha, gamma) == _beta_outcome(reference_matching_beta, alpha, gamma)


def ensemble(*rows, log_weights=None) -> WeightedStateEnsemble:
    """An ensemble of the given amplitude rows, with unit weights (log weights 0) by default."""
    amps = np.array(rows, dtype=complex)
    return WeightedStateEnsemble(amps, np.zeros(len(rows)) if log_weights is None else log_weights)


# A qubit pure state with populations (0.3, 0.7) and relative phase 1.1.
SKEWED = np.array([np.sqrt(0.3), np.sqrt(0.7) * np.exp(1.1j)])


class TestEnsemblePath:
    def test_identity_effect_keeps_weights(self):
        ens = WeightedStateEnsemble.from_prior(2, 500, seed=0)
        updated = posterior_update(ens, np.eye(2))
        np.testing.assert_allclose(updated.weights, ens.weights, atol=1e-12)

    def test_projector_effect_kills_orthogonal_samples(self):
        ens = ensemble([1.0, 0.0], [0.0, 1.0])
        updated = posterior_update(ens, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(updated.weights, [1.0, 0.0], atol=1e-12)

    def test_unbiased_effect_scales_all_weights(self):
        ens = WeightedStateEnsemble.from_prior(2, 500, seed=1)
        updated = posterior_update(ens, DiagonalEffect(0.5))
        np.testing.assert_allclose(updated.log_weights, ens.log_weights + np.log(0.5), rtol=0.0, atol=1e-12)

    def test_diagonal_likelihood_arithmetic(self):
        ens = ensemble([np.sqrt(0.5), np.sqrt(0.5)])
        updated = posterior_update(ens, np.diag([0.8, 0.4]))
        # Tr[diag(0.8, 0.4) rho] with populations (0.5, 0.5).
        assert updated.log_weights[0] == pytest.approx(np.log(0.6), abs=1e-12)
        assert updated.weights[0] == 1.0

    def test_impossible_outcome(self):
        ens = ensemble([0.0, 1.0])
        with pytest.raises(ImpossibleOutcomeError):
            posterior_update(ens, np.diag([1.0, 0.0]))

    def test_single_sample_predictive(self):
        ens = ensemble(SKEWED)
        np.testing.assert_allclose(predictive_state(ens), np.outer(SKEWED, SKEWED.conj()), atol=1e-12)

    def test_prior_predictive_is_maximally_mixed(self):
        ens = WeightedStateEnsemble.from_prior(2, 200_000, seed=2)
        np.testing.assert_allclose(predictive_state(ens), np.eye(2) / 2, atol=1e-2)

    def test_monte_carlo_matches_exact_path(self):
        # Reduced-size version of the oracle-equivalence acceptance run.
        rng = np.random.default_rng(5)
        ens = WeightedStateEnsemble.from_prior(2, 200_000, seed=3)
        for _ in range(5):
            xs = rng.uniform(0.05, 0.95, size=rng.integers(1, 5))
            updated = ens
            for x in xs:
                updated = posterior_update(updated, DiagonalEffect(x))
            exact = polynomial_predictive(qubit_diagonal_posterior(xs))
            np.testing.assert_allclose(predictive_state(updated), exact, atol=1e-2)


# The per-effect update before effects were folded into one pass, kept as
# the reference for the fold.
def reference_posterior_update(ens: WeightedStateEnsemble, effect) -> WeightedStateEnsemble:
    """Add the log of every sample's outcome likelihood Tr[E rho_sample] to its log weight."""
    if isinstance(effect, DiagonalEffect):
        effect = effect.matrix()
    effect = ensure_effect(effect)[0]
    if effect.shape[0] != ens.dim:
        raise ShapeError(f"effect dim {effect.shape[0]} != ensemble dim {ens.dim}")
    likelihood = np.einsum(
        "ni,ij,nj->n", ens.amplitudes.conj(), effect, ens.amplitudes
    ).real
    with np.errstate(divide="ignore"):
        log_weights = ens.log_weights + np.log(np.clip(likelihood, 0.0, None))
    return WeightedStateEnsemble(ens.amplitudes, log_weights)


def _outcome(call):
    """``call()``'s value, or the type and message of the qpool error it raised."""
    try:
        return call()
    except QpoolError as exc:
        return type(exc), str(exc)


@st.composite
def updates(draw):
    """A weighted ensemble and 0-12 effects of its dimension, a few of them invalid.

    The effects are random ones with off-diagonal entries, rank-1 projectors,
    diagonal ones with zero entries (which give the basis-state samples mixed
    into the ensemble zero likelihood) and, for qubits, ``DiagonalEffect``s.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    amps = sample_amplitudes(dim, n, rng)
    basis = draw(st.integers(0, min(3, n)))
    amps[:basis] = np.eye(dim)[rng.integers(0, dim, basis)]
    ens = WeightedStateEnsemble(amps, np.log(rng.uniform(0.5, 2.0, n)))
    kinds = ["random", "projector", "diagonal"] + ["qubit"] * (dim == 2)
    invalid = draw(st.sampled_from([None, None, None, "too large", "negative", "wrong dim"]))
    effects = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            effects.append(random_effects(rng, dim, 2)[0])
        elif kind == "projector":
            v = random_unitary(rng, dim)[:, 0]
            effects.append(np.outer(v, v.conj()))
        elif kind == "diagonal":
            effects.append(np.diag(rng.uniform(0.0, 1.0, dim) * (rng.uniform(size=dim) < 0.7)))
        else:
            effects.append(DiagonalEffect(float(rng.uniform())))
    if invalid is not None and effects:
        bad = {"too large": 1.5 * np.eye(dim), "negative": -0.5 * np.eye(dim), "wrong dim": np.eye(dim + 1)}
        effects.insert(int(rng.integers(len(effects))), bad[invalid])
    return ens, effects


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(updates())
def test_folded_update_matches_per_effect_reference(case):
    ens, effects = case
    # Every effect is validated before any is applied, in argument order; the
    # per-effect reference meets an invalid effect only after its predecessors.
    singles = [_outcome(lambda: reference_posterior_update(ens, e)) for e in effects]
    invalid = [r for r in singles if isinstance(r, tuple) and r[0] is not ImpossibleOutcomeError]
    want = invalid[0] if invalid else _outcome(lambda: reduce(reference_posterior_update, effects, ens))
    got = _outcome(lambda: posterior_update(ens, *effects))
    if isinstance(want, tuple):
        assert want[0] in (ShapeError, InvalidEffectError, PositivityError, ImpossibleOutcomeError)
        assert got == want
    else:
        # A likelihood near zero loses its relative accuracy to cancellation in
        # either form, so its log does too; the weights are compared relative to
        # the largest one, where that loss is at most 1e-13.
        assert got.amplitudes is ens.amplitudes
        np.testing.assert_allclose(got.weights, want.weights, rtol=0.0, atol=1e-13)
        assert np.all(got.log_weights[want.log_weights == -np.inf] == -np.inf)


class TestFoldedUpdate:
    def test_no_effects_keeps_weights(self):
        ens = WeightedStateEnsemble.from_prior(3, 100, seed=9)
        assert_same_bytes(posterior_update(ens).log_weights, ens.log_weights)

    def test_fold_equals_sequential_calls(self):
        ens = WeightedStateEnsemble.from_prior(2, 1000, seed=10)
        effects = [DiagonalEffect(x) for x in (0.2, 0.9, 0.5, 0.35)]
        effects.append(random_effects(np.random.default_rng(11), 2, 3)[1])
        assert_same_bytes(
            posterior_update(ens, *effects).log_weights,
            reduce(posterior_update, effects, ens).log_weights,
        )

    def test_first_invalid_effect_is_reported(self):
        ens = WeightedStateEnsemble.from_prior(2, 100, seed=12)
        with pytest.raises(ShapeError):
            posterior_update(ens, np.diag([1.0, 0.0]), np.eye(3), 2 * np.eye(2))
        with pytest.raises(InvalidEffectError):
            posterior_update(ens, np.diag([0.0, 0.0]), 2 * np.eye(2), np.eye(3))


class TestTinyAndHugeWeights:
    """Weights are kept as logs and taken against the largest at readout, so no total under- or overflows."""

    @pytest.mark.parametrize("weight", [1e-320, 5e-324, 1e308])
    def test_equal_weights_give_the_sample_projector(self, weight):
        ens = ensemble(SKEWED, SKEWED, log_weights=[np.log(weight)] * 2)
        projector = np.outer(SKEWED, SKEWED.conj())
        np.testing.assert_allclose(predictive_state(ens), projector, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(definetti_state(1, posterior=ens), projector, rtol=0.0, atol=1e-15)

    def test_subnormal_total_after_many_updates(self):
        ens = WeightedStateEnsemble.from_prior(2, 2000, seed=13)
        for _ in range(1060):
            ens = posterior_update(ens, DiagonalEffect(0.5))
        # Each likelihood is 1/2 within an ulp or so, and each of the 1060 additions rounds by at
        # most half an ulp of a sum below 1060 log 2, so one ulp of that sum per update bounds both.
        want_log = 1060 * np.log(0.5)
        np.testing.assert_allclose(ens.log_weights, want_log, rtol=0.0, atol=1060 * np.spacing(-want_log))
        # The linear product of the likelihoods would be subnormal; the log weights keep every digit.
        assert 0.0 < np.exp(ens.log_weights).sum() < np.finfo(float).tiny
        w = ens.weights
        amps = ens.amplitudes
        want = (amps.T * w) @ amps.conj() / w.sum()
        np.testing.assert_allclose(predictive_state(ens), want, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(definetti_state(1, posterior=ens), want, rtol=0.0, atol=1e-15)


def one_shot_predictive_state(ens: WeightedStateEnsemble) -> np.ndarray:
    """``predictive_state`` with one weighted copy of every sample in a single Gram product."""
    cols = np.ascontiguousarray(ens.amplitudes).view(np.float64)
    w = ens.weights / ens.weights.max()
    gram = (cols.T * (w / w.sum())) @ cols
    out = (gram[0::2, 0::2] + gram[1::2, 1::2]) + 1j * (gram[1::2, 0::2] - gram[0::2, 1::2])
    return (out + out.conj().T) / 2


@st.composite
def blocked_ensembles(draw):
    """Posterior ensembles at dims 1-8 with 1, one block of rows less one, one block, one block
    and one row, or two to four blocks of samples."""
    dim = draw(st.integers(1, 8))
    rows = _block_rows(dim)
    n_samples = draw(st.sampled_from([1, rows - 1, rows, rows + 1, None]))
    if n_samples is None:
        n_samples = draw(st.integers(2 * rows, 4 * rows))
    seed = draw(st.integers(0, 2**32 - 1))
    ens = WeightedStateEnsemble.from_prior(dim, n_samples, seed)
    effect = random_effects(np.random.default_rng(seed), dim, 2)[0]
    return posterior_update(ens, effect)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(blocked_ensembles())
def test_blocked_readout_matches_the_one_shot_product(ens):
    """Both sum the same n normalized rank-one terms in another order; recursive summation of n
    terms errs by at most about n eps of their total (Higham, ch. 4), so 4 n eps is ample."""
    np.testing.assert_allclose(
        predictive_state(ens),
        one_shot_predictive_state(ens),
        rtol=0,
        atol=4 * ens.n_samples * np.finfo(float).eps,
    )


def test_readout_memory_is_a_block_not_a_copy_of_the_ensemble():
    """d = 8 and 100k samples hold 12.8 MB of amplitudes.  The readout allocates the normalized
    weights (0.8 MB) and one block's weighted copy (512 kB); a weighted copy of the whole
    ensemble would put the peak above the amplitude bytes."""
    ens = WeightedStateEnsemble.from_prior(8, 100_000, seed=14)
    tracemalloc.start()
    try:
        predictive_state(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * ens.amplitudes.nbytes


def one_table_posterior_update(ens: WeightedStateEnsemble, *effects) -> np.ndarray:
    """The log weights ``posterior_update`` gives, from one (d^2, n) feature table of every sample."""
    log_weights = np.array(ens.log_weights)
    features = _sample_features(ens.amplitudes)
    likelihood = np.empty(ens.n_samples)
    for effect in effects:
        np.matmul(_likelihood_coefficients(ensure_effect(effect)[0]), features, out=likelihood)
        with np.errstate(divide="ignore"):
            log_weights += np.log(np.maximum(likelihood, 0.0, out=likelihood))
    return log_weights


@st.composite
def feature_blocked_updates(draw):
    """Prior ensembles at dims 1-8 with 1, one feature block less one, one block, one block and
    one sample, or two to four blocks of samples, and 1-3 complete random effects."""
    dim = draw(st.integers(1, 8))
    rows = _block_rows(dim * dim)
    n_samples = draw(st.sampled_from([1, rows - 1, rows, rows + 1, None]))
    if n_samples is None:
        n_samples = draw(st.integers(2 * rows, 4 * rows))
    seed = draw(st.integers(0, 2**32 - 1))
    effects = random_effects(np.random.default_rng(seed), dim, 3)[: draw(st.integers(1, 3))]
    return WeightedStateEnsemble.from_prior(dim, n_samples, seed), effects


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(feature_blocked_updates())
def test_blocked_update_matches_the_one_table_reference(case):
    """Each likelihood is the same dot product in either form; only where BLAS meets a block's
    last columns may it round one differently, by an ulp or so.  That ulp is relative to the
    terms, not to a likelihood near zero, so the weights are compared relative to the largest."""
    ens, effects = case
    want = one_table_posterior_update(ens, *effects)
    got = posterior_update(ens, *effects).weights
    np.testing.assert_allclose(got, np.exp(want - want.max()), rtol=0.0, atol=1e-13)


def test_update_memory_is_a_block_not_the_feature_table():
    """d = 8 and 100k samples: one feature table of every sample is 51.2 MB.  The blocked update
    allocates the log weights' copy (0.8 MB) and one block's table and likelihoods (260 kB)."""
    ens = WeightedStateEnsemble.from_prior(8, 100_000, seed=16)
    effects = random_effects(np.random.default_rng(16), 8, 3)
    want = one_table_posterior_update(ens, *effects)
    tracemalloc.start()
    try:
        got = posterior_update(ens, *effects)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # 195 blocks of 512 samples and one of 160: here the blocks give the one-table bytes.
    assert_same_bytes(got.log_weights, want)


def test_one_copy_of_a_posterior_is_its_predictive_state():
    effects = random_effects(np.random.default_rng(17), 3, 2)
    ens = posterior_update(WeightedStateEnsemble.from_prior(3, 20_000, seed=17), *effects)
    assert_same_bytes(definetti_state(1, posterior=ens), predictive_state(ens))


def one_shot_definetti_state(ens: WeightedStateEnsemble, n_copies: int) -> np.ndarray:
    """sum_n w_n |a_n><a_n|^(x N) as one complex product of every sample's tensor power."""
    power = ens.amplitudes
    for _ in range(n_copies - 1):
        power = np.einsum("ni,nj->nij", power, ens.amplitudes).reshape(ens.n_samples, -1)
    w = ens.weights / ens.weights.sum()
    out = (power.T * w) @ power.conj()
    return (out + out.conj().T) / 2


@pytest.mark.parametrize("dim, n_copies", [(2, 2), (2, 3), (3, 2), (2, 6)])
def test_blocked_tensor_powers_match_the_one_shot_product(dim, n_copies):
    """The same n normalized rank-one terms summed in another order, within 4 n eps (Higham, ch. 4)."""
    rng = np.random.default_rng(dim * 10 + n_copies)
    ens = WeightedStateEnsemble.from_prior(dim, 3 * _block_rows(dim**n_copies) + 5, int(rng.integers(2**31)))
    ens = posterior_update(ens, *random_effects(rng, dim, 2)[:1])
    np.testing.assert_allclose(
        definetti_state(n_copies, posterior=ens),
        one_shot_definetti_state(ens, n_copies),
        rtol=0.0,
        atol=4 * ens.n_samples * np.finfo(float).eps,
    )


class TestDefinettiState:
    def test_zero_copies(self):
        np.testing.assert_array_equal(definetti_state(0), np.eye(1))

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            definetti_state(13, n_samples=10)

    def test_single_copy_flat_prior(self):
        out = definetti_state(1, n_samples=200_000, seed=4)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-2)

    def test_two_copies_against_enumeration_oracle(self):
        # Entrywise integration over uniform population and phases: the
        # phase average keeps only entries whose index multisets match,
        # leaving beta-function moments of r.  The result is the
        # two-copy symmetric projector divided by 3.
        oracle = np.array(
            [
                [Fraction(1, 3), 0, 0, 0],
                [0, Fraction(1, 6), Fraction(1, 6), 0],
                [0, Fraction(1, 6), Fraction(1, 6), 0],
                [0, 0, 0, Fraction(1, 3)],
            ],
            dtype=float,
        )
        out = definetti_state(2, n_samples=200_000, seed=5)
        np.testing.assert_allclose(out, oracle, atol=1e-2)

    def test_supported_on_symmetric_subspace(self):
        out = definetti_state(2, n_samples=20_000, seed=6)
        antisym = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        assert abs(antisym @ out @ antisym) <= 1e-12

    def test_posterior_ensemble_weighting(self):
        ens = WeightedStateEnsemble.from_prior(2, 100_000, seed=7)
        updated = posterior_update(ens, DiagonalEffect(0.9))
        out = definetti_state(1, posterior=updated)
        exact = polynomial_predictive(qubit_diagonal_posterior([0.9]))
        np.testing.assert_allclose(out, exact, atol=1e-2)


def audit_entries() -> dict:
    """The audit's entries by (quantity, parameters)."""
    return {(e["quantity"], e["parameters"]): e for e in audit_published_example()["entries"]}


class TestAudit:
    def test_primary_parameters_match_published(self):
        entries = audit_entries()
        primary = "alpha=1/2, gamma=1/4"
        assert entries["beta", primary]["matches_published"]
        for name in ("rho_a", "rho_a_prime", "sigma"):
            assert entries[name, primary]["matches_published"]

    def test_published_pooled_state_is_not_reproducible(self):
        entry = audit_entries()["sigma_prime", "alpha=1/2, gamma=1/4"]
        assert entry["matches_published"] is False
        assert entry["computed_exact"] == "diag(1/2, 1/2)"
        assert entry["symmetry_prediction"] == "I/2"
        assert "r -> 1 - r" in entry["note"]

    def test_alternative_parameters_preserve_the_conclusion(self):
        entries = audit_entries()
        alt = "alpha=3/4, gamma=3/10"
        assert entries["beta", alt]["computed_exact"] == "59/64"
        assert entries["rho_a", alt]["computed_exact"] == "diag(7/12, 5/12)"
        assert entries["rho_a_prime", alt]["computed_exact"] == "diag(7/12, 5/12)"
        assert entries["sigma", alt]["computed_exact"] == "diag(17/26, 9/26)"
        sigma_prime = entries["sigma_prime", alt]
        assert sigma_prime["computed"][0] == pytest.approx(0.636624, abs=1e-6)
        gap = entries["population_gap", alt]
        assert gap["computed"][0] >= 0.015

    def test_report_is_the_reproduce_paper_outputs(self):
        audit = audit_published_example()
        assert list(audit) == ["entries", "symmetry_note", "conclusion"]
        assert len(audit["entries"]) == sum(len(q) for q in _AUDIT_TABLE.values())
        assert json.loads(json.dumps(audit)) == audit


def test_log_weights_match_the_linear_product_in_the_normal_range():
    """20 random d = 3 effects over 5000 samples keep every linear weight normal (the smallest is
    about 1e-9), so the linear product is a reference for exp(log_w - max).  That product errs by
    at most 20 roundings relative; the log weight is a sum of 20 logs of magnitude up to about 20,
    whose recursive-summation bound (Higham, ch. 4) is about 800 ulps of 1.  Those roundings mostly
    cancel: draws of this kind at seeds 0-19 differ by at most 28.5 ulps of 1, so 64 is the bound."""
    rng = np.random.default_rng(23)
    effects = [e for _ in range(10) for e in random_effects(rng, 3, 2)]
    ens = WeightedStateEnsemble.from_prior(3, 5000, seed=23)
    features = _sample_features(ens.amplitudes)
    linear = np.ones(ens.n_samples)
    for effect in effects:
        linear *= np.maximum(_likelihood_coefficients(ensure_effect(effect)[0]) @ features, 0.0)
    assert linear.min() > np.finfo(float).tiny
    got = posterior_update(ens, *effects).weights
    np.testing.assert_allclose(got, linear / linear.max(), rtol=0.0, atol=64 * np.finfo(float).eps)


def test_ensemble_validation():
    amps = np.ones((2, 2), dtype=complex)
    with pytest.raises(ShapeError):
        WeightedStateEnsemble(np.zeros((3, 2), dtype=complex), np.zeros(2))
    with pytest.raises(ImpossibleOutcomeError, match="no sample has positive weight"):
        WeightedStateEnsemble(amps, np.full(2, -np.inf))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteError):
            WeightedStateEnsemble(amps, np.array([0.0, bad]))
    # A negative log weight is a weight below 1, and -inf a weight of zero.
    np.testing.assert_array_equal(WeightedStateEnsemble(amps, np.array([-0.5, -np.inf])).weights, [1.0, 0.0])
    with pytest.raises(ShapeError):
        definetti_state(-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WeightedStateEnsemble.from_prior(2, 0, 0),
        lambda: definetti_state(2, n_samples=0),
        lambda: WeightedStateEnsemble(np.zeros((0, 2), dtype=complex), np.zeros(0)),
        lambda: sample_amplitudes(2, -1, np.random.default_rng(0)),
        lambda: trace_distance(np.eye(2) / 2, np.eye(3) / 3),
    ],
    ids=["from_prior_no_samples", "definetti_no_samples", "empty_ensemble", "negative_sample_count", "trace_distance_shapes"],
)
def test_degenerate_sizes_raise_shape_error(call):
    # Each is refused before numpy sees it, which would raise a bare ValueError.
    with pytest.raises(ShapeError):
        call()
