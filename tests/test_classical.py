import numpy as np
import pytest
from conftest import assert_same_bytes, random_unitary, sqrtm_psd
from hypothesis import given, settings
from hypothesis import strategies as st

from qpool.classical import (
    LikelihoodModel,
    ProbDist,
    bayes_update,
    matrix_bayes_update,
    pool_classical,
    pool_commuting_density,
    sequential_update,
)
from qpool.errors import (
    ImpossibleOutcomeError,
    IncompatibleKnowledgeError,
    InvalidEffectError,
    NoncommutingError,
    NonFiniteError,
    NotNormalizedError,
    PositivityError,
    QpoolError,
    ShapeError,
)
from qpool.linalg import dagger, ensure_density_matrix, ensure_hermitian

# Rows are P(m|.), columns sum to 1 over outcomes.
MODEL_84 = LikelihoodModel([[0.8, 0.4], [0.2, 0.6]])


def random_model(rng, n, n_outcomes=3):
    cond = rng.uniform(0.05, 1.0, (n_outcomes, n))
    return LikelihoodModel(cond / cond.sum(axis=0, keepdims=True))


class TestProbDist:
    def test_flat(self):
        np.testing.assert_allclose(ProbDist.flat(4).probs, 0.25)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ProbDist([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbDist([1.2, -0.2])


class TestLikelihoodModel:
    @pytest.mark.parametrize("cond", [[[1.1, 0.4], [-0.1, 0.6]], [[-0.2, 0.4], [1.2, 0.6]]])
    def test_rejects_entries_outside_unit_interval(self, cond):
        with pytest.raises(InvalidEffectError):
            LikelihoodModel(cond)

    @pytest.mark.parametrize("cond", [[[0.8, 0.4], [0.3, 0.6]]])
    def test_rejects_columns_not_summing_to_one(self, cond):
        with pytest.raises(NotNormalizedError):
            LikelihoodModel(cond)

    # Non-finite entries get the same error name as in ProbDist.
    @pytest.mark.parametrize(
        "cond",
        [[[0.8, np.nan], [0.2, 0.6]], [[np.nan, 1], [1, 0]], [[np.inf, 1], [1, 0]]],
        ids=["nan_column", "nan", "inf"],
    )
    def test_rejects_non_finite_entries(self, cond):
        with pytest.raises(NonFiniteError):
            LikelihoodModel(cond)


class TestBayesUpdate:
    def test_hand_arithmetic(self):
        # (0.8, 0.4) on a flat prior: (0.4, 0.2) / 0.6.
        post = bayes_update(ProbDist.flat(2), MODEL_84, outcome=0)
        np.testing.assert_allclose(post.probs, [2 / 3, 1 / 3], atol=1e-15)

    def test_uninformative_outcome(self):
        model = LikelihoodModel([[0.3, 0.3], [0.7, 0.7]])
        prior = ProbDist([0.6, 0.4])
        np.testing.assert_allclose(bayes_update(prior, model, 0).probs, prior.probs, atol=1e-15)

    def test_zero_prior_stays_zero(self):
        model = LikelihoodModel([[0.9, 0.5], [0.1, 0.5]])
        post = bayes_update(ProbDist([0.0, 1.0]), model, 0)
        np.testing.assert_allclose(post.probs, [0.0, 1.0], atol=1e-15)

    def test_impossible_outcome(self):
        model = LikelihoodModel([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ImpossibleOutcomeError):
            bayes_update(ProbDist.flat(2), model, 0)

    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_outside_the_model(self, outcome):
        # MODEL_84 has outcomes 0 and 1: -1 must not wrap around to the last row.
        with pytest.raises(ImpossibleOutcomeError):
            bayes_update(ProbDist.flat(2), MODEL_84, outcome)


class TestSequentialUpdate:
    def test_empty_evidence(self):
        prior = ProbDist([0.3, 0.7])
        np.testing.assert_allclose(sequential_update(prior, []).probs, prior.probs)

    def test_two_repeats(self):
        # (0.8, 0.4)^2 on flat: (0.64, 0.16) renormalized.
        post = sequential_update(ProbDist.flat(2), [(MODEL_84, 0), (MODEL_84, 0)])
        np.testing.assert_allclose(post.probs, [0.8, 0.2], atol=1e-15)

    def test_matches_fold_of_single_updates(self):
        rng = np.random.default_rng(1)
        prior = ProbDist(rng.dirichlet(np.ones(4)))
        evidence = [(random_model(rng, 4), int(rng.integers(0, 3))) for _ in range(4)]
        folded = prior
        for model, outcome in evidence:
            folded = bayes_update(folded, model, outcome)
        np.testing.assert_allclose(
            sequential_update(prior, evidence).probs, folded.probs, atol=1e-12
        )

    def test_order_independence(self):
        rng = np.random.default_rng(2)
        evidence = [(random_model(rng, 3), int(rng.integers(0, 3))) for _ in range(3)]
        reference = sequential_update(ProbDist.flat(3), evidence).probs
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = [evidence[k] for k in perm]
            np.testing.assert_allclose(
                sequential_update(ProbDist.flat(3), shuffled).probs, reference, atol=1e-12
            )


class TestPoolClassical:
    def test_flat_is_neutral(self):
        out = pool_classical(ProbDist.flat(2), ProbDist([1 / 3, 2 / 3]))
        np.testing.assert_allclose(out.probs, [1 / 3, 2 / 3], atol=1e-14)

    def test_self_pool(self):
        # (4/9, 1/9) renormalized.
        out = pool_classical(ProbDist([2 / 3, 1 / 3]), ProbDist([2 / 3, 1 / 3]))
        np.testing.assert_allclose(out.probs, [0.8, 0.2], atol=1e-15)

    def test_disjoint_supports(self):
        with pytest.raises(IncompatibleKnowledgeError):
            pool_classical(ProbDist([1.0, 0.0]), ProbDist([0.0, 1.0]))

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            p, q, r = (ProbDist(rng.dirichlet(np.ones(n)) * 0.98 + 0.02 / n) for _ in range(3))
            np.testing.assert_allclose(
                pool_classical(p, q).probs, pool_classical(q, p).probs, atol=1e-12
            )
            np.testing.assert_allclose(
                pool_classical(pool_classical(p, q), r).probs,
                pool_classical(p, pool_classical(q, r)).probs,
                atol=1e-12,
            )

    def test_argmax_preserved_under_self_pool(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = ProbDist(rng.dirichlet(np.ones(5)))
            pooled = pool_classical(p, p)
            assert int(np.argmax(pooled.probs)) == int(np.argmax(p.probs))

    def test_charlie_formula(self):
        # Pooling two posteriors from a flat prior equals one sequential
        # update over the concatenated evidence.
        rng = np.random.default_rng(5)
        n = 6
        flat = ProbDist.flat(n)
        ev_a = [(random_model(rng, n), int(rng.integers(0, 3))) for _ in range(3)]
        ev_b = [(random_model(rng, n), int(rng.integers(0, 3))) for _ in range(2)]
        pooled = pool_classical(sequential_update(flat, ev_a), sequential_update(flat, ev_b))
        joint = sequential_update(flat, ev_a + ev_b)
        np.testing.assert_allclose(pooled.probs, joint.probs, atol=1e-12)

    def test_fold_of_single_update_posteriors(self):
        rng = np.random.default_rng(6)
        n = 5
        flat = ProbDist.flat(n)
        evidence = [(random_model(rng, n), int(rng.integers(0, 3))) for _ in range(4)]
        folded = flat
        for item in evidence:
            folded = pool_classical(folded, sequential_update(flat, [item]))
        np.testing.assert_allclose(
            folded.probs, sequential_update(flat, evidence).probs, atol=1e-12
        )


class TestMatrixBayesUpdate:
    def test_hand_arithmetic(self):
        post, prob = matrix_bayes_update(np.eye(2) / 2, np.diag([0.8, 0.4]))
        np.testing.assert_allclose(post, np.diag([2 / 3, 1 / 3]), atol=1e-15)
        assert prob == pytest.approx(0.6, abs=1e-15)

    def test_identity_effect(self):
        rho = np.diag([0.3, 0.7])
        post, prob = matrix_bayes_update(rho, np.eye(2))
        np.testing.assert_allclose(post, rho, atol=1e-15)
        assert prob == pytest.approx(1.0)

    def test_impossible(self):
        with pytest.raises(ImpossibleOutcomeError):
            matrix_bayes_update(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_rejects_non_diagonal(self):
        with pytest.raises(NoncommutingError):
            matrix_bayes_update(np.array([[0.5, 0.2], [0.2, 0.5]]), np.diag([0.5, 0.5]))

    def test_rejects_effect_above_identity(self):
        # Tr[E rho] would be 1.5.
        with pytest.raises(InvalidEffectError):
            matrix_bayes_update(np.eye(2) / 2, np.diag([3.0, 0.0]))

    def test_rejects_negative_effect_before_the_probability(self):
        # Tr[E rho] = -0.5 would read as an impossible outcome.
        with pytest.raises(PositivityError):
            matrix_bayes_update(np.diag([1.0, 0.0]), np.diag([-0.5, 1.0]))

    def test_agrees_with_vector_bayes(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            prior = rng.dirichlet(np.ones(n))
            row = rng.uniform(0.01, 1.0, n)
            post, prob = matrix_bayes_update(np.diag(prior), np.diag(row))
            expected = prior * row / (prior * row).sum()
            np.testing.assert_allclose(np.diag(post).real, expected, atol=1e-12)
            assert prob == pytest.approx(float((prior * row).sum()), abs=1e-12)


class TestPoolCommutingDensity:
    def test_maximally_mixed_is_neutral(self):
        rho = np.diag([0.6, 0.3, 0.1])
        np.testing.assert_allclose(pool_commuting_density(np.eye(3) / 3, rho), rho, atol=1e-12)

    def test_matches_classical_pool_on_diagonals(self):
        out = pool_commuting_density(np.diag([2 / 3, 1 / 3]), np.diag([2 / 3, 1 / 3]))
        np.testing.assert_allclose(out, np.diag([0.8, 0.2]), atol=1e-15)

    def test_random_codiagonal_agrees_with_classical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            basis = random_unitary(rng, n)
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            rho_a = basis @ np.diag(p) @ basis.conj().T
            rho_b = basis @ np.diag(q) @ basis.conj().T
            pooled = pool_commuting_density(rho_a, rho_b)
            expected_diag = pool_classical(ProbDist(p), ProbDist(q)).probs
            np.testing.assert_allclose(
                pooled, basis @ np.diag(expected_diag) @ basis.conj().T, atol=1e-12
            )

    def test_noncommuting_rejected(self):
        ket_plus = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(NoncommutingError):
            pool_commuting_density(np.diag([1.0, 0.0]), np.outer(ket_plus, ket_plus))

    def test_disjoint_supports(self):
        with pytest.raises(IncompatibleKnowledgeError):
            pool_commuting_density(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


# The multiply-and-renormalize bodies as they were before the three functions
# shared one renormalization; the property below holds the current ones to
# them bit for bit.
def reference_bayes_update(prior: ProbDist, model: LikelihoodModel, outcome: int) -> ProbDist:
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


def reference_sequential_update(prior: ProbDist, evidence) -> ProbDist:
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


def reference_pool_classical(p: ProbDist, q: ProbDist) -> ProbDist:
    """Combine two independently obtained distributions: multiply and renormalize."""
    if p.n != q.n:
        raise ShapeError(f"distribution sizes differ: {p.n} vs {q.n}")
    unnorm = p.probs * q.probs
    total = unnorm.sum()
    if total <= 0.0:
        raise IncompatibleKnowledgeError("distributions have disjoint supports")
    return ProbDist(unnorm / total)


def _unit_sum(rng, n: int) -> np.ndarray:
    """A random probability vector with zeros and tiny entries, so products can vanish or underflow."""
    raw = rng.uniform(0.0, 1.0, n) * rng.choice([0.0, 1e-300, 1e-160, 1.0], n, p=[0.3, 0.1, 0.1, 0.5])
    raw[rng.integers(n)] += rng.uniform(0.01, 1.0)  # never all zero
    return raw / raw.sum()


@st.composite
def evidence_cases(draw):
    """``(prior, evidence, other)`` on n <= 5 hypotheses; one draw in ten is a size mismatch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))

    def size():
        return n + 1 if draw(st.integers(0, 9)) == 0 else n

    evidence = []
    for _ in range(draw(st.integers(0, 4))):
        n_outcomes = draw(st.integers(1, 4))
        cond = np.column_stack([_unit_sum(rng, n_outcomes) for _ in range(size())])
        evidence.append((LikelihoodModel(cond), draw(st.integers(0, n_outcomes - 1))))
    return ProbDist(_unit_sum(rng, n)), evidence, ProbDist(_unit_sum(rng, size()))


def _result(update, *args):
    """The posterior's probabilities, or the class of the qpool error raised."""
    try:
        return update(*args).probs
    except QpoolError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(evidence_cases())
def test_updates_match_reference(case):
    prior, evidence, other = case
    calls = [
        (sequential_update, reference_sequential_update, (prior, evidence)),
        (pool_classical, reference_pool_classical, (prior, other)),
    ]
    calls += [(bayes_update, reference_bayes_update, (prior, *item)) for item in evidence]
    for update, reference, args in calls:
        got, want = _result(update, *args), _result(reference, *args)
        if isinstance(want, type):
            assert got is want, (update.__name__, got, want)
        else:
            assert_same_bytes(got, want)


# The matrix Bayes rule written out with scipy's square root, the reference
# for the route through the effect's validation eigenpairs.  Every drawn
# effect is valid, so the reference only symmetrizes it.
def reference_matrix_bayes_update(rho, effect):
    rho = ensure_density_matrix(rho, name="rho")[0]
    effect = ensure_hermitian(effect, name="effect")
    prob = float(np.trace(effect @ rho).real)
    root = sqrtm_psd(effect)
    post = root @ rho @ root / prob
    return (post + dagger(post)) / 2, prob


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_matrix_bayes_update_matches_reference(seed, n):
    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8) + 1e-3
    row = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8)
    row[rng.integers(n)] = rng.uniform(0.1, 1.0)  # a possible outcome
    rho, effect = np.diag(prior / prior.sum()), np.diag(row)
    post, prob = matrix_bayes_update(rho, effect)
    want_post, want_prob = reference_matrix_bayes_update(rho, effect)
    np.testing.assert_allclose(post, want_post, rtol=1e-14, atol=0.0)
    assert prob == want_prob
