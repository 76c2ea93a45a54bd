import itertools

import numpy as np
import pytest
from conftest import (
    ginibre,
    random_effects,
    random_history,
    random_kraus_povm,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpool.errors import ImpossibleOutcomeError, IncompleteMeasurementError, QpoolError, ShapeError
from qpool.linalg import is_psd, trace_distance
from qpool.measurement import (
    KrausPovm,
    MeasurementHistory,
    Povm,
    conditional_state,
    flatten_history,
    measurement_update,
    outcome_probability,
    validate_povm,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
Z_BASIS = np.eye(2)
X_BASIS = np.column_stack([KET_PLUS, np.array([1.0, -1.0]) / np.sqrt(2)])


def proj(vec):
    return np.outer(vec, np.conj(vec))


class TestKrausPovm:
    def test_from_effects_completeness(self):
        kp = KrausPovm.from_effects([np.diag([0.8, 0.4]), np.diag([0.2, 0.6])])
        total = sum(m.conj().T @ m for m in kp.ops)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMeasurementError):
            KrausPovm((np.diag([0.5, 0.5]),))

    def test_unitaries_fold_in(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        kp = KrausPovm.from_effects([proj(KET0), proj(KET1)], unitaries=[swap, swap])
        post, _ = measurement_update(np.eye(2) / 2, kp, 0)
        np.testing.assert_allclose(post, proj(KET1), atol=1e-12)


class TestMeasurementUpdate:
    def test_projective_on_mixed(self):
        kp = KrausPovm.projective(Z_BASIS)
        post, prob = measurement_update(np.eye(2) / 2, kp, 0)
        np.testing.assert_allclose(post, proj(KET0), atol=1e-12)
        assert prob == pytest.approx(0.5)

    def test_trivial_measurement(self):
        rho = proj(KET_PLUS)
        post, prob = measurement_update(rho, KrausPovm((np.eye(2),)), 0)
        np.testing.assert_allclose(post, rho, atol=1e-12)
        assert prob == pytest.approx(1.0)

    def test_projective_on_plus(self):
        # |<0|+>|^2 = 1/2 by hand.
        post, prob = measurement_update(proj(KET_PLUS), KrausPovm.projective(Z_BASIS), 0)
        np.testing.assert_allclose(post, proj(KET0), atol=1e-12)
        assert prob == pytest.approx(0.5)

    def test_zero_probability(self):
        with pytest.raises(ImpossibleOutcomeError):
            measurement_update(proj(KET0), KrausPovm.projective(Z_BASIS), 1)


class TestFlattenHistory:
    def test_trivial_bob_reproduces_alice(self):
        alice = random_kraus_povm(np.random.default_rng(0), 2, 3)
        history = MeasurementHistory(
            (("alice", alice), ("bob", KrausPovm((np.eye(2),))))
        )
        flat = flatten_history(history)
        assert (flat.i_max, flat.j_max, flat.e_max) == (3, 1, 1)
        for i in range(3):
            np.testing.assert_allclose(flat.ops[i, 0, 0], alice.ops[i], atol=1e-12)

    def test_diagonal_steps_commute(self):
        pa = KrausPovm.from_effects([np.diag([0.8, 0.4]), np.diag([0.2, 0.6])])
        pb = KrausPovm.from_effects([np.diag([0.5, 0.9]), np.diag([0.5, 0.1])])
        ab = flatten_history(MeasurementHistory((("alice", pa), ("bob", pb))))
        ba = flatten_history(MeasurementHistory((("bob", pb), ("alice", pa))))
        for i, j in itertools.product(range(2), range(2)):
            np.testing.assert_allclose(ab.ops[i, j, 0], ba.ops[i, j, 0], atol=1e-12)

    def test_index_counting(self):
        rng = np.random.default_rng(1)
        history = MeasurementHistory(
            (("alice", random_kraus_povm(rng, 2, 2)), ("bob", random_kraus_povm(rng, 2, 3)))
        )
        flat = flatten_history(history)
        assert (flat.i_max, flat.j_max, flat.e_max) == (2, 3, 1)
        assert flat.ops.shape[:3] == (2, 3, 1)

    def test_mixed_radix_packing_earliest_most_significant(self):
        # Two Alice steps with 2 then 3 outcomes: i = 3 * k1 + k2,
        # operators multiply newest-on-the-left.
        rng = np.random.default_rng(2)
        p1 = random_kraus_povm(rng, 2, 2)
        p2 = random_kraus_povm(rng, 2, 3)
        flat = flatten_history(MeasurementHistory((("alice", p1), ("alice", p2))))
        assert flat.i_max == 6
        for k1, k2 in itertools.product(range(2), range(3)):
            np.testing.assert_allclose(
                flat.ops[3 * k1 + k2, 0, 0], p2.ops[k2] @ p1.ops[k1], atol=1e-12
            )

    def test_completeness(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            for hermitian in (True, False):
                flat = flatten_history(random_history(rng, dim, 3, hermitian=hermitian))
                assert flat.completeness_residual() <= 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            MeasurementHistory(
                (("alice", random_kraus_povm(rng, 2, 2)), ("bob", random_kraus_povm(rng, 3, 2)))
            )


def z_then_x_history():
    return MeasurementHistory(
        (("alice", KrausPovm.projective(Z_BASIS)), ("bob", KrausPovm.projective(X_BASIS)))
    )


class TestConditionalState:
    def test_alice_projective_with_trivial_bob(self):
        history = MeasurementHistory(
            (("alice", KrausPovm.projective(Z_BASIS)), ("bob", KrausPovm((np.eye(2),))))
        )
        state = conditional_state(flatten_history(history), {"i": 0})
        np.testing.assert_allclose(state, proj(KET0), atol=1e-12)

    def test_alice_marginal_averages_bob(self):
        # Alice sees Z outcome 0; averaging Bob's X branches gives I/2.
        state = conditional_state(flatten_history(z_then_x_history()), {"i": 0})
        np.testing.assert_allclose(state, np.eye(2) / 2, atol=1e-12)

    def test_both_indices_known(self):
        state = conditional_state(flatten_history(z_then_x_history()), {"i": 0, "j": 0})
        np.testing.assert_allclose(state, proj(KET_PLUS), atol=1e-12)

    def test_no_information_recovers_maximally_mixed(self):
        # Holds for the dispensed-unitaries (Hermitian sqrt-effect) form,
        # where every step preserves the maximally mixed state.
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            flat = flatten_history(random_history(rng, dim, 3))
            np.testing.assert_allclose(conditional_state(flat, {}), np.eye(dim) / dim, atol=1e-10)

    def test_total_probability_is_one(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4):
            for hermitian in (True, False):
                flat = flatten_history(random_history(rng, dim, 3, hermitian=hermitian))
                assert outcome_probability(flat, {}) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_assignment(self):
        # Two successive Z measurements: outcome pair (0, 1) is impossible.
        history = MeasurementHistory(
            (("alice", KrausPovm.projective(Z_BASIS)), ("alice", KrausPovm.projective(Z_BASIS)))
        )
        with pytest.raises(ImpossibleOutcomeError):
            conditional_state(flatten_history(history), {"i": 1})

    def test_marginal_consistency(self):
        # Summing the joint-record states over Bob's index with their joint
        # probabilities must reproduce Alice's marginal state.
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            flat = flatten_history(random_history(rng, dim, 3, hermitian=False))
            for i in range(flat.i_max):
                p_i = outcome_probability(flat, {"i": i})
                if p_i <= 1e-12:
                    continue
                accum = np.zeros((dim, dim), dtype=complex)
                for j in range(flat.j_max):
                    p_ij = outcome_probability(flat, {"i": i, "j": j})
                    if p_ij > 0:
                        accum += p_ij * conditional_state(flat, {"i": i, "j": j})
                np.testing.assert_allclose(
                    accum / p_i, conditional_state(flat, {"i": i}), atol=1e-10
                )

    def test_shared_terms_bound_both_marginals(self):
        # Each joint-record term appears in both observers' sums, so removing
        # it with its weight leaves a PSD remainder on either side.
        rng = np.random.default_rng(8)
        for dim in (2, 3):
            flat = flatten_history(random_history(rng, dim, 2, owners=("alice", "bob")))
            rho0 = np.eye(dim) / dim
            for i, j in itertools.product(range(flat.i_max), range(flat.j_max)):
                op = flat.ops[i, j, 0]
                term = op @ rho0 @ op.conj().T
                weight = float(np.trace(term).real)
                if weight <= 1e-12:
                    continue
                sigma = term / weight
                for known, total_key in (({"i": i}, {"i": i}), ({"j": j}, {"j": j})):
                    marginal = conditional_state(flat, known)
                    share = weight / outcome_probability(flat, total_key)
                    assert is_psd(marginal - share * sigma, tol=1e-10)

    def test_eve_step_changes_alice_state(self):
        # Z measurement alone pins Alice to |0><0|; an unseen X measurement
        # afterwards scrambles it even though Alice's record is unchanged.
        without = MeasurementHistory((("alice", KrausPovm.projective(Z_BASIS)),))
        with_eve = MeasurementHistory(
            (("alice", KrausPovm.projective(Z_BASIS)), ("eve", KrausPovm.projective(X_BASIS)))
        )
        before = conditional_state(flatten_history(without), {"i": 0})
        after = conditional_state(flatten_history(with_eve), {"i": 0})
        assert trace_distance(before, after) > 0.01

    def test_general_initial_state_variant(self):
        history = MeasurementHistory((("alice", KrausPovm.projective(Z_BASIS)),))
        flat = flatten_history(history)
        rho0 = np.diag([0.9, 0.1])
        state = conditional_state(flat, {"i": 0}, initial_state=rho0)
        np.testing.assert_allclose(state, proj(KET0), atol=1e-12)
        assert outcome_probability(flat, {"i": 0}, initial_state=rho0) == pytest.approx(0.9)


class TestValidatePovm:
    def test_trivial_passes(self):
        report = validate_povm([np.eye(2)])
        assert report.passed and report.completeness_residual <= 1e-12

    def test_complete_diagonal_passes(self):
        report = validate_povm([np.diag([0.8, 0.4]), np.diag([0.2, 0.6])])
        assert report.passed

    def test_completeness_failure_is_reported_not_raised(self):
        report = validate_povm([np.diag([0.8, 0.4]), np.diag([0.1, 0.6])])
        assert not report.passed
        assert report.completeness_residual == pytest.approx(0.1, abs=1e-12)
        assert any("completeness" in f for f in report.failures)

    def test_kraus_and_povm_objects_accepted(self):
        assert validate_povm(KrausPovm.projective(Z_BASIS)).passed
        assert validate_povm(Povm((proj(KET0), proj(KET1)))).passed

    def test_negative_effect_flagged(self):
        report = validate_povm([np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])])
        assert not report.passed
        assert any("negative" in f for f in report.failures)


@st.composite
def near_complete_family(draw):
    """A random complete measurement with a small random error added.

    Returns ``(kraus, matrices)``: Kraus operators of a general complete
    family, or the effects of a random or a projective (rank-deficient) one.
    The error sizes straddle the tolerances, so all rules are exercised.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["kraus", "effects", "projective"]))
    scale = draw(st.sampled_from([0.0, 2e-10, 6e-10, 1.2e-9, 3e-9, 1e-6]))
    hermitian_error = draw(st.booleans())
    if kind == "kraus":
        mats = list(random_kraus_povm(rng, dim, n, hermitian=False).ops)
    elif kind == "effects":
        mats = random_effects(rng, dim, n)
    else:
        frame = random_unitary(rng, dim)
        mats = [np.outer(frame[:, k], frame[:, k].conj()) for k in range(dim)]
    out = []
    for m in mats:
        err = ginibre(rng, dim, dim)
        if hermitian_error:
            err = err + err.conj().T
        out.append(m + scale * err)
    return kind == "kraus", out


def _builds(cls, mats) -> bool:
    try:
        cls(tuple(mats))
    except QpoolError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(near_complete_family())
def test_validate_povm_agrees_with_constructors(family):
    # validate_povm(x).passed holds exactly when the constructor accepts x.
    # An invalid KrausPovm cannot be built, so Kraus families are checked
    # through their effects M^dag M (the rules of Povm), and every family
    # KrausPovm accepts must validate as a KrausPovm.
    kraus, mats = family
    if kraus:
        if _builds(KrausPovm, mats):
            assert validate_povm(KrausPovm(tuple(mats))).passed
        mats = [m.conj().T @ m for m in mats]
    assert validate_povm(mats).passed == _builds(Povm, mats)
