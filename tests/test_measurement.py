import itertools
import json
from typing import Mapping

import numpy as np
import pytest
from conftest import (
    assert_same_bytes,
    ginibre,
    is_psd,
    projective,
    random_effects,
    random_history,
    random_kraus_povm,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpool.cli import main, run_scenario
from qpool.config import matrix_to_literal
from qpool.errors import (
    HermiticityError,
    ImpossibleOutcomeError,
    IncompleteMeasurementError,
    InvalidEffectError,
    NonFiniteError,
    PositivityError,
    QpoolError,
    ShapeError,
)
from qpool.linalg import TOL_PSD, dagger, ensure_density_matrix, hermitian_eig, psd_root, trace_distance
from qpool.measurement import (
    OWNERS,
    FlatPovm,
    KrausPovm,
    MeasurementHistory,
    condition,
    conditional_state,
    flatten_history,
    outcome_probability,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
Z_BASIS = np.eye(2)
X_BASIS = np.column_stack([KET_PLUS, np.array([1.0, -1.0]) / np.sqrt(2)])


def proj(vec):
    return np.outer(vec, np.conj(vec))


def update(rho, op: KrausPovm, outcome: int):
    """``(M rho M^dag / p, p)`` for one outcome: ``condition`` on the one-step history ``op``."""
    return condition(MeasurementHistory((("alice", op),)), {"i": outcome}, initial_state=rho)


class TestKrausPovm:
    def test_from_effects_completeness(self):
        kp = KrausPovm.from_effects([np.diag([0.8, 0.4]), np.diag([0.2, 0.6])])
        total = sum(m.conj().T @ m for m in kp.ops)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMeasurementError):
            KrausPovm((np.diag([0.5, 0.5]),))

    def test_operators_are_one_read_only_array(self):
        effects = [np.diag([0.8, 0.4]), np.diag([0.2, 0.6])]
        for povm in (KrausPovm.from_effects(effects), KrausPovm(tuple(np.sqrt(e) for e in effects))):
            assert isinstance(povm.ops, np.ndarray) and povm.ops.shape == (2, 2, 2)
            assert not povm.ops.flags.writeable

    @pytest.mark.parametrize(
        "ops, error, message",
        [
            (
                (np.eye(2) / np.sqrt(2), np.array([[1.0, np.nan], [0.0, 1.0]])),
                NonFiniteError,
                "operator 1 contains non-finite entries",
            ),
            ((np.diag([1.0, 1j * np.inf]), np.eye(2)), NonFiniteError, "operator 0 contains non-finite entries"),
            ((np.eye(2) / np.sqrt(2), np.ones((2, 3))), ShapeError, "operator 1 must be square, got shape (2, 3)"),
            ((np.ones(2), np.eye(2)), ShapeError, "operator 0 must be 2-D, got shape (2,)"),
            ((np.zeros((1, 2, 2)),), ShapeError, "operator 0 must be 2-D, got shape (1, 2, 2)"),
            ((np.ones((2, 3)) * np.nan, np.eye(2)), NonFiniteError, "operator 0 contains non-finite entries"),
            ((np.eye(2), np.eye(3)), ShapeError, "all operators must share one dimension"),
            ((), ShapeError, "a measurement needs at least one of its operators"),
            ((np.diag([0.5, 0.5]),), IncompleteMeasurementError, "operators: completeness residual 7.500e-01"),
        ],
        ids=[
            "nan",
            "inf",
            "non_square",
            "one_dimensional",
            "three_dimensional",
            "nan_and_non_square",
            "two_sizes",
            "empty",
            "incomplete",
        ],
    )
    def test_a_rejected_stack_names_the_operator_at_fault(self, ops, error, message):
        # The same classes and words as checking each operator in turn.
        with pytest.raises(error) as info:
            KrausPovm(ops)
        assert type(info.value) is error and str(info.value) == message

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.booleans())
    def test_operators_are_the_stacked_inputs_bit_for_bit(self, seed, dim, n, as_lists):
        ops = list(random_kraus_povm(np.random.default_rng(seed), dim, n, hermitian=False).ops)
        povm = KrausPovm(tuple(m.tolist() for m in ops) if as_lists else tuple(ops))
        assert_same_bytes(povm.ops, np.stack(ops))
        assert not povm.ops.flags.writeable
        assert not np.shares_memory(povm.ops, ops[0])

    def test_signed_zeros_stay_in_the_stack(self):
        ops = (np.array([[1.0, -0.0], [-0.0, 0.0]]), np.array([[-0.0, 0.0], [0.0, -1.0]]))
        assert_same_bytes(KrausPovm(ops).ops, np.stack(ops).astype(complex))

    def test_unitaries_fold_in(self):
        # Operators U sqrt(E) are a Kraus family like any other; a projector is its own root.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        kp = KrausPovm((swap @ proj(KET0), swap @ proj(KET1)))
        post, _ = update(np.eye(2) / 2, kp, 0)
        np.testing.assert_allclose(post, proj(KET1), atol=1e-12)


class TestMeasurementUpdate:
    def test_projective_on_mixed(self):
        kp = projective(Z_BASIS)
        post, prob = update(np.eye(2) / 2, kp, 0)
        np.testing.assert_allclose(post, proj(KET0), atol=1e-12)
        assert prob == pytest.approx(0.5)

    def test_trivial_measurement(self):
        rho = proj(KET_PLUS)
        post, prob = update(rho, KrausPovm((np.eye(2),)), 0)
        np.testing.assert_allclose(post, rho, atol=1e-12)
        assert prob == pytest.approx(1.0)

    def test_projective_on_plus(self):
        # |<0|+>|^2 = 1/2 by hand.
        post, prob = update(proj(KET_PLUS), projective(Z_BASIS), 0)
        np.testing.assert_allclose(post, proj(KET0), atol=1e-12)
        assert prob == pytest.approx(0.5)

    def test_zero_probability(self):
        with pytest.raises(ImpossibleOutcomeError):
            update(proj(KET0), projective(Z_BASIS), 1)

    @pytest.mark.parametrize("outcome", [-1, 2])
    def test_outcome_out_of_range_is_named(self, outcome):
        with pytest.raises(ImpossibleOutcomeError, match=f"index i={outcome} out of range 0..1"):
            update(np.eye(2) / 2, projective(Z_BASIS), outcome)

    def test_matches_the_one_step_history(self):
        rng = np.random.default_rng(21)
        rho = ginibre(rng, 3, 3)
        rho = rho @ dagger(rho) / np.trace(rho @ dagger(rho)).real
        kp = random_kraus_povm(rng, 3, 4)
        history = MeasurementHistory((("alice", kp),))
        for outcome in range(4):
            post, prob = update(rho, kp, outcome)
            m = kp.ops[outcome]
            np.testing.assert_allclose(post, m @ rho @ dagger(m) / prob, rtol=0, atol=1e-13)
            assert prob == pytest.approx(float(np.trace(dagger(m) @ m @ rho).real), rel=1e-13)
            assert_same_bytes(post, conditional_state(history, {"i": outcome}, initial_state=rho))
            assert prob == outcome_probability(history, {"i": outcome}, rho)


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

    def test_unknown_owner(self):
        with pytest.raises(ShapeError, match="unknown owner 'carol'"):
            MeasurementHistory((("carol", KrausPovm((np.eye(2),))),))

    def test_fixed_twelve_step_qubit_history_matches_reference(self):
        rng = np.random.default_rng(9)
        history = MeasurementHistory(
            tuple(
                (OWNERS[k % 3], random_kraus_povm(rng, 2, 2, hermitian=k % 2 == 0))
                for k in range(12)
            )
        )
        flat = flatten_history(history)
        assert (flat.i_max, flat.j_max, flat.e_max) == (16, 16, 16)
        assert_same_bytes(flat.ops, reference_flatten(history))

    def test_exact_zeros_match_reference(self):
        # Real projectors with entries of both signs leave exact zeros that
        # the products may carry as -0.0.
        history = MeasurementHistory(
            (
                ("alice", projective(Z_BASIS)),
                ("bob", projective(X_BASIS)),
                ("eve", projective(-X_BASIS)),
                ("alice", projective(Z_BASIS)),
            )
        )
        assert_same_bytes(flatten_history(history).ops, reference_flatten(history))


def reference_flatten(history: MeasurementHistory) -> np.ndarray:
    """The flattened operators by definition: one product per joint outcome choice."""
    dim = history.dim
    counts = [p.n_outcomes for _, p in history.steps]
    owners = [owner for owner, _ in history.steps]
    sizes = {o: 1 for o in OWNERS}
    for owner, count in zip(owners, counts):
        sizes[owner] *= count
    ops = np.zeros((sizes["alice"], sizes["bob"], sizes["eve"], dim, dim), dtype=complex)
    for choice in itertools.product(*(range(c) for c in counts)):
        product = np.eye(dim, dtype=complex)
        for (_, povm), outcome in zip(history.steps, choice):
            product = povm.ops[outcome] @ product
        composite = {o: 0 for o in OWNERS}
        for owner, count, outcome in zip(owners, counts, choice):
            composite[owner] = composite[owner] * count + outcome
        ops[composite["alice"], composite["bob"], composite["eve"]] += product
    return ops


@st.composite
def histories(draw):
    """Random histories: dims 1-4, 1-6 steps, 1-3 outcomes, owners may repeat."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    owners = OWNERS if draw(st.booleans()) else OWNERS[:2]
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(owners), st.integers(1, 3), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    return MeasurementHistory(
        tuple(
            (owner, random_kraus_povm(rng, dim, n, hermitian=hermitian))
            for owner, n, hermitian in steps
        )
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(histories())
def test_flatten_history_matches_reference(history):
    assert_same_bytes(flatten_history(history).ops, reference_flatten(history))


def z_then_x_history():
    return MeasurementHistory(
        (("alice", projective(Z_BASIS)), ("bob", projective(X_BASIS)))
    )


class TestConditionalState:
    def test_alice_projective_with_trivial_bob(self):
        history = MeasurementHistory(
            (("alice", projective(Z_BASIS)), ("bob", KrausPovm((np.eye(2),))))
        )
        state = conditional_state(history, {"i": 0})
        np.testing.assert_allclose(state, proj(KET0), atol=1e-12)

    def test_alice_marginal_averages_bob(self):
        # Alice sees Z outcome 0; averaging Bob's X branches gives I/2.
        state = conditional_state(z_then_x_history(), {"i": 0})
        np.testing.assert_allclose(state, np.eye(2) / 2, atol=1e-12)

    def test_both_indices_known(self):
        state = conditional_state(z_then_x_history(), {"i": 0, "j": 0})
        np.testing.assert_allclose(state, proj(KET_PLUS), atol=1e-12)

    def test_no_information_recovers_maximally_mixed(self):
        # Holds for the dispensed-unitaries (Hermitian sqrt-effect) form,
        # where every step preserves the maximally mixed state.
        rng = np.random.default_rng(5)
        for dim in (2, 3, 4):
            history = random_history(rng, dim, 3)
            np.testing.assert_allclose(conditional_state(history, {}), np.eye(dim) / dim, atol=1e-10)

    def test_total_probability_is_one(self):
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4):
            for hermitian in (True, False):
                history = random_history(rng, dim, 3, hermitian=hermitian)
                assert outcome_probability(history, {}) == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_assignment(self):
        # Two successive Z measurements: outcome pair (0, 1) is impossible.
        history = MeasurementHistory(
            (("alice", projective(Z_BASIS)), ("alice", projective(Z_BASIS)))
        )
        with pytest.raises(ImpossibleOutcomeError):
            conditional_state(history, {"i": 1})

    def test_marginal_consistency(self):
        # Summing the joint-record states over Bob's index with their joint
        # probabilities must reproduce Alice's marginal state.
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4):
            history = random_history(rng, dim, 3, hermitian=False)
            for i in range(history.i_max):
                p_i = outcome_probability(history, {"i": i})
                if p_i <= 1e-12:
                    continue
                accum = np.zeros((dim, dim), dtype=complex)
                for j in range(history.j_max):
                    p_ij = outcome_probability(history, {"i": i, "j": j})
                    if p_ij > 0:
                        accum += p_ij * conditional_state(history, {"i": i, "j": j})
                np.testing.assert_allclose(
                    accum / p_i, conditional_state(history, {"i": i}), atol=1e-10
                )

    def test_shared_terms_bound_both_marginals(self):
        # Each joint-record term appears in both observers' sums, so removing
        # it with its weight leaves a PSD remainder on either side.
        rng = np.random.default_rng(8)
        for dim in (2, 3):
            history = random_history(rng, dim, 2, owners=("alice", "bob"))
            flat = flatten_history(history)
            rho0 = np.eye(dim) / dim
            for i, j in itertools.product(range(flat.i_max), range(flat.j_max)):
                op = flat.ops[i, j, 0]
                term = op @ rho0 @ op.conj().T
                weight = float(np.trace(term).real)
                if weight <= 1e-12:
                    continue
                sigma = term / weight
                for known, total_key in (({"i": i}, {"i": i}), ({"j": j}, {"j": j})):
                    marginal = conditional_state(history, known)
                    share = weight / outcome_probability(history, total_key)
                    assert is_psd(marginal - share * sigma, tol=1e-10)

    def test_eve_step_changes_alice_state(self):
        # Z measurement alone pins Alice to |0><0|; an unseen X measurement
        # afterwards scrambles it even though Alice's record is unchanged.
        without = MeasurementHistory((("alice", projective(Z_BASIS)),))
        with_eve = MeasurementHistory(
            (("alice", projective(Z_BASIS)), ("eve", projective(X_BASIS)))
        )
        before = conditional_state(without, {"i": 0})
        after = conditional_state(with_eve, {"i": 0})
        assert trace_distance(before, after) > 0.01

    def test_unknown_index_name(self):
        with pytest.raises(ShapeError, match="unknown index name 'k'"):
            conditional_state(z_then_x_history(), {"k": 0})

    def test_general_initial_state_variant(self):
        history = MeasurementHistory((("alice", projective(Z_BASIS)),))
        rho0 = np.diag([0.9, 0.1])
        state = conditional_state(history, {"i": 0}, initial_state=rho0)
        np.testing.assert_allclose(state, proj(KET0), atol=1e-12)
        assert outcome_probability(history, {"i": 0}, initial_state=rho0) == pytest.approx(0.9)

    def test_complex_initial_state_probability(self):
        # rho0 = |v><v| with v = (1, i)/sqrt(2) is the first basis vector, so
        # outcome 0 is certain; reading rho0 transposed would give 0.
        basis = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2)
        history = MeasurementHistory((("alice", projective(basis)),))
        rho0 = proj(basis[:, 0])
        assert outcome_probability(history, {"i": 0}, initial_state=rho0) == pytest.approx(1.0)
        assert outcome_probability(history, {"i": 1}, initial_state=rho0) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(conditional_state(history, {"i": 0}, initial_state=rho0), rho0, atol=1e-12)

    def test_initial_state_of_another_dimension(self):
        history = MeasurementHistory((("alice", projective(Z_BASIS)),))
        rho0 = np.eye(3) / 3
        match = r"initial_state dim 3 != history dim 2"
        with pytest.raises(ShapeError, match=match):
            conditional_state(history, {"i": 0}, initial_state=rho0)
        with pytest.raises(ShapeError, match=match):
            outcome_probability(history, {"i": 0}, initial_state=rho0)
        with pytest.raises(ShapeError, match=match):
            update(rho0, projective(Z_BASIS), 0)


_INDEX_AXES = {"i": 0, "j": 1, "e": 2}


def _select_known(flat: FlatPovm, known: Mapping[str, int]) -> np.ndarray:
    ops = flat.ops
    for key in known:
        if key not in _INDEX_AXES:
            raise ShapeError(f"unknown index name {key!r} (expected 'i', 'j', 'e')")
    index = [slice(None)] * 3
    for key, axis in _INDEX_AXES.items():
        if key in known and known[key] is not None:
            val = int(known[key])
            if not 0 <= val < ops.shape[axis]:
                raise ImpossibleOutcomeError(f"index {key}={val} out of range 0..{ops.shape[axis] - 1}")
            index[axis] = slice(val, val + 1)
    return ops[tuple(index)]


def _initial_state(flat: FlatPovm, initial_state) -> np.ndarray:
    if initial_state is None:
        return np.eye(flat.dim, dtype=complex) / flat.dim
    return ensure_density_matrix(initial_state, name="initial_state")[0]


# The flat-family sums over joint outcomes, kept as the reference for the
# propagation.  The probability's einsum reads rho0 transposed, so it is
# compared only from the maximally mixed rho0.
def reference_outcome_probability(flat: FlatPovm, known: Mapping[str, int], initial_state=None) -> float:
    """Total probability of a partial assignment of the composite indices."""
    rho0 = _initial_state(flat, initial_state)
    sel = _select_known(flat, known)
    return float(np.einsum("ijeab,bc,ijeac->", sel.conj(), rho0, sel).real)


def reference_conditional_state(
    flat: FlatPovm,
    known: Mapping[str, int] | None = None,
    *,
    initial_state=None,
) -> np.ndarray:
    """State of knowledge of an observer who knows the indices in ``known``."""
    known = dict(known or {})
    rho0 = _initial_state(flat, initial_state)
    sel = _select_known(flat, known)
    unnorm = np.einsum("ijeab,bc,ijedc->ad", sel, rho0, sel.conj())
    total = float(np.trace(unnorm).real)
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"assignment {known} has zero probability")
    out = unnorm / total
    return (out + dagger(out)) / 2


def _outcome(call):
    """``call()``'s value, or the type and message of the qpool error it raised."""
    try:
        return call()
    except QpoolError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(histories(), st.data())
def test_propagation_matches_flat_family(history, data):
    flat = flatten_history(history)
    assert (history.i_max, history.j_max, history.e_max) == (flat.i_max, flat.j_max, flat.e_max)
    assert history.completeness_residual() == pytest.approx(flat.completeness_residual(), abs=1e-13)
    sizes = {"i": flat.i_max, "j": flat.j_max, "e": flat.e_max}
    values = {key: data.draw(st.integers(0, size - 1), label=key) for key, size in sizes.items()}
    for n in range(4):
        for keys in itertools.combinations("ije", n):
            known = {key: values[key] for key in keys}
            want_p = reference_outcome_probability(flat, known)
            assert outcome_probability(history, known) == pytest.approx(want_p, rel=1e-12, abs=0.0)
            want = _outcome(lambda: reference_conditional_state(flat, known))
            got = _outcome(lambda: conditional_state(history, known))
            if isinstance(want, tuple):
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    for key, size in sizes.items():
        out_of_range = {key: size}
        assert _outcome(lambda: conditional_state(history, out_of_range)) == _outcome(
            lambda: reference_conditional_state(flat, out_of_range)
        )


class TestValidatePovm:
    """The rules for a family of effects, as ``KrausPovm.from_effects`` applies them."""

    def test_trivial_passes(self):
        ops = KrausPovm.from_effects([np.eye(2)]).ops
        assert np.abs(sum(dagger(m) @ m for m in ops) - np.eye(2)).max() <= 1e-12

    def test_complete_diagonal_passes(self):
        KrausPovm.from_effects([np.diag([0.8, 0.4]), np.diag([0.2, 0.6])])

    def test_negative_effect_flagged(self):
        with pytest.raises(PositivityError, match="effect 0 has negative eigenvalue"):
            KrausPovm.from_effects([np.diag([-0.2, 0.0]), np.diag([1.2, 1.0])])

    @pytest.mark.parametrize(
        "effects, error, message",
        [
            ([np.diag([0.8, 0.4]), np.diag([0.1, 0.6])], IncompleteMeasurementError, "effects: completeness residual 1.000e-01"),
            ([np.array([[0.5, 0.1], [0.0, 0.5]]), np.eye(2) / 2], HermiticityError, "effect 0 is not Hermitian"),
            ([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])], InvalidEffectError, "effect 0 has eigenvalue 1.5 > 1"),
        ],
        ids=["incomplete", "non_hermitian", "above_identity"],
    )
    def test_a_broken_rule_raises_its_error(self, effects, error, message):
        with pytest.raises(error, match=message):
            KrausPovm.from_effects(effects)

    def test_empty_family_raises_the_constructor_error(self):
        with pytest.raises(ShapeError, match="a measurement needs at least one of its effects"):
            KrausPovm.from_effects([])


def _verdict(build, family):
    """None if ``build(family)`` succeeds, else the class of the qpool error it raised."""
    try:
        build(family)
    except QpoolError as exc:
        return type(exc)
    return None


def edge_effect_family(seed: int) -> list:
    """``{E, I - E}`` in a random basis, with lambda_min(E) within 1e-7 relative of -TOL_PSD.

    So close to the PSD edge, two LAPACK routines can decide the same
    effect differently.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    spectrum = rng.uniform(0.1, 0.9, dim)
    spectrum[0] = -TOL_PSD * (1.0 + rng.uniform(-1e-7, 1e-7))
    frame = random_unitary(rng, dim)
    effect = frame @ np.diag(spectrum) @ dagger(frame)
    return [effect, np.eye(dim) - effect]


def _runs(effects) -> bool:
    """Whether a one-step ``povm`` history with these effects runs."""
    step = {"owner": "alice", "povm": [matrix_to_literal(e) for e in effects]}
    try:
        run_scenario({"kind": "history", "payload": {"steps": [step], "known": {"i": 0}}})
    except QpoolError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_edge_effects_get_one_verdict_everywhere(seed):
    # E sits at the PSD edge and I - E at 1 + TOL_PSD: only the effect rule can fail.
    effects = edge_effect_family(seed)
    verdict = _verdict(KrausPovm.from_effects, effects)
    assert verdict in (None, PositivityError, InvalidEffectError)
    assert (verdict is None) == _runs(effects)


# Two effects each with an eigenvalue just inside -TOL_PSD: clipping both roots
# leaves their sum 1.8e-9 past the identity, more than TOL_COMPLETENESS.
CLIPPED_FAMILY = [np.diag([-0.9e-9, 0.2]), np.diag([-0.9e-9, 0.3]), np.diag([0.5 + 1.8e-9, 0.25]), np.diag([0.5, 0.25])]


def test_from_effects_decides_completeness_on_the_effects():
    ops = KrausPovm.from_effects(CLIPPED_FAMILY).ops
    for op, e in zip(ops, CLIPPED_FAMILY):
        assert_same_bytes(op, psd_root(*hermitian_eig(e)))


def test_clipped_root_history_is_judged_once_per_step(tmp_path):
    # The step's effects pass the completeness rule; the flat family's 1.8e-9 is reported, not judged again.
    steps = [{"owner": "alice", "povm": [matrix_to_literal(e) for e in CLIPPED_FAMILY]}]
    path = tmp_path / "clipped.json"
    path.write_text(json.dumps({"kind": "history", "payload": {"steps": steps, "known": {"i": 2}}}))
    out_file = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out_file)]) == 0
    outputs = json.loads(out_file.read_text())["outputs"]
    assert outputs["completeness_residual"] == pytest.approx(1.8e-9, rel=1e-6)
    assert outputs["probability"] == pytest.approx((0.5 + 1.8e-9 + 0.25) / 2, rel=0.0, abs=1e-15)


@st.composite
def clipped_families(draw):
    """2-5 commuting effects in a random frame, several with eigenvalues at -TOL_PSD (1 +- 1e-7).

    Each direction's eigenvalues add up to 1: the last effect takes up the
    negative ones, so it sits at or just past 1 + TOL_PSD when they add up.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    spectra = rng.dirichlet(np.ones(n), size=dim).T  # spectra[k] is effect k's eigenvalues
    for k in range(n - 1):
        edge = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        spectra[k, edge] = -TOL_PSD * (1.0 + rng.uniform(-1e-7, 1e-7, dim)[edge])
    spectra[-1] = 1.0 - spectra[:-1].sum(axis=0)
    frame = random_unitary(rng, dim)
    return [frame @ np.diag(v) @ dagger(frame) for v in spectra]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clipped_families())
def test_effects_at_the_psd_edge_get_one_completeness_verdict(effects):
    # The effects sum to I, so only the effect rule may fail: the clipped roots are not judged.
    assert _verdict(KrausPovm.from_effects, effects) in (None, PositivityError, InvalidEffectError)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_kraus_operators_are_the_square_roots_of_the_effects(seed, dim, n):
    rng = np.random.default_rng(seed)
    effects = [e + 1e-10 * ginibre(rng, dim, dim) for e in random_effects(rng, dim, n)]
    ops = KrausPovm.from_effects(effects).ops
    for op, e in zip(ops, effects):
        assert_same_bytes(op, psd_root(*hermitian_eig(e)))


def test_condition_gives_the_state_and_its_probability():
    history = random_history(np.random.default_rng(4), 3, 3)
    for known in ({}, {"i": 1}, {"i": 0, "j": 1}):
        state, probability = condition(history, known)
        assert_same_bytes(state, conditional_state(history, known))
        assert probability == outcome_probability(history, known)
