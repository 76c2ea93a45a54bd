import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_bytes, is_psd, random_density, random_hermitian, random_unitary, residual_outside, sqrtm_psd
from hypothesis import given, settings
from hypothesis import strategies as st

import qpool
from qpool import linalg
from qpool.errors import (
    HermiticityError,
    IncompleteMeasurementError,
    NonFiniteError,
    NotNormalizedError,
    PositivityError,
    ShapeError,
)
from qpool.linalg import (
    TOL_PSD,
    State,
    Subspace,
    ensure_density_matrix,
    ensure_effect,
    ensure_hermitian,
    ensure_states,
    hermitian_eig,
    psd_ok,
    psd_root,
    require_complete,
    subspace_intersection,
    support,
    trace_distance,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def proj(vec):
    return np.outer(vec, np.conj(vec))


class TestHermitianEig:
    def test_identity(self):
        vals, vecs = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-12)

    def test_already_diagonal(self):
        vals, vecs = hermitian_eig(np.diag([0.7, 0.3]))
        np.testing.assert_allclose(vals, [0.7, 0.3])
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_symmetric_half_matrix(self):
        # Characteristic polynomial of [[.5,.5],[.5,.5]] is x^2 - x: roots 1, 0.
        vals, vecs = hermitian_eig([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-12)
        top = vecs[:, 0] / vecs[0, 0]
        np.testing.assert_allclose(top, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_random_reconstruction_and_unitarity(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            h = random_hermitian(rng, dim)
            vals, vecs = hermitian_eig(h)
            assert np.all(np.diff(vals) <= 1e-12)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_eig(np.zeros((2, 3)))


class TestIsPsd:
    """The PSD rule, on a spectrum and through the validators that apply it."""

    def test_half_identity(self):
        _, vals, _ = ensure_density_matrix(np.eye(2) / 2)
        assert psd_ok(float(vals[-1]), float(vals[0]), TOL_PSD)

    def test_negative_eigenvalue(self):
        assert not psd_ok(-1e-3, 1.0, 1e-9)
        with pytest.raises(PositivityError):
            ensure_effect(np.diag([1.0, -1e-3]))

    def test_rank_one_symmetric(self):
        _, vals, _ = ensure_density_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert psd_ok(float(vals[-1]), float(vals[0]), TOL_PSD)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            ensure_effect([[0.0, 1.0], [0.0, 0.0]])


def root(mat) -> np.ndarray:
    """The library's square root of a validated matrix: ``psd_root`` of its eigenpairs."""
    return psd_root(*hermitian_eig(mat))


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(root(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(root(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_projector_is_fixed_point(self):
        p = proj(KET_PLUS)
        np.testing.assert_allclose(root(p), p, atol=1e-12)

    def test_square_recovers_random_psd(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5):
            h = random_density(rng, dim) * rng.uniform(0.5, 3.0)
            r = root(h)
            assert np.linalg.norm(r @ r - h) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert is_psd(r)
            np.testing.assert_allclose(r, sqrtm_psd(h), rtol=0, atol=1e-10)

    def test_rejects_indefinite(self):
        # Roots are taken only of validated eigenpairs; validation refuses an indefinite matrix.
        with pytest.raises(PositivityError):
            ensure_effect(np.diag([1.0, -0.5]))


class TestSupport:
    def test_full_rank(self):
        assert support(np.eye(2) / 2).dimension == 2

    def test_pure_state(self):
        sub = support(proj(KET0))
        assert sub.dimension == 1
        assert residual_outside(sub.basis, KET0) <= 1e-12

    def test_threshold_rule(self):
        eps = 1e-15
        assert support(np.diag([1.0 - eps, eps]), tol=1e-9).dimension == 1

    def test_dimension_matches_eigenvalue_count_and_is_idempotent(self):
        rng = np.random.default_rng(8)
        for dim, rank in ((3, 1), (3, 2), (4, 2), (4, 4)):
            rho = random_density(rng, dim, rank)
            sub = support(rho, tol=1e-9)
            vals = np.linalg.eigvalsh(rho)
            assert sub.dimension == int((vals > 1e-9 * vals[-1]).sum()) == rank
            projected = sub.projector() @ rho @ sub.projector()
            assert abs(np.trace(projected).real - 1.0) <= dim * 1e-9
            assert support(projected / np.trace(projected).real, tol=1e-9).dimension == rank


class TestSubspaceIntersection:
    def test_rejects_basis_that_is_not_orthonormal(self):
        with pytest.raises(NotNormalizedError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_basis_that_is_not_finite(self, bad):
        # NaN fails every comparison, so the orthonormality check alone lets it through.
        with pytest.raises(NonFiniteError):
            Subspace([[bad], [0.0]])

    def test_same_span(self):
        sub = Subspace(KET0.reshape(2, 1))
        out = subspace_intersection(sub, sub)
        assert out.dimension == 1
        assert residual_outside(out.basis, KET0) <= 1e-12

    def test_orthogonal(self):
        a = Subspace(KET0.reshape(2, 1))
        b = Subspace(KET1.reshape(2, 1))
        assert subspace_intersection(a, b).dimension == 0

    def test_three_dim_overlap(self):
        # span{e0,e1} and span{e1,e2} share exactly span{e1}.
        eye = np.eye(3)
        a = Subspace(eye[:, :2])
        b = Subspace(eye[:, 1:])
        out = subspace_intersection(a, b)
        assert out.dimension == 1
        assert residual_outside(out.basis, eye[:, 1:2]) <= 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            frame = random_unitary(rng, dim)
            ka = int(rng.integers(1, dim + 1))
            kb = int(rng.integers(1, dim + 1))
            a = Subspace(frame[:, :ka])
            b = Subspace(frame[:, dim - kb :])
            ab = subspace_intersection(a, b)
            ba = subspace_intersection(b, a)
            assert ab.dimension == ba.dimension == max(0, ka + kb - dim)
            if ab.dimension:
                assert residual_outside(ab.basis, ba.basis) <= 1e-10
                assert residual_outside(ba.basis, ab.basis) <= 1e-10

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            subspace_intersection(Subspace.empty(2), Subspace.empty(3))


class TestEnsureStates:
    def test_returns_validated_states_in_argument_order(self):
        skew = np.array([[0.5, 0.25 + 1e-12j], [0.25, 0.5]])
        (a, *a_eig), (b, *b_eig) = ensure_states(rho_a=skew, rho_b=proj(KET0))
        np.testing.assert_array_equal(a, (skew + skew.conj().T) / 2)
        np.testing.assert_array_equal(b, proj(KET0))
        for state, eig in ((a, a_eig), (b, b_eig)):
            for got, expected in zip(eig, hermitian_eig(state), strict=True):
                np.testing.assert_array_equal(got, expected)

    def test_names_the_failing_state(self):
        with pytest.raises(NotNormalizedError, match="rho_b trace"):
            ensure_states(rho_a=proj(KET0), rho_b=0.9 * proj(KET1))

    def test_names_every_shape(self):
        with pytest.raises(ShapeError, match=r"rho \(2, 2\), sigma \(3, 3\), tau \(2, 2\)"):
            ensure_states(rho=np.eye(2) / 2, sigma=np.eye(3) / 3, tau=proj(KET0))

    def test_a_state_passes_through_without_a_solve(self, monkeypatch):
        states = ensure_states(rho=np.eye(2) / 2, sigma=proj(KET_PLUS))
        assert all(isinstance(s, State) and s.rho is s[0] for s in states)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append("eigh"))
        monkeypatch.setattr(linalg, "ensure_hermitian", lambda *args, **kwargs: calls.append("hermitian"))
        assert ensure_density_matrix(states[0]) is states[0]
        again = ensure_states(rho=states[0], sigma=states[1])
        assert all(got is state for got, state in zip(again, states, strict=True)) and not calls

    def test_states_still_get_the_shape_check(self):
        with pytest.raises(ShapeError, match=r"rho \(2, 2\), sigma \(3, 3\)"):
            ensure_states(rho=ensure_density_matrix(np.eye(2) / 2), sigma=ensure_density_matrix(np.eye(3) / 3))


def test_entries_near_the_float_limit_are_decided_without_overflow():
    big = np.diag([1e308, -1e308]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_same_bytes(ensure_hermitian(big), big)
        with pytest.raises(HermiticityError):
            ensure_hermitian(np.array([[0, 1e308], [-1e308, 0]]))
        # |1.5e308 (1 + i)| overflows, which must not make the tolerance infinite.
        with pytest.raises(HermiticityError):
            ensure_hermitian(np.array([[0, 1.5e308 + 1.5e308j], [0, 0]]))


def test_a_nan_completeness_residual_fails():
    with pytest.raises(IncompleteMeasurementError, match="residual nan"):
        require_complete(float("nan"), "operators")


def test_trace_distance_pure_states():
    # For pure states the trace distance is sqrt(1 - |overlap|^2).
    assert trace_distance(proj(KET0), proj(KET_PLUS)) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert trace_distance(proj(KET0), proj(KET1)) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(proj(KET0), proj(KET0)) == pytest.approx(0.0, abs=1e-12)


def test_tolerance_literals_live_in_the_block():
    """No float literal in (0, 1e-6] appears in src/qpool outside the TOL_* block of ``tolerances``."""
    offenders = []
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "tolerances.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and all(
                    isinstance(t, ast.Name) and t.id.startswith("TOL_") for t in node.targets
                ):
                    allowed.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) <= 1e-6
                and id(node) not in allowed
            ):
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not offenders, offenders


def edge_state(seed: int) -> np.ndarray:
    """A unit-trace state in a random basis with lambda_min within 1e-7 relative of -TOL_PSD."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    spectrum = rng.uniform(0.1, 0.9, dim)
    spectrum[0] = -TOL_PSD * (1.0 + rng.uniform(-1e-7, 1e-7))
    spectrum[1:] *= (1.0 - spectrum[0]) / spectrum[1:].sum()
    frame = random_unitary(rng, dim)
    return frame @ np.diag(spectrum) @ frame.conj().T


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_is_psd_agrees_with_the_state_validator_at_the_edge(seed):
    # The PSD rule on hermitian_eig's spectrum gives the validator's verdict.
    rho = edge_state(seed)
    vals = hermitian_eig(rho)[0]
    try:
        ensure_density_matrix(rho)
    except PositivityError:
        assert not psd_ok(float(vals[-1]), float(vals[0]), TOL_PSD)
    else:
        assert psd_ok(float(vals[-1]), float(vals[0]), TOL_PSD)


def test_effects_come_back_with_their_eigenpairs():
    rng = np.random.default_rng(5)
    effect = random_density(rng, 3)
    sym, vals, vecs = ensure_effect(effect)
    assert_same_bytes(sym, (effect + effect.conj().T) / 2)
    for got, want in zip((vals, vecs), hermitian_eig(sym)):
        assert_same_bytes(got, want)
    assert_same_bytes(psd_root(vals, vecs), psd_root(*hermitian_eig(sym)))
