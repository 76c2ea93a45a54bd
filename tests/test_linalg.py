import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import ginibre, random_density, random_hermitian, random_unitary

import qpool

from qpool.errors import HermiticityError, PositivityError, ShapeError
from qpool.linalg import (
    Subspace,
    hermitian_eig,
    is_psd,
    matrix_sqrt_psd,
    partial_trace,
    subspace_intersection,
    support,
    tensor,
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
    def test_half_identity(self):
        assert is_psd(np.eye(2) / 2)

    def test_negative_eigenvalue(self):
        assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_rank_one_symmetric(self):
        assert is_psd([[0.5, 0.5], [0.5, 0.5]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            is_psd([[0.0, 1.0], [0.0, 0.0]])


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_projector_is_fixed_point(self):
        p = proj(KET_PLUS)
        np.testing.assert_allclose(matrix_sqrt_psd(p), p, atol=1e-12)

    def test_square_recovers_random_psd(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 5):
            h = random_density(rng, dim) * rng.uniform(0.5, 3.0)
            root = matrix_sqrt_psd(h)
            assert np.linalg.norm(root @ root - h) <= 1e-10 * max(1.0, np.linalg.norm(h))
            assert is_psd(root)

    def test_rejects_indefinite(self):
        with pytest.raises(PositivityError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]))


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_hand_kronecker(self):
        out = tensor(proj(KET0), np.eye(2) / 2)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3) * 0.7  # non-unit trace on the traced factor
        np.testing.assert_allclose(
            partial_trace(tensor(rho, sigma), [2, 3], keep=[0]), rho * 0.7, atol=1e-12
        )

    def test_bell_state_marginals(self):
        # |Phi+><Phi+| has 1/2 at the four corners of the 4x4 matrix.
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
        for keep in ([0], [1]):
            np.testing.assert_allclose(partial_trace(bell, [2, 2], keep), np.eye(2) / 2, atol=1e-12)

    def test_keep_everything(self):
        rng = np.random.default_rng(4)
        m = ginibre(rng, 6, 6)
        np.testing.assert_allclose(partial_trace(m, [2, 3], keep=[0, 1]), m)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(5)
        for dims in ([2, 2], [2, 3], [2, 2, 2]):
            rho = random_density(rng, int(np.prod(dims)))
            for k in range(len(dims)):
                reduced = partial_trace(rho, dims, keep=[k])
                assert abs(np.trace(reduced).real - 1.0) <= 1e-12
                assert is_psd(reduced, tol=1e-10)

    def test_linear_in_input(self):
        rng = np.random.default_rng(6)
        a, b = ginibre(rng, 4, 4), ginibre(rng, 4, 4)
        lhs = partial_trace(2.0 * a + b, [2, 2], keep=[1])
        rhs = 2.0 * partial_trace(a, [2, 2], keep=[1]) + partial_trace(b, [2, 2], keep=[1])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), [2, 3], keep=[0])

    def test_keep_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4), [2, 2], keep=[2])


class TestSupport:
    def test_full_rank(self):
        assert support(np.eye(2) / 2).dimension == 2

    def test_pure_state(self):
        sub = support(proj(KET0))
        assert sub.dimension == 1
        assert sub.projection_residual(KET0.reshape(2, 1)) <= 1e-12

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
    def test_same_span(self):
        sub = Subspace(2, KET0.reshape(2, 1))
        out = subspace_intersection(sub, sub)
        assert out.dimension == 1
        assert out.projection_residual(KET0.reshape(2, 1)) <= 1e-12

    def test_orthogonal(self):
        a = Subspace(2, KET0.reshape(2, 1))
        b = Subspace(2, KET1.reshape(2, 1))
        assert subspace_intersection(a, b).dimension == 0

    def test_three_dim_overlap(self):
        # span{e0,e1} and span{e1,e2} share exactly span{e1}.
        eye = np.eye(3)
        a = Subspace(3, eye[:, :2])
        b = Subspace(3, eye[:, 1:])
        out = subspace_intersection(a, b)
        assert out.dimension == 1
        assert out.projection_residual(eye[:, 1:2]) <= 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            frame = random_unitary(rng, dim)
            ka = int(rng.integers(1, dim + 1))
            kb = int(rng.integers(1, dim + 1))
            a = Subspace(dim, frame[:, :ka])
            b = Subspace(dim, frame[:, dim - kb :])
            ab = subspace_intersection(a, b)
            ba = subspace_intersection(b, a)
            assert ab.dimension == ba.dimension == max(0, ka + kb - dim)
            if ab.dimension:
                assert ab.projection_residual(ba.basis) <= 1e-10
                assert ba.projection_residual(ab.basis) <= 1e-10

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            subspace_intersection(Subspace.empty(2), Subspace.empty(3))


def test_trace_distance_pure_states():
    # For pure states the trace distance is sqrt(1 - |overlap|^2).
    assert trace_distance(proj(KET0), proj(KET_PLUS)) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert trace_distance(proj(KET0), proj(KET1)) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(proj(KET0), proj(KET0)) == pytest.approx(0.0, abs=1e-12)


def test_tolerance_literals_live_in_the_block():
    """No float literal in (0, 1e-6] appears in src/qpool outside linalg's TOL_* block."""
    offenders = []
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "linalg.py":
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
