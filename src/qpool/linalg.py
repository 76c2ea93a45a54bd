"""Dense complex linear algebra for small quantum-state calculations.

Matrices are plain numpy arrays of complex128.  Index convention for
composite systems: subsystem 0 is the most significant tensor factor,
i.e. ``tensor(A, B)`` is the row-major Kronecker product ``np.kron(A, B)``.

Every tolerance in qpool is a ``TOL_*`` constant below, and each validity
rule (PSD, completeness, support cutoff) is one function here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, IncompleteMeasurementError, NonFiniteError
from .errors import NotNormalizedError, PositivityError, ShapeError

# Tolerances, relative to the largest magnitude involved unless marked absolute.
TOL_HERM = 1e-9  # max|A - A^dag| <= TOL_HERM * max(1, max|A|)
TOL_TRACE = 1e-9  # absolute: |Tr rho - 1|, and common-term weights summing to 1
TOL_PSD = 1e-9  # lambda_min >= -TOL_PSD * max(1, lambda_max); effects: lambda_max <= 1 + TOL_PSD
TOL_ORTH = 1e-10  # absolute: max|B^dag B - I| for a subspace basis
TOL_RANK = 1e-9  # support: lambda > TOL_RANK * lambda_max; intersection: s > 1 - TOL_RANK
TOL_COMPLETENESS = 1e-9  # absolute: max|sum_k M_k^dag M_k - I|
TOL_RECON = 1e-10  # absolute: drift of a rebuilt common-term decomposition
TOL_REMAINDER = 1e-12  # absolute: smallest kept remainder eigenvalue
TOL_DIAGONAL = 1e-9  # off-diagonal entries for the matrix-form Bayes rule
TOL_COMMUTE = 1e-9  # absolute: Frobenius norm of [rho_a, rho_b] for commuting pooling
TOL_PROB_SUM = 1e-12  # absolute: probability vectors' negative entries and |sum - 1|
TOL_DENSITY = 1e-12  # absolute: negativity of a polynomial density on its check grid
TOL_SINGULAR = 1e-15  # absolute: vanishing denominator of the matching constraint


def as_matrix(mat, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_square_matrix(mat, *, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(mat, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {arr.shape}")
    return arr


def dagger(mat: np.ndarray) -> np.ndarray:
    return mat.conj().T


def psd_ok(lam_min: float, lam_max: float, tol: float) -> bool:
    """The PSD rule on a spectrum: lambda_min >= -tol * max(1, lambda_max)."""
    return bool(lam_min >= -tol * max(1.0, lam_max))


def require_psd(lam_min: float, lam_max: float, name: str) -> None:
    """Raise :class:`PositivityError` unless the spectrum passes the PSD rule at ``TOL_PSD``."""
    if not psd_ok(lam_min, lam_max, TOL_PSD):
        raise PositivityError(f"{name} has negative eigenvalue {lam_min:.3e}")


def completeness_residual(total: np.ndarray) -> float:
    """max|total - I| for ``total = sum_k M_k^dag M_k`` (or the sum of the effects)."""
    return float(np.abs(total - np.eye(total.shape[0])).max())


def require_complete(residual: float, name: str) -> None:
    """The completeness rule: raise unless ``residual <= TOL_COMPLETENESS``."""
    if residual > TOL_COMPLETENESS:
        raise IncompleteMeasurementError(f"{name}: completeness residual {residual:.3e}")


def support_cutoff(vals: np.ndarray, vecs: np.ndarray, tol: float):
    """The support cutoff: the descending eigenpairs with eigenvalue above ``tol * lambda_max``."""
    mask = vals > tol * float(vals[0])
    return vals[mask], vecs[:, mask]


def ensure_hermitian(mat, *, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``TOL_HERM`` and return the symmetrized matrix."""
    arr = as_square_matrix(mat, name=name)
    scale = max(1.0, float(np.abs(arr).max())) if arr.size else 1.0
    if arr.size and float(np.abs(arr - dagger(arr)).max()) > TOL_HERM * scale:
        raise HermiticityError(f"{name} is not Hermitian within relative tolerance {TOL_HERM:g}")
    return (arr + dagger(arr)) / 2


def ensure_density_matrix(mat, *, name: str = "rho") -> np.ndarray:
    """Validate a density matrix (Hermitian, PSD, unit trace) and return it symmetrized."""
    arr = ensure_hermitian(mat, name=name)
    tr = float(np.trace(arr).real)
    if abs(tr - 1.0) > TOL_TRACE:
        raise NotNormalizedError(f"{name} has trace {tr!r}, expected 1 within {TOL_TRACE:g}")
    vals = np.linalg.eigvalsh(arr)
    require_psd(float(vals[0]), float(vals[-1]), name)
    return arr


def hermitian_eig(mat, *, name: str = "matrix"):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order; eigenvectors are the corresponding orthonormal
    columns.  The choice of basis inside a degenerate eigenspace is
    arbitrary but the returned column matrix is always unitary.
    """
    arr = ensure_hermitian(mat, name=name)
    vals, vecs = np.linalg.eigh(arr)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def is_psd(mat, tol: float = TOL_PSD, *, name: str = "matrix") -> bool:
    """True iff the minimum eigenvalue is >= -tol * max(1, largest eigenvalue)."""
    vals = np.linalg.eigvalsh(ensure_hermitian(mat, name=name))
    return psd_ok(float(vals[0]), float(vals[-1]), tol)


def matrix_sqrt_psd(mat, *, name: str = "matrix") -> np.ndarray:
    """Hermitian PSD square root, via eigendecomposition."""
    vals, vecs = hermitian_eig(mat, name=name)
    require_psd(float(vals[-1]), float(vals[0]), name)
    root = np.sqrt(np.clip(vals, 0.0, None))
    out = (vecs * root) @ dagger(vecs)
    return (out + dagger(out)) / 2


def tensor(*mats) -> np.ndarray:
    """Kronecker product of one or more matrices, first factor most significant."""
    if not mats:
        raise ShapeError("tensor() needs at least one factor")
    out = as_matrix(mats[0], name="factor 0")
    for k, m in enumerate(mats[1:], start=1):
        out = np.kron(out, as_matrix(m, name=f"factor {k}"))
    return out


def partial_trace(mat, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order (subsystem 0 most
    significant); ``keep`` is an iterable of subsystem indices to retain, in
    their original relative order.
    """
    arr = as_square_matrix(mat, name="matrix")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ShapeError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if arr.shape != (total, total):
        raise ShapeError(f"matrix shape {arr.shape} does not match dims product {total}")
    keep = sorted(set(int(k) for k in keep))
    for k in keep:
        if k < 0 or k >= len(dims):
            raise IndexError(f"keep index {k} out of range for {len(dims)} subsystems")
    traced = [k for k in range(len(dims)) if k not in keep]
    reshaped = arr.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(traced, reverse=True):
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    out_dim = int(np.prod(remaining)) if remaining else 1
    return np.asarray(reshaped, dtype=complex).reshape(out_dim, out_dim)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim, spanned by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dimension); may have zero columns

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex).reshape(self.ambient_dim, -1)
        if basis.shape[1] > self.ambient_dim:
            raise ShapeError("subspace dimension exceeds ambient dimension")
        if basis.shape[1]:
            gram = dagger(basis) @ basis
            if float(np.abs(gram - np.eye(basis.shape[1])).max()) > TOL_ORTH:
                raise ValueError("subspace basis is not orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def projection_residual(self, vectors: np.ndarray) -> float:
        """Largest norm of the component of the given column vectors outside the span."""
        v = np.asarray(vectors, dtype=complex).reshape(self.ambient_dim, -1)
        if v.shape[1] == 0:
            return 0.0
        resid = v - self.projector() @ v
        return float(np.linalg.norm(resid, axis=0).max())


def support(rho, tol: float = TOL_RANK) -> Subspace:
    """Span of the eigenvectors of ``rho`` with eigenvalue above ``tol * lambda_max``."""
    arr = ensure_density_matrix(rho)
    _, basis = support_cutoff(*hermitian_eig(arr), tol)
    return Subspace(arr.shape[0], basis)


def subspace_intersection(u: Subspace, v: Subspace, tol: float = TOL_RANK) -> Subspace:
    """Intersection of two subspaces via the SVD of the projector product.

    Singular values of ``P_u @ P_v`` above ``1 - tol`` identify common
    directions; the matching right singular vectors form the returned basis.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ShapeError(f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}")
    if u.dimension == 0 or v.dimension == 0:
        return Subspace.empty(u.ambient_dim)
    _, svals, vh = np.linalg.svd(u.projector() @ v.projector())
    mask = svals > 1.0 - tol
    return Subspace(u.ambient_dim, dagger(vh[mask, :]))


def trace_distance(a, b) -> float:
    """(1/2) * trace norm of a - b, for Hermitian a, b."""
    diff = ensure_hermitian(a, name="a") - ensure_hermitian(b, name="b")
    vals = np.linalg.eigvalsh(diff)
    return 0.5 * float(np.abs(vals).sum())
