"""Dense complex linear algebra for small quantum-state calculations.

Matrices are plain numpy arrays of complex128.

Every tolerance in qpool is a ``TOL_*`` constant of ``tolerances``, re-exported
here, and each validity rule (PSD, effect, completeness, normalization, support
cutoff) is one function here.  A state (as a ``State``) or effect comes back
with the eigenpairs of the one ``eigh`` that decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HermiticityError, IncompleteMeasurementError, InvalidEffectError
from .errors import NonFiniteError, NotNormalizedError, PositivityError, ShapeError
from .tolerances import (  # re-exported: every tolerance is defined in ``tolerances``
    TOL_COMMUTE,
    TOL_COMPLETENESS,
    TOL_DIAGONAL,
    TOL_HERM,
    TOL_ORTH,
    TOL_PROB_SUM,
    TOL_PSD,
    TOL_RANK,
    TOL_RECON,
    TOL_REMAINDER,
    TOL_SINGULAR,
    TOL_SPECTRUM,
    TOL_TRACE,
)


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


def require_effect(lam_min: float, lam_max: float, name: str) -> None:
    """The effect rule on a spectrum: PSD, and no eigenvalue above ``1 + TOL_PSD``."""
    require_psd(lam_min, lam_max, name)
    if lam_max > 1.0 + TOL_PSD:
        raise InvalidEffectError(f"{name} has eigenvalue {lam_max!r} > 1")


def completeness_residual(total: np.ndarray) -> float:
    """max|total - I| for ``total = sum_k M_k^dag M_k`` (or the sum of the effects)."""
    return float(np.abs(total - np.eye(total.shape[0])).max())


def require_complete(residual: float, name: str) -> None:
    """The completeness rule: raise unless ``residual <= TOL_COMPLETENESS`` (a NaN residual fails)."""
    if not residual <= TOL_COMPLETENESS:
        raise IncompleteMeasurementError(f"{name}: completeness residual {residual:.3e}")


def require_normalized(total, tol: float, name: str) -> None:
    """The normalization rule: raise :class:`NotNormalizedError` unless ``|total - 1| <= tol``.

    ``total`` may be an array, checked entrywise; a NaN total fails.
    """
    if not np.all(np.abs(np.subtract(total, 1.0)) <= tol):
        shown = np.asarray(total).tolist()
        raise NotNormalizedError(f"{name} = {shown!r}, expected 1 within {tol:g}")


def support_cutoff(vals: np.ndarray, vecs: np.ndarray, tol: float):
    """The support cutoff: the descending eigenpairs with eigenvalue above ``tol * lambda_max``."""
    mask = vals > tol * float(vals[0])
    return vals[mask], vecs[:, mask]


def ensure_hermitian(mat, *, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within ``TOL_HERM`` and return the symmetrized matrix."""
    arr = as_square_matrix(mat, name=name)
    half = arr / 2  # the rule on halves, so entries near the float limit cannot overflow
    half_scale = max(0.5, float(np.abs(half).max())) if arr.size else 0.5
    if arr.size and float(np.abs(half - dagger(half)).max()) > TOL_HERM * half_scale:
        raise HermiticityError(f"{name} is not Hermitian within relative tolerance {TOL_HERM:g}")
    return half + dagger(half)


def ensure_effect(mat, *, name: str = "effect"):
    """Validate an effect (Hermitian, 0 <= E <= I); return ``(E, vals, vecs)`` like a state."""
    arr = ensure_hermitian(mat, name=name)
    vals, vecs = _descending_eigh(arr)
    require_effect(float(vals[-1]), float(vals[0]), name)
    return arr, vals, vecs


class State(NamedTuple):
    """A validated density matrix with the descending eigenpairs of the ``eigh`` that decided it."""

    rho: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray


def ensure_density_matrix(mat, *, name: str = "rho") -> State:
    """Validate a density matrix (Hermitian, PSD, unit trace) into a ``State``; a ``State`` passes as is."""
    if isinstance(mat, State):
        return mat
    arr = ensure_hermitian(mat, name=name)
    with np.errstate(over="ignore"):  # an infinite trace fails the rule below
        trace = float(np.trace(arr).real)
    require_normalized(trace, TOL_TRACE, f"{name} trace")
    vals, vecs = _descending_eigh(arr)
    require_psd(float(vals[-1]), float(vals[0]), name)
    return State(arr, vals, vecs)


def ensure_states(**named) -> list:
    """Validate each named state in argument order into a ``State``; shapes must match."""
    states = [ensure_density_matrix(mat, name=name) for name, mat in named.items()]
    if len({s.shape for s, _, _ in states}) > 1:
        shapes = ", ".join(f"{name} {s.shape}" for name, (s, _, _) in zip(named, states))
        raise ShapeError(f"shapes differ: {shapes}")
    return states


def hermitian_eig(mat, *, name: str = "matrix"):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order; eigenvectors are the corresponding orthonormal
    columns.  The choice of basis inside a degenerate eigenspace is
    arbitrary but the returned column matrix is always unitary.
    """
    return _descending_eigh(ensure_hermitian(mat, name=name))


def _descending_eigh(arr: np.ndarray):
    """``hermitian_eig`` of a matrix already symmetrized by ``ensure_hermitian``."""
    vals, vecs = np.linalg.eigh(arr)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def psd_root(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Hermitian square root from eigenpairs, with negative eigenvalues clipped to 0."""
    root = np.sqrt(np.clip(vals, 0.0, None))
    out = (vecs * root) @ dagger(vecs)
    return (out + dagger(out)) / 2


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim, spanned by orthonormal basis columns."""

    basis: np.ndarray  # shape (ambient_dim, dimension); may have zero columns

    def __post_init__(self):
        basis = as_matrix(self.basis, name="subspace basis")
        if basis.shape[1]:
            gram = dagger(basis) @ basis
            if float(np.abs(gram - np.eye(basis.shape[1])).max()) > TOL_ORTH:
                raise NotNormalizedError("subspace basis is not orthonormal")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0), dtype=complex))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)


def support(rho, tol: float = TOL_RANK) -> Subspace:
    """Span of the eigenvectors of ``rho`` with eigenvalue above ``tol * lambda_max``."""
    _, vals, vecs = ensure_density_matrix(rho)
    return Subspace(support_cutoff(vals, vecs, tol)[1])


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
    return Subspace(dagger(vh[mask, :]))


def trace_distance(a, b) -> float:
    """(1/2) * trace norm of a - b, for Hermitian a, b of one shape."""
    a, b = ensure_hermitian(a, name="a"), ensure_hermitian(b, name="b")
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: a {a.shape}, b {b.shape}")
    vals = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.abs(vals).sum())
