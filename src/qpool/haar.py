"""Sampling pure states from the unitarily invariant measure.

In probability/phase coordinates the invariant measure is flat: the outcome
probabilities ``P_k = |c_k|^2`` are uniform on the simplex and the phases
are independent and uniform on [0, 2pi).  A standard complex Gaussian vector
g ~ CN(0, I) divided by its norm has exactly that law (Mezzadri, Notices
AMS 54, 592 (2007)): each |g_k|^2 is an independent exponential, so the
normalized moduli are the uniform Dirichlet (Devroye's normalized
exponential spacings), and each arg g_k is uniform and independent of the
moduli.  Sampling therefore draws one real Gaussian buffer with the real and
imaginary parts interleaved, divides each row by its norm in place, and
reads the buffer as complex amplitudes: no transcendental function per entry
and no allocation beyond the result and one norm per row.  The global phase
is sampled too; it is physically redundant but harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, PositivityError, ShapeError
from .linalg import TOL_PROB_SUM, require_normalized

_CHUNK = 200_000  # samples per batch in average_projector


@dataclass(frozen=True)
class PureStateSample:
    """One pure state in probability/phase coordinates."""

    probs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        phases = np.asarray(self.phases, dtype=float).reshape(-1)
        if probs.size == 0 or probs.size != phases.size:
            raise ShapeError("probs and phases must be non-empty and equally long")
        if not (np.isfinite(probs).all() and np.isfinite(phases).all()):
            raise NonFiniteError("probabilities or phases contain non-finite entries")
        if probs.min() < 0.0:
            raise PositivityError(f"negative probability {float(probs.min())!r}")
        require_normalized(float(probs.sum()), TOL_PROB_SUM, "probability sum")
        probs.setflags(write=False)
        phases.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "phases", phases)

    @property
    def dim(self) -> int:
        return self.probs.size

    @property
    def amplitudes(self) -> np.ndarray:
        return np.sqrt(self.probs) * np.exp(1j * self.phases)

    def projector(self) -> np.ndarray:
        amps = self.amplitudes
        return np.outer(amps, amps.conj())


def sample_amplitudes(dim: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitude rows for ``n_samples`` invariant-measure pure states: C-contiguous complex (n, dim)."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    parts = rng.standard_normal((int(n_samples), 2 * dim))
    norms = np.einsum("ij,ij->i", parts, parts)
    parts /= np.sqrt(norms, out=norms)[:, None]
    return parts.view(complex)


def sample_pure_state(dim: int, rng: np.random.Generator) -> PureStateSample:
    """Draw one pure state from the invariant measure."""
    amps = sample_amplitudes(dim, 1, rng)[0]
    return PureStateSample(np.abs(amps) ** 2, np.angle(amps) % (2.0 * np.pi))


def measure_normalization(dim: int) -> float:
    """Total volume of the invariant measure: 2 pi^d / (d - 1)!."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    return 2.0 * math.pi**dim / math.factorial(dim - 1)


def average_projector(dim: int, n_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo mean projector over the invariant measure; converges to I/d."""
    if n_samples < 1:
        raise ShapeError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    total = np.zeros((dim, dim), dtype=complex)
    remaining = int(n_samples)
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        amps = sample_amplitudes(dim, batch, rng)
        total += amps.T @ amps.conj()
        remaining -= batch
    return total / n_samples
