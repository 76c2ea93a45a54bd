"""Sampling pure states from the unitarily invariant measure.

In probability/phase coordinates the invariant measure is flat: the outcome
probabilities ``P_k = |c_k|^2`` are uniform on the simplex and the phases
are independent and uniform on [0, 2pi).  Sampling therefore draws
normalized exponential spacings for the probabilities (the uniform
Dirichlet) and independent uniform phases.  The global phase is sampled
too; it is physically redundant but harmless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import TOL_PROB_SUM


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
        if probs.min() < 0.0 or abs(probs.sum() - 1.0) > TOL_PROB_SUM:
            raise ValueError("probabilities must be nonnegative and sum to 1")
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


def _draw_coordinates(dim: int, n_samples: int, rng: np.random.Generator):
    """Probability and phase rows for ``n_samples`` states, each of shape (n, dim)."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    spacings = rng.standard_exponential((n_samples, dim))
    probs = spacings / spacings.sum(axis=1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_samples, dim))
    return probs, phases


def sample_amplitudes(dim: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitude rows for ``n_samples`` invariant-measure pure states, shape (n, dim)."""
    probs, phases = _draw_coordinates(dim, int(n_samples), rng)
    return np.sqrt(probs) * np.exp(1j * phases)


def sample_pure_state(dim: int, rng: np.random.Generator) -> PureStateSample:
    """Draw one pure state from the invariant measure."""
    probs, phases = _draw_coordinates(dim, 1, rng)
    return PureStateSample(probs[0], phases[0])


def measure_normalization(dim: int) -> float:
    """Total volume of the invariant measure: 2 pi^d / (d - 1)!."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    return 2.0 * math.pi**dim / math.factorial(dim - 1)


def average_projector(dim: int, n_samples: int, seed: int, *, chunk: int = 200_000) -> np.ndarray:
    """Monte-Carlo mean projector over the invariant measure; converges to I/d."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    total = np.zeros((dim, dim), dtype=complex)
    remaining = int(n_samples)
    while remaining > 0:
        batch = min(chunk, remaining)
        amps = sample_amplitudes(dim, batch, rng)
        total += amps.T @ amps.conj()
        remaining -= batch
    return total / n_samples
