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

import numpy as np

from .errors import ShapeError


def sample_amplitudes(dim: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitude rows for ``n_samples`` invariant-measure pure states: C-contiguous complex (n, dim)."""
    if dim < 1:
        raise ShapeError(f"dimension must be positive, got {dim}")
    if n_samples < 0:
        raise ShapeError(f"sample count must be nonnegative, got {n_samples}")
    parts = rng.standard_normal((int(n_samples), 2 * dim))
    norms = np.einsum("ij,ij->i", parts, parts)
    parts /= np.sqrt(norms, out=norms)[:, None]
    return parts.view(complex)
