"""Consistency and fusion of independently obtained quantum states of knowledge.

Two density matrices are consistent exactly when the supports intersect;
every such pair can be decomposed around a common term sigma, and a three-
system measurement scenario realizes the pair with sigma as the state held
by an observer who sees both outcome records.  Because sigma may be any
state supported inside the intersection, the pooled state is not fixed by
the two marginals alone; ``averaged_fusion`` explores one pluggable choice
of measure over the realizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguityPreconditionError,
    ConfigError,
    DegenerateConstructionError,
    ImpossibleOutcomeError,
    InconsistentStatesError,
    NotNormalizedError,
    PositivityError,
    ShapeError,
)
from .haar import sample_amplitudes
from .linalg import (
    TOL_PSD,
    TOL_RANK,
    TOL_RECON,
    TOL_REMAINDER,
    TOL_TRACE,
    dagger,
    ensure_density_matrix,
    hermitian_eig,
    psd_ok,
    subspace_intersection,
    support,
    support_cutoff,
    trace_distance,
)


def check_consistency(rho_a, rho_b, tol: float = TOL_RANK):
    """Whether two states admit a common state of knowledge.

    Returns ``(verdict, intersection)`` where the verdict is true iff the
    intersection of the two supports has dimension at least 1.
    """
    a = ensure_density_matrix(rho_a, name="rho_a")
    b = ensure_density_matrix(rho_b, name="rho_b")
    if a.shape != b.shape:
        raise ShapeError(f"shapes differ: {a.shape} vs {b.shape}")
    intersection = subspace_intersection(support(a, tol), support(b, tol), tol)
    return intersection.dimension >= 1, intersection


def max_common_weight(rho, sigma) -> float:
    """Largest weight alpha in [0, 1] such that rho - alpha * sigma stays PSD.

    Zero when the support of sigma is not contained in the support of rho.
    Computed from the largest eigenvalue of sigma congruence-transformed by
    the inverse square root of rho on its support.
    """
    rho = ensure_density_matrix(rho, name="rho")
    sigma = ensure_density_matrix(sigma, name="sigma")
    if rho.shape != sigma.shape:
        raise ShapeError(f"shapes differ: {rho.shape} vs {sigma.shape}")
    lam, basis = support_cutoff(*hermitian_eig(rho), TOL_RANK)
    projected = dagger(basis) @ sigma @ basis
    leak = float(np.trace(sigma).real - np.trace(projected).real)
    if leak > TOL_RANK:
        return 0.0
    inv_root = 1.0 / np.sqrt(lam)
    scaled = inv_root[:, None] * projected * inv_root[None, :]
    top = float(np.linalg.eigvalsh(scaled)[-1])
    return min(1.0, 1.0 / top)


def _remainder_terms(rho: np.ndarray, sigma: np.ndarray, weight: float, *, name: str):
    remainder = rho - weight * sigma
    vals, vecs = hermitian_eig(remainder, name=f"{name} remainder")
    if not psd_ok(float(vals[-1]), float(vals[0]), TOL_PSD):
        raise PositivityError(
            f"{name}: weight {weight:g} exceeds the admissible maximum "
            f"(remainder eigenvalue {vals[-1]:.3e})"
        )
    kept = [
        (float(v), vecs[:, k].copy())
        for k, v in enumerate(vals)
        if float(v) > TOL_REMAINDER
    ]
    return tuple(kept)


@dataclass(frozen=True)
class CommonTermDecomposition:
    """Both states written as a weighted common term plus pure remainders.

    ``rho_a = alpha * sigma + sum_k p_k |phi_k><phi_k|`` and likewise for B;
    the remainders are the eigendecompositions of ``rho - weight * sigma``.
    """

    sigma: np.ndarray = field(repr=False)
    alpha: float
    beta: float
    remainder_a: tuple = field(repr=False)  # of (weight, unit vector)
    remainder_b: tuple = field(repr=False)

    def __post_init__(self):
        sigma = ensure_density_matrix(self.sigma, name="sigma")
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        for label, weight, terms in (
            ("alpha", self.alpha, self.remainder_a),
            ("beta", self.beta, self.remainder_b),
        ):
            if not 0.0 < weight <= 1.0:
                raise DegenerateConstructionError(f"{label} must lie in (0, 1], got {weight!r}")
            total = weight + sum(p for p, _ in terms)
            if any(p < 0 for p, _ in terms):
                raise PositivityError("remainder weights must be nonnegative")
            if abs(total - 1.0) > TOL_TRACE:
                raise NotNormalizedError(f"{label} + remainder weights = {total!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def _reconstruct(self, weight: float, terms) -> np.ndarray:
        out = weight * self.sigma.astype(complex)
        for p, vec in terms:
            out = out + p * np.outer(vec, vec.conj())
        return out

    def reconstruct_a(self) -> np.ndarray:
        return self._reconstruct(self.alpha, self.remainder_a)

    def reconstruct_b(self) -> np.ndarray:
        return self._reconstruct(self.beta, self.remainder_b)


def decompose_common(rho_a, rho_b, sigma, alpha: float, beta: float) -> CommonTermDecomposition:
    """Decompose both states around the common term ``alpha/beta * sigma``."""
    a = ensure_density_matrix(rho_a, name="rho_a")
    b = ensure_density_matrix(rho_b, name="rho_b")
    sig = ensure_density_matrix(sigma, name="sigma")
    if not (a.shape == b.shape == sig.shape):
        raise ShapeError("rho_a, rho_b and sigma must share one dimension")
    dec = CommonTermDecomposition(
        sigma=sig,
        alpha=float(alpha),
        beta=float(beta),
        remainder_a=_remainder_terms(a, sig, float(alpha), name="rho_a"),
        remainder_b=_remainder_terms(b, sig, float(beta), name="rho_b"),
    )
    for label, original, rebuilt in (
        ("rho_a", a, dec.reconstruct_a()),
        ("rho_b", b, dec.reconstruct_b()),
    ):
        if float(np.abs(original - rebuilt).max()) > TOL_RECON:
            raise PositivityError(f"{label} reconstruction drifted beyond {TOL_RECON:g}")
    return dec


@dataclass(frozen=True)
class TripartiteScenario:
    """The three-system pure state realizing a common-term decomposition.

    The state lives on ``S (x) S_A (x) S_B`` with subsystem S most
    significant.  The auxiliary bases are the computational bases of S_A and
    S_B: index ``n < n_common`` carries the n-th eigenvector of sigma, and
    the remaining indices carry one remainder term each.  ``psi`` is kept
    unnormalized; its squared norm is ``1 + (1-alpha)/alpha + (1-beta)/beta``.
    """

    dim_s: int
    dim_a: int
    dim_b: int
    n_common: int
    alpha: float
    beta: float
    psi: np.ndarray = field(repr=False)
    sigma_eigvals: np.ndarray = field(repr=False)
    sigma_eigvecs: np.ndarray = field(repr=False)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.psi, self.psi).real)


def realize_tripartite(dec: CommonTermDecomposition) -> TripartiteScenario:
    """Build the three-system pure state whose local measurements realize ``dec``.

    Summed over the rank of sigma and the two remainder lists:

    * ``sqrt(lam_n) |phi_n>|A_n>|B_n>`` for each eigenpair of sigma,
    * ``sqrt(p_k / alpha) |phi_k^A>|psi_unif^A>|B_{k+N}>`` for A-remainders,
    * ``sqrt(p_l / beta) |phi_l^B>|A_{l+N}>|psi_unif^B>`` for B-remainders,

    where the uniform states superpose the first N auxiliary basis states.
    """
    if dec.alpha <= 0.0 or dec.beta <= 0.0:
        raise DegenerateConstructionError("common-term weights must be strictly positive")
    lam, phi = support_cutoff(*hermitian_eig(dec.sigma, name="sigma"), TOL_RANK)
    n_common = int(lam.size)
    if n_common < 1:
        raise DegenerateConstructionError("sigma has empty support")

    dim_s = dec.dim
    dim_a = n_common + len(dec.remainder_b)
    dim_b = n_common + len(dec.remainder_a)

    uniform_a = np.zeros(dim_a, dtype=complex)
    uniform_a[:n_common] = 1.0 / np.sqrt(n_common)
    uniform_b = np.zeros(dim_b, dtype=complex)
    uniform_b[:n_common] = 1.0 / np.sqrt(n_common)

    psi = np.zeros(dim_s * dim_a * dim_b, dtype=complex)

    def add(coeff: float, sys_vec, a_vec, b_vec):
        psi[:] += coeff * np.kron(np.kron(sys_vec, a_vec), b_vec)

    basis_a = np.eye(dim_a, dtype=complex)
    basis_b = np.eye(dim_b, dtype=complex)
    for n in range(n_common):
        add(np.sqrt(lam[n]), phi[:, n], basis_a[n], basis_b[n])
    for k, (p, vec) in enumerate(dec.remainder_a):
        add(np.sqrt(p / dec.alpha), vec, uniform_a, basis_b[n_common + k])
    for l, (p, vec) in enumerate(dec.remainder_b):
        add(np.sqrt(p / dec.beta), vec, basis_a[n_common + l], uniform_b)

    return TripartiteScenario(
        dim_s=dim_s,
        dim_a=dim_a,
        dim_b=dim_b,
        n_common=n_common,
        alpha=dec.alpha,
        beta=dec.beta,
        psi=psi,
        sigma_eigvals=lam,
        sigma_eigvecs=phi,
    )


@dataclass(frozen=True)
class TripartiteReport:
    """Simulation outputs for one realized scenario.

    Outcome indices run over the common-term block ``n = 1..N`` only; both
    observers post-select on landing there and renormalize, which is how the
    averaged per-outcome states recover the original marginals.
    """

    outcome_probs: np.ndarray
    predicted_probs: np.ndarray
    alice_outcome_states: tuple
    rho_a_recovered: np.ndarray = field(repr=False)
    rho_b_recovered: np.ndarray = field(repr=False)
    charlie_state: np.ndarray = field(repr=False)
    norm_psi_sq: float


def simulate_tripartite(sc: TripartiteScenario) -> TripartiteReport:
    """Run both observers' projective measurements on the realized state.

    Alice projects S_A onto its basis and traces out S_B (and vice versa);
    averaging her post-selected per-outcome states recovers rho_a.  The
    observer who sees both outcomes keeps only matched results ``n = m`` and
    holds sigma after averaging them with their joint probabilities.
    """
    psi3 = sc.psi.reshape(sc.dim_s, sc.dim_a, sc.dim_b)
    norm_sq = sc.norm_sq
    n_common = sc.n_common

    outcome_probs = np.zeros(n_common)
    alice_states = []
    a_accum = np.zeros((sc.dim_s, sc.dim_s), dtype=complex)
    a_weight = 0.0
    for n in range(n_common):
        block = psi3[:, n, :]  # amplitudes on S x S_B given Alice outcome n
        weight = float(np.vdot(block, block).real)
        outcome_probs[n] = weight / norm_sq
        term = block @ dagger(block)
        alice_states.append(term / weight)
        a_accum += term
        a_weight += weight

    b_accum = np.zeros((sc.dim_s, sc.dim_s), dtype=complex)
    b_weight = 0.0
    for m in range(n_common):
        block = psi3[:, :, m]
        b_accum += block @ dagger(block)
        b_weight += float(np.vdot(block, block).real)

    c_accum = np.zeros((sc.dim_s, sc.dim_s), dtype=complex)
    c_weight = 0.0
    for n in range(n_common):
        vec = psi3[:, n, n]
        c_accum += np.outer(vec, vec.conj())
        c_weight += float(np.vdot(vec, vec).real)

    predicted = (sc.sigma_eigvals + (1.0 - sc.alpha) / (sc.alpha * n_common)) / norm_sq
    return TripartiteReport(
        outcome_probs=outcome_probs,
        predicted_probs=predicted,
        alice_outcome_states=tuple(alice_states),
        rho_a_recovered=a_accum / a_weight,
        rho_b_recovered=b_accum / b_weight,
        charlie_state=c_accum / c_weight,
        norm_psi_sq=norm_sq,
    )


@dataclass(frozen=True)
class AmbiguityReport:
    """Two realizations of the same marginals with different pooled states."""

    reports: tuple  # one TripartiteReport per candidate sigma
    charlie_deviations: tuple  # trace distance of each Charlie state from its sigma
    distance: float  # trace distance between the two Charlie states


def realize_pair(rho_a, rho_b, sigma, alpha=None, beta=None):
    """Decompose both states around ``sigma``, then realize and simulate the scenario.

    ``alpha`` and ``beta`` default to half of ``max_common_weight``; returns
    ``(decomposition, alpha_max, beta_max, report)``.
    """
    a_max = max_common_weight(rho_a, sigma)
    b_max = max_common_weight(rho_b, sigma)
    if a_max <= 0.0 or b_max <= 0.0:
        raise AmbiguityPreconditionError(
            "sigma is not absorbable into both states (zero admissible weight)"
        )
    # Half the admissible maximum keeps the remainders well conditioned.
    alpha = a_max / 2.0 if alpha is None else alpha
    beta = b_max / 2.0 if beta is None else beta
    dec = decompose_common(rho_a, rho_b, sigma, alpha, beta)
    return dec, a_max, b_max, simulate_tripartite(realize_tripartite(dec))


def demonstrate_ambiguity(rho_a, rho_b, sigma_1, sigma_2) -> AmbiguityReport:
    """Realize the same pair of marginals around two different common states.

    Both candidate states must be supported inside the intersection of the
    two supports; the report carries the trace distance between the two
    resulting pooled states.
    """
    consistent, intersection = check_consistency(rho_a, rho_b)
    if not consistent:
        raise AmbiguityPreconditionError("the states' supports do not intersect")
    proj = intersection.projector()
    reports = []
    deviations = []
    for label, sigma in (("sigma_1", sigma_1), ("sigma_2", sigma_2)):
        sig = ensure_density_matrix(sigma, name=label)
        leak = float(np.trace(sig).real - np.trace(proj @ sig @ proj).real)
        if leak > TOL_RANK:
            raise AmbiguityPreconditionError(
                f"{label} has weight {leak:.3e} outside the support intersection"
            )
        report = realize_pair(rho_a, rho_b, sig)[-1]
        reports.append(report)
        deviations.append(trace_distance(report.charlie_state, sig))
    return AmbiguityReport(
        reports=tuple(reports),
        charlie_deviations=tuple(deviations),
        distance=trace_distance(reports[0].charlie_state, reports[1].charlie_state),
    )


DEFAULT_FAMILY = "haar-pure-intersection"


@dataclass(frozen=True)
class HistoryMeasureConfig:
    """An exploratory measure over the measurement histories behind a pair.

    The default family draws the common state uniformly (invariant measure)
    from the pure states of the support intersection and weights each draw
    by the probability that both observers land on matched outcomes in the
    realized scenario.  No canonical measure is claimed; results are labeled
    exploratory.
    """

    n_samples: int
    seed: int = 0
    family: str = DEFAULT_FAMILY
    weight_exponent: float = 1.0

    def __post_init__(self):
        if int(self.n_samples) < 1:
            raise ConfigError("n_samples must be at least 1")
        if self.family != DEFAULT_FAMILY:
            raise ConfigError(f"unknown measure family {self.family!r}; known: {DEFAULT_FAMILY!r}")


def _support_pinv(rho: np.ndarray) -> np.ndarray:
    lam, basis = support_cutoff(*hermitian_eig(rho), TOL_RANK)
    return (basis / lam) @ dagger(basis)


def averaged_fusion(rho_a, rho_b, cfg: HistoryMeasureConfig) -> np.ndarray:
    """Monte-Carlo average of pooled states over the configured measure family.

    Deterministic for a fixed seed (single stream, fixed reduction order).
    The support of the result lies inside the intersection of the supports.
    """
    consistent, intersection = check_consistency(rho_a, rho_b)
    if not consistent:
        raise InconsistentStatesError("cannot fuse states with disjoint supports")
    a = ensure_density_matrix(rho_a)
    b = ensure_density_matrix(rho_b)

    rng = np.random.default_rng(cfg.seed)
    local = sample_amplitudes(intersection.dimension, int(cfg.n_samples), rng)
    states = local @ intersection.basis.T  # rows are ambient pure states

    pinv_a = _support_pinv(a)
    pinv_b = _support_pinv(b)
    # For a pure common state, the admissible maximum weight is the inverse
    # of the quadratic form of the support pseudo-inverse.
    alpha = 0.5 / np.einsum("nd,dc,nc->n", states.conj(), pinv_a, states).real
    beta = 0.5 / np.einsum("nd,dc,nc->n", states.conj(), pinv_b, states).real
    norm_sq = 1.0 + (1.0 - alpha) / alpha + (1.0 - beta) / beta
    weights = (1.0 / norm_sq) ** cfg.weight_exponent
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ImpossibleOutcomeError(
            f"fusion weights sum to {float(total)!r} at weight_exponent {cfg.weight_exponent!r}"
        )

    fused = (states.T * weights) @ states.conj() / total
    return (fused + dagger(fused)) / 2
