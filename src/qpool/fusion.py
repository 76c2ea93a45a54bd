"""Consistency and fusion of independently obtained quantum states of knowledge.

Two density matrices are consistent exactly when the supports intersect;
every such pair can be decomposed around a common term sigma, and a three-
system measurement scenario realizes the pair with sigma as the state held
by an observer who sees both outcome records.  Because sigma may be any
state supported inside the intersection, the pooled state is not fixed by
the two marginals alone; ``averaged_fusion`` explores one non-canonical
measure over the realizations, weighting each pure common state x in the
intersection basis, in log space, by the realized squared norm <x|M|x>.
It streams the samples in blocks of a fixed size into
``estimation._weighted_state``, the weighted sum that ``estimation``'s
ensembles are read out by, which keeps only a running real Gram matrix, so
its memory does not grow with the sample count.

Each public function validates its matrices with ``linalg.ensure_states``
into ``State``s that carry their eigenpairs and passes them on to the public
functions it builds on; ``ensure_states`` returns a ``State`` unchanged, so
no state is solved twice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguityPreconditionError,
    ConfigError,
    DegenerateConstructionError,
    InconsistentStatesError,
    PositivityError,
)
from .estimation import _block_rows, _weighted_state
from .haar import sample_amplitudes
from .linalg import (
    TOL_PSD,
    TOL_RANK,
    TOL_RECON,
    TOL_REMAINDER,
    TOL_TRACE,
    dagger,
    ensure_states,
    hermitian_eig,
    psd_ok,
    require_normalized,
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
    a, b = ensure_states(rho_a=rho_a, rho_b=rho_b)
    intersection = subspace_intersection(support(a, tol), support(b, tol), tol)
    return intersection.dimension >= 1, intersection


def max_common_weight(rho, sigma) -> float:
    """Largest weight alpha in [0, 1] such that rho - alpha * sigma stays PSD.

    Zero when the support of sigma is not contained in the support of rho.
    Computed from the largest eigenvalue of sigma congruence-transformed by
    the inverse square root of rho on its support.
    """
    (_, vals, vecs), (sigma, _, _) = ensure_states(rho=rho, sigma=sigma)
    lam, basis = support_cutoff(vals, vecs, TOL_RANK)
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
    kept = vals > TOL_REMAINDER
    return vals[kept], vecs[:, kept]


@dataclass(frozen=True)
class CommonTermDecomposition:
    """Both states written as a weighted common term plus pure remainders.

    ``rho_a = alpha * sigma + sum_k p_k |phi_k><phi_k|`` and likewise for B.
    Sigma's support and both remainders are eigenpairs ``(weights, columns)``,
    the form ``support_cutoff`` returns: ``sigma_support`` is ``(lam, V)``, the
    eigenpairs of the validated common state above its rank cutoff, and each
    remainder is ``(p, phi)``, the eigenpairs of ``rho - weight * sigma`` above
    ``TOL_REMAINDER``.  ``sigma`` is built from ``sigma_support`` once, as the
    read-only ``V diag(lam) V^dag``.  Its trace ``sum(lam)`` falls short of 1
    by sigma's eigenvalues below the rank cutoff, so ``weight * sum(lam) +
    sum(p)`` is the total that must be 1.
    """

    sigma_support: tuple = field(repr=False)  # (lam, phi), descending
    alpha: float
    beta: float
    remainder_a: tuple = field(repr=False)  # (p, phi), descending
    remainder_b: tuple = field(repr=False)
    sigma: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lam, phi = self.sigma_support
        sigma = (phi * lam) @ dagger(phi)
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        for label, weight, (p, _) in (
            ("alpha", self.alpha, self.remainder_a),
            ("beta", self.beta, self.remainder_b),
        ):
            if not 0.0 < weight <= 1.0:
                raise DegenerateConstructionError(f"{label} must lie in (0, 1], got {weight!r}")
            if np.any(p < 0):
                raise PositivityError("remainder weights must be nonnegative")
            total = weight * float(np.sum(lam)) + sum(p)
            require_normalized(total, TOL_TRACE, f"{label} * Tr sigma + remainder weights")

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def _reconstruct(self, weight: float, remainder) -> np.ndarray:
        p, phi = remainder
        return weight * self.sigma + (phi * p) @ dagger(phi)

    def reconstruct_a(self) -> np.ndarray:
        return self._reconstruct(self.alpha, self.remainder_a)

    def reconstruct_b(self) -> np.ndarray:
        return self._reconstruct(self.beta, self.remainder_b)


def decompose_common(rho_a, rho_b, sigma, alpha: float, beta: float) -> CommonTermDecomposition:
    """Decompose both states around the common term ``alpha/beta * sigma``.

    The common term is sigma's support part, the eigenpairs above its rank
    cutoff that ``realize_tripartite`` builds the realized state from, so the
    remainders, the reconstruction and the realization rest on one rank
    decision for sigma.  An eigenvalue of sigma below that cutoff would
    otherwise leave the remainders but not the realization.
    """
    a, b, sig = ensure_states(rho_a=rho_a, rho_b=rho_b, sigma=sigma)
    lam, phi = support_cutoff(sig.vals, sig.vecs, TOL_RANK)
    common = (phi * lam) @ dagger(phi)
    dec = CommonTermDecomposition(
        sigma_support=(lam, phi),
        alpha=float(alpha),
        beta=float(beta),
        remainder_a=_remainder_terms(a.rho, common, float(alpha), name="rho_a"),
        remainder_b=_remainder_terms(b.rho, common, float(beta), name="rho_b"),
    )
    for label, original, rebuilt in (
        ("rho_a", a.rho, dec.reconstruct_a()),
        ("rho_b", b.rho, dec.reconstruct_b()),
    ):
        if float(np.abs(original - rebuilt).max()) > TOL_RECON:
            raise PositivityError(f"{label} reconstruction drifted beyond {TOL_RECON:g}")
    return dec


def realize_tripartite(dec: CommonTermDecomposition) -> np.ndarray:
    """The three-system pure state ``psi`` whose local measurements realize ``dec``.

    ``psi`` is a read-only ``(dim_s, dim_a, dim_b)`` array on ``S (x) S_A (x) S_B``,
    with subsystem S most significant.  The auxiliary bases are the
    computational bases of S_A and S_B: index ``n < N`` carries the n-th
    eigenvector of sigma (N is the rank of sigma), and the remaining indices
    carry one remainder term each.  Three blocks with disjoint supports are
    written in place (``u`` is the uniform superposition of the first N
    auxiliary basis states):

    * ``psi[:, n, n] = sqrt(lam_n) |phi_n>`` for each eigenpair of sigma,
    * ``psi[:, :N, N+k] = sqrt(p_k / alpha) |phi_k^A>|u^A>`` for A-remainders,
    * ``psi[:, N+l, :N] = sqrt(p_l / beta) |phi_l^B>|u^B>`` for B-remainders.

    ``psi`` is unnormalized; its squared norm is ``1 + delta + (1-alpha)/alpha
    + (1-beta)/beta``, where ``delta`` is the weight of sigma's eigenvalues below
    its rank cutoff.  The weights are already in (0, 1], as
    ``CommonTermDecomposition`` requires.  Raises ``DegenerateConstructionError``
    for an empty support of sigma or a realized state whose squared norm is not
    finite (a weight so small that ``sqrt(p / weight)`` overflows).
    """
    lam, phi = dec.sigma_support
    (p_a, phi_a), (p_b, phi_b) = dec.remainder_a, dec.remainder_b
    n_common = int(lam.size)
    if n_common < 1:
        raise DegenerateConstructionError("sigma has empty support")

    uniform = 1.0 / np.sqrt(n_common)
    psi = np.zeros((dec.dim, n_common + p_b.size, n_common + p_a.size), dtype=complex)
    diag = np.arange(n_common)
    psi[:, diag, diag] = phi * np.sqrt(lam)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        psi[:, :n_common, n_common:] = (np.sqrt(p_a / dec.alpha) * (phi_a * uniform))[:, None, :]
        psi[:, n_common:, :n_common] = (np.sqrt(p_b / dec.beta) * (phi_b * uniform))[:, :, None]
    psi = psi + 0.0  # stores exact zeros as +0.0
    if not np.isfinite(np.vdot(psi, psi).real):
        raise DegenerateConstructionError("the realized state's squared norm is not finite")
    psi.setflags(write=False)
    return psi


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


def simulate_tripartite(dec: CommonTermDecomposition) -> TripartiteReport:
    """Realize ``dec`` and run both observers' projective measurements on ``psi``.

    One loop over the common outcomes ``n < N`` updates three accumulators:
    Alice projects S_A onto its basis and traces out S_B (Bob vice versa), and
    averaging their post-selected states recovers rho_a (rho_b); the observer
    who sees both keeps matched results ``n = m`` and so holds sigma.
    """
    psi = realize_tripartite(dec)  # looked up in the module at call time, where a tracer wraps it
    norm_sq = float(np.vdot(psi, psi).real)
    lam = dec.sigma_support[0]
    n_common = lam.size

    outcome_probs = np.zeros(n_common)
    alice_states = []
    a_accum, b_accum, c_accum = np.zeros((3, dec.dim, dec.dim), dtype=complex)
    a_weight = b_weight = c_weight = 0.0
    for n in range(n_common):
        block = psi[:, n, :]  # amplitudes on S x S_B given Alice outcome n
        weight = float(np.vdot(block, block).real)
        outcome_probs[n] = weight / norm_sq
        term = block @ dagger(block)
        alice_states.append(term / weight)
        a_accum += term
        a_weight += weight
        block = psi[:, :, n]  # amplitudes on S x S_A given Bob outcome n
        b_accum += block @ dagger(block)
        b_weight += float(np.vdot(block, block).real)
        vec = psi[:, n, n]  # amplitudes on S given matched outcomes
        c_accum += np.outer(vec, vec.conj())
        c_weight += float(np.vdot(vec, vec).real)

    predicted = (lam + (1.0 - dec.alpha) / (dec.alpha * n_common)) / norm_sq
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
    a, b, sig = ensure_states(rho_a=rho_a, rho_b=rho_b, sigma=sigma)
    a_max, b_max = max_common_weight(a, sig), max_common_weight(b, sig)
    if a_max <= 0.0 or b_max <= 0.0:
        raise AmbiguityPreconditionError(
            "sigma is not absorbable into both states (zero admissible weight)"
        )
    # Half the admissible maximum keeps the remainders well conditioned.
    alpha = a_max / 2.0 if alpha is None else alpha
    beta = b_max / 2.0 if beta is None else beta
    dec = decompose_common(a, b, sig, alpha, beta)
    return dec, a_max, b_max, simulate_tripartite(dec)


def demonstrate_ambiguity(rho_a, rho_b, sigma_1, sigma_2) -> AmbiguityReport:
    """Realize the same pair of marginals around two different common states.

    Both candidate states must be supported inside the intersection of the
    two supports; the report carries the trace distance between the two
    resulting pooled states.
    """
    a, b, *sigmas = ensure_states(rho_a=rho_a, rho_b=rho_b, sigma_1=sigma_1, sigma_2=sigma_2)
    consistent, intersection = check_consistency(a, b)
    if not consistent:
        raise AmbiguityPreconditionError("the states' supports do not intersect")
    proj = intersection.projector()
    for label, (sig, _, _) in zip(("sigma_1", "sigma_2"), sigmas):
        leak = float(np.trace(sig).real - np.trace(proj @ sig @ proj).real)
        if leak > TOL_RANK:
            raise AmbiguityPreconditionError(
                f"{label} has weight {leak:.3e} outside the support intersection"
            )
    reports = [realize_pair(a, b, sig)[-1] for sig in sigmas]
    return AmbiguityReport(
        reports=tuple(reports),
        charlie_deviations=tuple(trace_distance(r.charlie_state, s.rho) for r, s in zip(reports, sigmas)),
        distance=trace_distance(reports[0].charlie_state, reports[1].charlie_state),
    )


@dataclass(frozen=True)
class HistoryMeasureConfig:
    """An exploratory measure over the measurement histories behind a pair.

    The measure, named ``config.FUSE_FAMILY`` in reports, draws the common state
    uniformly (invariant measure) from the pure states of the support
    intersection and weights each draw by the probability that both
    observers land on matched outcomes in the realized scenario.  No
    canonical measure is claimed; results are labeled exploratory.
    """

    n_samples: int
    seed: int = 0
    weight_exponent: float = 1.0

    def __post_init__(self):
        if int(self.n_samples) < 1:
            raise ConfigError("n_samples must be at least 1")
        # An integer exponent beyond the float range acts as the infinity it rounds to.
        if abs(self.weight_exponent) > sys.float_info.max:
            object.__setattr__(self, "weight_exponent", np.inf if self.weight_exponent > 0 else -np.inf)


def averaged_fusion(rho_a, rho_b, cfg: HistoryMeasureConfig) -> np.ndarray:
    """Monte-Carlo average of pooled states over the configured measure.

    A sample is a unit vector x in the intersection basis B.  With C = (V^dag B) / sqrt(lam)
    from each state's support eigenpairs, the realized squared norm at half the admissible
    weights is <x|M|x> for M = -I + 2 (C_a^dag C_a + C_b^dag C_b).  Its -weight_exponent power,
    taken in log space relative to the largest so far, weighs the sample.

    The samples are streamed: one generator seeded with ``cfg.seed`` draws blocks of
    ``estimation._block_rows(k)`` rows in turn, which are the rows one draw of all
    ``n_samples`` would give, byte for byte.  The blocks and their log-weights go to
    ``estimation._weighted_state``, which sums them against a running top and reads the state
    out once, so memory does not grow with ``n_samples``.  The fixed block size sets the order
    of summation, so the result depends on it at the level of rounding.  Deterministic per seed.
    """
    a, b = ensure_states(rho_a=rho_a, rho_b=rho_b)
    consistent, intersection = check_consistency(a, b)
    if not consistent:
        raise InconsistentStatesError("cannot fuse states with disjoint supports")

    basis, k = intersection.basis, intersection.dimension
    quad = -np.eye(k)
    for lam, vecs in (support_cutoff(s.vals, s.vecs, TOL_RANK) for s in (a, b)):
        c = (dagger(vecs) @ basis) / np.sqrt(lam)[:, None]
        quad = quad + 2.0 * (dagger(c) @ c)
    # On interleaved (Re x, Im x) rows, M = A + iB acts as the real symmetric [[A, -B], [B, A]] per entry.
    real_quad = np.kron(quad.real, np.eye(2)) + np.kron(quad.imag, [[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(cfg.seed)
    n_samples, rows = int(cfg.n_samples), _block_rows(k)

    def blocks():  # an overflow of the log-weight gives -inf (weight 0) or an infinite top
        for start in range(0, n_samples, rows):
            parts = sample_amplitudes(k, min(rows, n_samples - start), rng).view(np.float64)
            yield parts, -cfg.weight_exponent * np.log(np.einsum("ij,ij->i", parts @ real_quad, parts))

    fused = basis @ _weighted_state(blocks(), f"exponent {cfg.weight_exponent!r}") @ dagger(basis)
    return (fused + dagger(fused)) / 2
