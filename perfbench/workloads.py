"""Seeded scenario-config generators, one per benchmark workload.

Each workload is an endless stream of *blocks*.  A block stratifies the
property that sets an operation's cost (joint outcomes, dimension and kind,
effect counts), so every block covers the whole range evenly and two seeds
give the same mix of costs with different matrices and effects.  With ten
strata a block's p50 and p90 fall on stratum boundaries, which keeps those
percentiles steady from seed to seed.  Where a second property sets the
cost too (dimension, sample count, the other observer's effects), it
rotates over the strata from block to block.  Runs stop after whole
rotation periods, so the mix inside a run does not depend on when the clock
runs out.  qpool only ever sees the generated configs.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

HISTORY_BLOCK = 10
HISTORY_DIMS = (2, 3, 4)
REALIZATION_KINDS = ("consistency", "realize", "ambiguity", "fuse")
REALIZATION_DIMS = (2, 4, 8, 16)
FUSE_SAMPLES = (10_000, 21_544, 46_416, 100_000)
MC_SAMPLES = (20_000, 29_907, 44_721, 66_874, 100_000)
POSTERIOR_STRATA = 10
# Effects per observer are capped so that the pooled posterior has at most
# 2 x MAX_EFFECTS factors.  qpool's float "exact" path expands it in the
# monomial basis, which cancels catastrophically as the degree grows: over
# 5000 random pairs its worst error was 1.5e-11 at 24 combined effects,
# 1.1e-8 at 40, and from about 45 it returns wrong predictive states or
# raises.  A benchmark operation must not fail, so the draw stays where the
# answer is right with a wide margin below the oracle's 1e-9 tolerance.
MAX_EFFECTS = 12


def literal(mat: np.ndarray) -> list:
    """Complex matrix -> nested [re, im] rows, floats kept exact."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kraus_family(rng: np.random.Generator, dim: int, outcomes: int) -> list:
    """Random isometry cut into ``outcomes`` square blocks: sum M^dag M = I."""
    q, _ = np.linalg.qr(_ginibre(rng, outcomes * dim, dim))
    return [q[k * dim : (k + 1) * dim] for k in range(outcomes)]


def density(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Full-rank state on the span of ``basis`` columns, eigenvalues >= 1/(2 rank)."""
    rank = basis.shape[1]
    probs = 0.5 / rank + 0.5 * rng.dirichlet(np.ones(rank))
    vecs = basis @ unitary(rng, rank)
    rho = (vecs * probs) @ vecs.conj().T
    return (rho + rho.conj().T) / 2


def _strata(rng: np.random.Generator, n: int):
    """Shuffled stratum indices and one uniform draw in each of ``n`` equal strata of [0, 1)."""
    index = rng.permutation(n)
    return index, (index + rng.uniform(size=n)) / n


def _balanced(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.permutation(np.arange(n) < n // 2)


# --- histories -------------------------------------------------------------


def history_block(rng: np.random.Generator, rotation: int) -> list:
    """Random ``history`` configs.

    Why: the per-outcome Python loop in ``flatten_history`` does almost all
    the work while ``estimation``, ``fusion`` and ``haar`` sit idle.  Half
    the configs carry Eve steps, so the ``e`` axis of the flattened family is
    1 in one half and large in the other.  Targets for the number of joint
    outcomes are log-uniform over 1e2..10**3.5, one per stratum; the last
    step's outcome count is the one that lands closest to the target.
    Dimensions 2..4 rotate over the strata from block to block.  The top is
    10**3.5 rather than 1e4 because a config near 1e4 takes about half a
    second, and a pass over a run's configs must leave most of the run for
    the repeated timings that make p50 and p90 steady; the size sweep of the
    traced run still times ``flatten_history`` at 4096 joint outcomes.
    """
    block = []
    strata, draws = _strata(rng, HISTORY_BLOCK)
    for stratum, u, eve in zip(strata, draws, _balanced(rng, HISTORY_BLOCK)):
        target = 10.0 ** (2.0 + 1.5 * u)
        dim = HISTORY_DIMS[(stratum + rotation) % len(HISTORY_DIMS)]
        owners = ["alice", "bob", "eve"] if eve else ["alice", "bob"]
        order = list(rng.permutation(owners))
        steps, joint = [], 1
        while len(steps) < len(order) or joint < target / 1.5:
            owner = order[len(steps)] if len(steps) < len(order) else owners[rng.integers(len(owners))]
            outcomes = int(rng.integers(2, 4))
            if joint * 3 >= target / 1.5:
                outcomes = min((2, 3), key=lambda k: abs(math.log(joint * k / target)))
            steps.append({"owner": str(owner), "kraus": [literal(m) for m in kraus_family(rng, dim, outcomes)]})
            joint *= outcomes
        sizes = {o: 1 for o in ("alice", "bob")}
        for step in steps:
            if step["owner"] in sizes:
                sizes[step["owner"]] *= len(step["kraus"])
        pattern = ("i", "j", "ij")[rng.integers(3)]
        known = {}
        if "i" in pattern:
            known["i"] = int(rng.integers(sizes["alice"]))
        if "j" in pattern:
            known["j"] = int(rng.integers(sizes["bob"]))
        cfg = {"kind": "history", "seed": int(rng.integers(2**31)), "payload": {"steps": steps, "known": known}}
        block.append((cfg, None))
    return block


def history_traffic(ops: list) -> dict:
    configs = [cfg for cfg, _ in ops]
    joint = [math.prod(len(s["kraus"]) for s in c["payload"]["steps"]) for c in configs]
    return {
        "eve_share": _share(any(s["owner"] == "eve" for s in c["payload"]["steps"]) for c in configs),
        "known_mix": _mix("".join(sorted(c["payload"]["known"])) for c in configs),
        "dimension_histogram": _mix(len(c["payload"]["steps"][0]["kraus"][0]) for c in configs),
        "joint_outcomes_histogram_log10": _mix(f"{math.floor(2 * math.log10(n)) / 2:.1f}" for n in joint),
    }


# --- realizations ----------------------------------------------------------


def _consistent_pair(rng: np.random.Generator, dim: int, min_common: int, common: int | None = None):
    """Two states whose supports meet in a subspace of known dimension.

    Orthonormal columns of one random unitary split into a shared block and
    two private blocks, so the intersection is exactly the shared block.
    Its dimension is ``common`` if given, else uniform over min_common..dim.
    """
    if common is None:
        common = int(rng.integers(min_common, dim + 1))
    rank_a = int(rng.integers(common, dim + 1))
    rank_b = int(rng.integers(common, dim - (rank_a - common) + 1))
    u = unitary(rng, dim)
    shared = u[:, :common]
    only_a = u[:, common:rank_a]
    only_b = u[:, rank_a : rank_a + rank_b - common]
    rho_a = density(rng, np.hstack([shared, only_a]))
    rho_b = density(rng, np.hstack([shared, only_b]))
    return rho_a, rho_b, shared


def realization_block(rng: np.random.Generator, rotation: int) -> list:
    """Random consistent pairs with known ranks and intersection dimension.

    Why: the work is in ``linalg`` rank decisions, the ``fusion``
    construction, ``haar`` sampling and the handling of large matrix
    literals in ``config`` and ``reporting``, while ``measurement`` and
    ``estimation`` sit idle.  Every block holds each of the four kinds at
    each of the four dimensions once.  The deterministic kinds set p50 and
    the sampled ``fuse`` kind sets p90 and peak memory; its sample counts
    come from a log-spaced grid assigned to dimensions as a Latin square
    across blocks, so every four blocks pair each dimension with each count.
    Fusion samples live in the intersection, so its cost and memory grow
    with the intersection dimension; for ``fuse`` that is fixed at half the
    dimension, so that p90 and peak memory do not hang on one draw.
    """
    pairs = [(k, d) for k in range(4) for d in range(4)]
    block = []
    for index in rng.permutation(len(pairs)):
        k_index, d_index = pairs[index]
        kind, dim = REALIZATION_KINDS[k_index], REALIZATION_DIMS[d_index]
        common = max(1, dim // 2) if kind == "fuse" else None
        rho_a, rho_b, shared = _consistent_pair(rng, dim, 2 if kind == "ambiguity" else 1, common)
        payload = {"rho_a": literal(rho_a), "rho_b": literal(rho_b)}
        if kind == "realize":
            payload["sigma"] = literal(density(rng, shared))
        elif kind == "ambiguity":
            payload["sigma_1"] = literal(density(rng, shared))
            payload["sigma_2"] = literal(density(rng, shared))
        elif kind == "fuse":
            payload["n_samples"] = FUSE_SAMPLES[(d_index + rotation) % len(FUSE_SAMPLES)]
        cfg = {"kind": kind, "seed": int(rng.integers(2**31)), "payload": payload}
        block.append((cfg, shared))
    return block


def realization_traffic(ops: list) -> dict:
    configs = [cfg for cfg, _ in ops]
    return {
        "kind_mix": _mix(c["kind"] for c in configs),
        "dimension_histogram": _mix(len(c["payload"]["rho_a"]) for c in configs),
        "intersection_dimension_histogram": _mix(shared.shape[1] for _, shared in ops),
        "fuse_samples_histogram": _mix(c["payload"]["n_samples"] for c in configs if c["kind"] == "fuse"),
    }


# --- posteriors ------------------------------------------------------------


def _effect_count(u: float) -> int:
    return min(MAX_EFFECTS, max(1, int(round(math.exp(u * math.log(MAX_EFFECTS))))))


def posterior_block(rng: np.random.Generator, rotation: int) -> list:
    """Random ``estimate`` configs.

    Why: the exact polynomial path (``qubit_diagonal_posterior``,
    ``pooled_predictive``) and the Monte-Carlo path (``posterior_update``,
    ``predictive_state``, ``sample_amplitudes``) do the work while
    ``measurement``, ``fusion`` and ``linalg`` sit idle.  Effect counts per
    observer are log-uniform over 1..MAX_EFFECTS, where the exact float path
    is still right (see ``MAX_EFFECTS``).  A block has three groups of
    ``POSTERIOR_STRATA`` configs, and one of them carries ``mc_samples``
    from a log-spaced 20k..100k grid.  A Monte-Carlo config costs ten times
    an exact-only one, so with a third of them sampled p50 falls inside the
    exact-only configs and p90 inside the sampled ones, not on the step
    between the two.  Within each group the counts of both observers are
    stratified, and the stratum of ``effects_b`` is that of ``effects_a``
    shifted by the rotation (and by half a period in the second exact-only
    group), so every period pairs each two strata once per group: what the
    draws cost is then the same mix in every run.
    """
    block = []
    for mc, shift in ((True, 0), (False, 0), (False, POSTERIOR_STRATA // 2)):
        strata, draws_a = _strata(rng, POSTERIOR_STRATA)
        jitter_b = rng.uniform(size=POSTERIOR_STRATA)
        for stratum, u_a, j_b in zip(strata, draws_a, jitter_b):
            u_b = ((stratum + rotation + shift) % POSTERIOR_STRATA + j_b) / POSTERIOR_STRATA
            payload = {
                "effects_a": [round(float(x), 4) for x in rng.uniform(0.05, 0.95, _effect_count(u_a))],
                "effects_b": [round(float(x), 4) for x in rng.uniform(0.05, 0.95, _effect_count(u_b))],
            }
            if mc:
                payload["mc_samples"] = MC_SAMPLES[(stratum + rotation) % len(MC_SAMPLES)]
            block.append(({"kind": "estimate", "seed": int(rng.integers(2**31)), "payload": payload}, None))
    return [block[k] for k in rng.permutation(len(block))]


def posterior_traffic(ops: list) -> dict:
    payloads = [cfg["payload"] for cfg, _ in ops]
    return {
        "combined_effects_histogram": _mix(len(p["effects_a"]) + len(p["effects_b"]) for p in payloads),
        "mc_share": _share("mc_samples" in p for p in payloads),
        "effects_a_histogram_log10": _mix(f"{math.floor(2 * math.log10(len(p['effects_a']))) / 2:.1f}" for p in payloads),
    }


def _share(flags) -> dict:
    flags = list(flags)
    return {"share": sum(flags) / len(flags), "count": sum(flags), "base": len(flags)}


def _mix(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items(), key=lambda kv: str(kv[0]))}


class Workload:
    """A named, seeded stream of config blocks plus its traffic summary.

    ``period`` is the number of blocks after which every rotation has come
    full circle; runs stop on a multiple of it, so each run holds the same
    mix of costs.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self._block, self._traffic, self.period = _SPECS[name]
        self.rng = np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOADS.index(name)]))
        self.offset = int(self.rng.integers(60))
        self.blocks = 0

    def next_block(self) -> list:
        block = self._block(self.rng, self.blocks + self.offset)
        self.blocks += 1
        return block

    def traffic(self, ops: list) -> dict:
        return self._traffic(ops)


_SPECS = {
    "histories": (history_block, history_traffic, len(HISTORY_DIMS)),
    "realizations": (realization_block, realization_traffic, len(FUSE_SAMPLES)),
    "posteriors": (posterior_block, posterior_traffic, POSTERIOR_STRATA),
}
WORKLOADS = tuple(_SPECS)
