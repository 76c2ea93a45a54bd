"""Generalized measurements and multi-observer measurement histories.

A history is a chronological list of measurement steps, each owned by one
observer (``alice``, ``bob``, or ``eve``).  Flattening collapses the whole
history into a single operator family indexed by one composite outcome per
owner, after which any observer's conditional state is a sum over the
composite indices that observer cannot see.

Ordering conventions (fixed so results are reproducible bit-exactly):

* the step list is chronological, and flattening multiplies the chosen
  operators newest-on-the-left: ``op = M_last @ ... @ M_first``;
* composite outcome indices pack mixed-radix with the owner's earliest
  step as the most significant digit.

Flattening walks the steps, not the joint outcomes: each step extends every
running product at once with one stacked ``np.matmul``, so a history costs
O(joint outcomes x d^3) arithmetic and one ``matmul`` call per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, InvalidEffectError, QpoolError, ShapeError
from .linalg import (
    TOL_PSD,
    as_square_matrix,
    completeness_residual,
    dagger,
    ensure_density_matrix,
    ensure_hermitian,
    matrix_sqrt_psd,
    require_complete,
    require_psd,
)

OWNERS = ("alice", "bob", "eve")


def _check_effect_spectrum(vals: np.ndarray, name: str) -> None:
    """The effect rules on an ascending spectrum: PSD, and no eigenvalue above 1 + TOL_PSD."""
    require_psd(float(vals[0]), float(vals[-1]), name)
    if float(vals[-1]) > 1.0 + TOL_PSD:
        raise InvalidEffectError(f"{name} has eigenvalue {vals[-1]:.6f} > 1")


def ensure_effect(mat, *, name: str = "effect") -> np.ndarray:
    """Validate an effect: Hermitian, PSD, eigenvalues at most 1 + TOL_PSD."""
    arr = ensure_hermitian(mat, name=name)
    _check_effect_spectrum(np.linalg.eigvalsh(arr), name)
    return arr


def _require_complete_family(effects, what: str) -> None:
    """Shape and completeness rules for effects, or for the ``M^dag M`` of Kraus operators."""
    if not effects:
        raise ShapeError(f"a measurement needs at least one of its {what}")
    dim = effects[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for e in effects:
        if e.shape[0] != dim:
            raise ShapeError(f"all {what} must share one dimension")
        total += e
    require_complete(completeness_residual(total), what)


@dataclass(frozen=True)
class Povm:
    """A complete set of effects: sum of effects equals the identity."""

    effects: tuple

    def __post_init__(self):
        effects = tuple(ensure_effect(e, name=f"effect {k}") for k, e in enumerate(self.effects))
        _require_complete_family(effects, "effects")
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class KrausPovm:
    """Measurement operators ``M_i`` with ``sum M_i^dag M_i = I``.

    ``from_effects`` builds the default operators ``M_i = U_i sqrt(E_i)``;
    the per-outcome unitaries default to the identity, which loses nothing
    about the information-gathering itself.
    """

    ops: tuple

    def __post_init__(self):
        ops = tuple(as_square_matrix(m, name=f"operator {k}") for k, m in enumerate(self.ops))
        _require_complete_family([dagger(m) @ m for m in ops], "operators")
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_effects(cls, effects: Sequence, unitaries: Sequence | None = None) -> "KrausPovm":
        mats = [ensure_effect(e, name=f"effect {k}") for k, e in enumerate(effects)]
        roots = [matrix_sqrt_psd(e) for e in mats]
        if unitaries is not None:
            if len(unitaries) != len(roots):
                raise ShapeError("one unitary per outcome is required")
            roots = [as_square_matrix(u) @ r for u, r in zip(unitaries, roots)]
        return cls(tuple(roots))

    @classmethod
    def projective(cls, basis: np.ndarray) -> "KrausPovm":
        """Rank-1 projective measurement onto the columns of ``basis``."""
        b = np.asarray(basis, dtype=complex)
        return cls(tuple(np.outer(b[:, k], b[:, k].conj()) for k in range(b.shape[1])))

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class MeasurementHistory:
    """Chronological, owner-tagged sequence of generalized measurements."""

    steps: tuple  # of (owner, KrausPovm)

    def __post_init__(self):
        steps = []
        for k, (owner, povm) in enumerate(self.steps):
            owner = str(owner).lower()
            if owner not in OWNERS:
                raise ShapeError(f"step {k}: unknown owner {owner!r} (expected one of {OWNERS})")
            if not isinstance(povm, KrausPovm):
                povm = KrausPovm(tuple(povm))
            steps.append((owner, povm))
        if not steps:
            raise ShapeError("a history needs at least one step")
        dim = steps[0][1].dim
        if any(p.dim != dim for _, p in steps):
            raise ShapeError("all steps must act on the same dimension")
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def dim(self) -> int:
        return self.steps[0][1].dim


@dataclass(frozen=True)
class FlatPovm:
    """A whole history as one operator family indexed by (i, j, e).

    ``i`` is Alice's composite outcome, ``j`` Bob's, ``e`` Eve's;
    ``ops[i, j, e]`` is the product operator for that joint outcome.
    """

    dim: int
    ops: np.ndarray = field(repr=False)  # shape (i_max, j_max, e_max, dim, dim)

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 5 or ops.shape[-2:] != (self.dim, self.dim):
            raise ShapeError(f"ops must have shape (i_max, j_max, e_max, {self.dim}, {self.dim})")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        require_complete(self.completeness_residual(), "flattened operators")

    @property
    def i_max(self) -> int:
        return self.ops.shape[0]

    @property
    def j_max(self) -> int:
        return self.ops.shape[1]

    @property
    def e_max(self) -> int:
        return self.ops.shape[2]

    def completeness_residual(self) -> float:
        return completeness_residual(np.einsum("ijeab,ijeac->bc", self.ops.conj(), self.ops))


def measurement_update(rho, op: KrausPovm, outcome: int):
    """Post-measurement state and probability for one outcome of ``op``.

    Returns ``(M rho M^dag / p, p)`` with ``p = Tr[M^dag M rho]``.
    """
    rho = ensure_density_matrix(rho)
    m = op.ops[int(outcome)]
    if m.shape[0] != rho.shape[0]:
        raise ShapeError(f"operator dim {m.shape[0]} != state dim {rho.shape[0]}")
    prob = float(np.trace(dagger(m) @ m @ rho).real)
    if prob <= 0.0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero probability")
    post = m @ rho @ dagger(m) / prob
    return (post + dagger(post)) / 2, prob


def flatten_history(history: MeasurementHistory) -> FlatPovm:
    """Collapse a history into the two-index (plus Eve) operator family.

    For each joint choice of per-step outcomes the flattened operator is the
    chronological product with the latest step leftmost.  Each owner's
    composite index runs over the mixed-radix product of that owner's
    per-step outcome counts, earliest step most significant, so
    ``i_max = prod_k i_k_max`` and likewise for ``j`` and ``e``.

    The products are built step by step in time order: one stacked
    ``np.matmul`` left-multiplies every running product by every operator of
    the step, and the new outcome axis becomes the least significant digit of
    its owner's index.  The cost is O(joint outcomes x d^3) in one ``matmul``
    per step, with no Python loop over outcomes.
    """
    dim = history.dim
    ops = np.eye(dim, dtype=complex).reshape(1, 1, 1, dim, dim)
    for owner, povm in history.steps:
        axis = OWNERS.index(owner)
        grown = np.matmul(np.stack(povm.ops)[:, None, None, None], ops[None])
        shape = list(ops.shape)
        shape[axis] *= povm.n_outcomes
        ops = np.moveaxis(grown, 0, axis + 1).reshape(shape)
    # Adding 0.0 turns -0.0 into +0.0 and changes nothing else: an exactly
    # zero entry is always stored as +0.0, so its sign cannot reach a report.
    return FlatPovm(dim, ops + 0.0)


_INDEX_AXES = {"i": 0, "j": 1, "e": 2}


def _select_known(flat: FlatPovm, known: Mapping[str, int]) -> np.ndarray:
    ops = flat.ops
    for key in known:
        if key not in _INDEX_AXES:
            raise ShapeError(f"unknown index name {key!r} (expected 'i', 'j', 'e')")
    index = [slice(None)] * 3
    for key, axis in _INDEX_AXES.items():
        if key in known and known[key] is not None:
            val = int(known[key])
            if not 0 <= val < ops.shape[axis]:
                raise ImpossibleOutcomeError(f"index {key}={val} out of range 0..{ops.shape[axis] - 1}")
            index[axis] = slice(val, val + 1)
    return ops[tuple(index)]


def outcome_probability(flat: FlatPovm, known: Mapping[str, int], initial_state=None) -> float:
    """Total probability of a partial assignment of the composite indices."""
    rho0 = _initial_state(flat, initial_state)
    sel = _select_known(flat, known)
    return float(np.einsum("ijeab,bc,ijeac->", sel.conj(), rho0, sel).real)


def _initial_state(flat: FlatPovm, initial_state) -> np.ndarray:
    if initial_state is None:
        return np.eye(flat.dim, dtype=complex) / flat.dim
    return ensure_density_matrix(initial_state, name="initial_state")


def conditional_state(
    flat: FlatPovm,
    known: Mapping[str, int] | None = None,
    *,
    initial_state=None,
) -> np.ndarray:
    """State of knowledge of an observer who knows the indices in ``known``.

    Unassigned indices are averaged over.  Alice's state fixes only ``i``,
    Bob's only ``j``, and an observer holding both outcome records fixes
    ``i`` and ``j``; Eve's index ``e`` stays unassigned for all of them.
    The pre-measurement state is maximally mixed (the observers share no
    prior information); ``initial_state`` overrides that for uses outside
    this setting.
    """
    known = dict(known or {})
    rho0 = _initial_state(flat, initial_state)
    sel = _select_known(flat, known)
    unnorm = np.einsum("ijeab,bc,ijedc->ad", sel, rho0, sel.conj())
    total = float(np.trace(unnorm).real)
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"assignment {known} has zero probability")
    out = unnorm / total
    return (out + dagger(out)) / 2


@dataclass(frozen=True)
class PovmReport:
    """Validation summary for a POVM or Kraus family."""

    completeness_residual: float
    psd_margins: tuple  # per effect: min eigenvalue relative to max(1, lam_max)
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_povm(povm) -> PovmReport:
    """Apply the constructor's rules and report the failures instead of raising.

    Effects (a ``Povm`` or a sequence of matrices) get the rules of ``Povm``, a
    ``KrausPovm`` its own: completeness of ``sum M^dag M``.
    """
    kraus = isinstance(povm, KrausPovm)
    if kraus:
        effects = [dagger(m) @ m for m in povm.ops]
    elif isinstance(povm, Povm):
        effects = list(povm.effects)
    else:
        effects = [as_square_matrix(e, name=f"effect {k}") for k, e in enumerate(povm)]
    dim = effects[0].shape[0]
    failures = []
    margins = []

    def record(check, *args, **kwargs):
        try:
            check(*args, **kwargs)
        except QpoolError as exc:
            failures.append(str(exc))

    total = np.zeros((dim, dim), dtype=complex)
    for k, e in enumerate(effects):
        name = f"effect {k}"
        if e.shape != (dim, dim):
            failures.append(f"{name}: shape {e.shape} != ({dim}, {dim})")
            continue
        sym = (e + dagger(e)) / 2
        vals = np.linalg.eigvalsh(sym)
        margins.append(float(vals[0]) / max(1.0, float(vals[-1])))
        if not kraus:
            record(ensure_hermitian, e, name=name)
            record(_check_effect_spectrum, vals, name)
            e = sym
        total += e
    residual = completeness_residual(total)
    record(require_complete, residual, "effects")
    return PovmReport(residual, tuple(margins), tuple(failures))
