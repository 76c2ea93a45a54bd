"""Generalized measurements and multi-observer measurement histories.

A history is a chronological list of measurement steps, each owned by one
observer (``alice``, ``bob``, or ``eve``).  Each owner's outcome record is
one composite index (``i``, ``j``, ``e``), packed mixed-radix with the
owner's earliest step as the most significant digit; operators compose
newest-on-the-left, ``M_last @ ... @ M_first``.

An observer's conditional state fixes the indices that observer knows and
averages over the rest.  ``conditional_state`` and ``outcome_probability``
propagate rho_0 through the steps in time order (instruments compose as
channels): a step whose digit is known applies that one operator, any
other step its channel ``sum_k M_k rho M_k^dag``.  That is one stacked
``np.matmul`` per step, O(sum_k n_k x d^3) for ``n_k`` outcomes at step k.

``flatten_history`` builds the paper's explicit family instead, one
operator per joint outcome in O(prod_k n_k x d^3) time and memory; it is
the reference the propagation is tested against, not the run path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, ShapeError
from .linalg import (
    as_square_matrix,
    completeness_residual,
    dagger,
    ensure_density_matrix,
    ensure_effect,
    psd_root,
    require_complete,
)

OWNERS = ("alice", "bob", "eve")


def _stack_family(mats: list, what: str) -> np.ndarray:
    """A family's matrices as one read-only ``(n, d, d)`` array, under the family's shape rules."""
    if not mats:
        raise ShapeError(f"a measurement needs at least one of its {what}")
    if any(m.shape != mats[0].shape for m in mats):
        raise ShapeError(f"all {what} must share one dimension")
    ops = np.stack(mats)
    ops.setflags(write=False)
    return ops


@dataclass(frozen=True)
class KrausPovm:
    """Measurement operators ``M_i`` with ``sum M_i^dag M_i = I``.

    ``from_effects`` builds the operators ``M_i = sqrt(E_i)``, which lose
    nothing about the information-gathering itself; any other operators
    ``U_i sqrt(E_i)`` are passed to the constructor as they are.

    The constructor copies the operators into one complex ``(n, d, d)`` stack
    and decides each rule once, on the whole stack: three axes, square, at
    least one operator, finite, then complete.  Only a stack that fails one
    of the shape or finiteness rules is taken apart again, operator by
    operator, so that the rejection names the first operator at fault as
    ``as_square_matrix`` words it.
    """

    ops: np.ndarray = field(repr=False)  # shape (n_outcomes, dim, dim), read-only

    def __post_init__(self):
        try:
            ops = np.array(self.ops, dtype=complex)
        except (TypeError, ValueError):  # ragged, or entries that are not numbers
            ops = np.empty(0)
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or not ops.size or not np.isfinite(ops).all():
            checked = [as_square_matrix(m, name=f"operator {k}") for k, m in enumerate(self.ops)]
            ops = _stack_family(checked, "operators")
        ops.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails the rule
            total = (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)
            require_complete(completeness_residual(total), "operators")
        object.__setattr__(self, "ops", ops)

    @classmethod
    def from_effects(cls, effects: Sequence) -> "KrausPovm":
        """The operators ``sqrt(E_i)`` of a complete family of effects.

        Each effect passes the effect rule, and completeness is decided once,
        on the effects themselves.  The roots are not judged again:
        ``psd_root`` clips eigenvalues in [-TOL_PSD, 0) to 0, and the clipped
        parts add up across effects.
        """
        checked = [ensure_effect(e, name=f"effect {k}") for k, e in enumerate(effects)]
        effects = _stack_family([e for e, _, _ in checked], "effects")
        require_complete(completeness_residual(effects.sum(axis=0)), "effects")
        povm = cls.__new__(cls)
        roots = [psd_root(vals, vecs) for _, vals, vecs in checked]
        object.__setattr__(povm, "ops", _stack_family(roots, "operators"))
        return povm

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.ops.shape[0]


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

    def _size(self, owner: str) -> int:
        """The owner's composite outcome count: the product of its steps' counts."""
        return math.prod(p.n_outcomes for o, p in self.steps if o == owner)

    i_max = property(lambda self: self._size("alice"))
    j_max = property(lambda self: self._size("bob"))
    e_max = property(lambda self: self._size("eve"))

    def completeness_residual(self) -> float:
        """The flat family's residual: dual channels applied to I, last step first."""
        total = np.eye(self.dim, dtype=complex)
        for _, povm in reversed(self.steps):
            total = (povm.ops.conj().transpose(0, 2, 1) @ total @ povm.ops).sum(axis=0)
        return completeness_residual(total)


@dataclass(frozen=True)
class FlatPovm:
    """A whole history as one operator family indexed by (i, j, e).

    ``i`` is Alice's composite outcome, ``j`` Bob's, ``e`` Eve's;
    ``ops[i, j, e]`` is the product operator for that joint outcome.
    """

    ops: np.ndarray = field(repr=False)  # shape (i_max, j_max, e_max, dim, dim)

    def __post_init__(self):
        ops = np.asarray(self.ops, dtype=complex)
        if ops.ndim != 5 or ops.shape[-1] != ops.shape[-2]:
            raise ShapeError("ops must have shape (i_max, j_max, e_max, dim, dim)")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        require_complete(self.completeness_residual(), "flattened operators")

    @property
    def dim(self) -> int:
        return self.ops.shape[-1]

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


def flatten_history(history: MeasurementHistory) -> FlatPovm:
    """Collapse a history into the two-index (plus Eve) operator family.

    One stacked ``np.matmul`` per step left-multiplies every running product
    by every operator of the step; the new outcome axis becomes the least
    significant digit of its owner's index.
    """
    dim = history.dim
    ops = np.eye(dim, dtype=complex).reshape(1, 1, 1, dim, dim)
    for owner, povm in history.steps:
        axis = OWNERS.index(owner)
        grown = np.matmul(povm.ops[:, None, None, None], ops[None])
        shape = list(ops.shape)
        shape[axis] *= povm.n_outcomes
        ops = np.moveaxis(grown, 0, axis + 1).reshape(shape)
    # Adding 0.0 turns -0.0 into +0.0 and changes nothing else: an exactly
    # zero entry is always stored as +0.0, so its sign cannot reach a report.
    return FlatPovm(ops + 0.0)


_INDEX_OWNERS = {"i": "alice", "j": "bob", "e": "eve"}


def _propagate(history: MeasurementHistory, known: Mapping[str, int], initial_state) -> np.ndarray:
    """Unnormalized state after the history; its trace is the assignment's probability.

    Each known index splits into its owner's per-step digits; a step with a
    known digit applies ``M rho M^dag``, any other ``sum_k M_k rho M_k^dag``.
    """
    if initial_state is None:
        rho = np.eye(history.dim, dtype=complex) / history.dim
    else:
        rho = ensure_density_matrix(initial_state, name="initial_state")[0]
        if rho.shape[0] != history.dim:
            raise ShapeError(f"initial_state dim {rho.shape[0]} != history dim {history.dim}")
    for key in known:
        if key not in _INDEX_OWNERS:
            raise ShapeError(f"unknown index name {key!r} (expected 'i', 'j', 'e')")
    digits = {}
    for key, owner in _INDEX_OWNERS.items():
        if known.get(key) is None:
            continue
        val = int(known[key])
        size = history._size(owner)
        if not 0 <= val < size:
            raise ImpossibleOutcomeError(f"index {key}={val} out of range 0..{size - 1}")
        for k in reversed([k for k, (o, _) in enumerate(history.steps) if o == owner]):
            val, digits[k] = divmod(val, history.steps[k][1].n_outcomes)
    for k, (_, povm) in enumerate(history.steps):
        ops = povm.ops if k not in digits else povm.ops[digits[k] : digits[k] + 1]
        rho = (ops @ rho @ ops.conj().transpose(0, 2, 1)).sum(axis=0)
    return rho


def outcome_probability(history: MeasurementHistory, known: Mapping[str, int], initial_state=None) -> float:
    """Total probability of a partial assignment of the composite indices."""
    return float(np.trace(_propagate(history, known, initial_state)).real)


def conditional_state(
    history: MeasurementHistory,
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
    return condition(history, known, initial_state=initial_state)[0]


def condition(history: MeasurementHistory, known: Mapping[str, int] | None = None, *, initial_state=None):
    """``(conditional_state, probability)`` of the assignment ``known``, from one propagation."""
    known = dict(known or {})
    unnorm = _propagate(history, known, initial_state)
    total = float(np.trace(unnorm).real)
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"assignment {known} has zero probability")
    out = unnorm / total
    return (out + dagger(out)) / 2, total
