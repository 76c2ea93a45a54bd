"""Exception hierarchy shared by all qpool modules."""


class QpoolError(Exception):
    """Base class for all qpool errors."""


class ShapeError(QpoolError, ValueError):
    """Matrix or vector dimensions do not match the operation's contract."""


class HermiticityError(QpoolError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class PositivityError(QpoolError, ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotNormalizedError(QpoolError, ValueError):
    """A density matrix, or a set of weights, does not sum to 1 within tolerance."""


class IncompleteMeasurementError(QpoolError, ValueError):
    """Measurement operators do not satisfy sum M^dag M = I within tolerance."""


class NonFiniteError(QpoolError, ValueError):
    """A matrix has a NaN or infinite entry."""


class ImpossibleOutcomeError(QpoolError, ValueError):
    """Conditioning on an outcome whose probability is zero, or that does not exist."""


class IncompatibleKnowledgeError(QpoolError, ValueError):
    """Two states of knowledge cannot be pooled (zero normalizer)."""


class NoncommutingError(QpoolError, ValueError):
    """The commuting-density pooling rule was applied to non-commuting states."""


class DegenerateConstructionError(QpoolError, ValueError):
    """The tripartite realization needs strictly positive common-term weights."""


class AmbiguityPreconditionError(QpoolError, ValueError):
    """A candidate common state escapes the intersection of the supports."""


class InconsistentStatesError(QpoolError, ValueError):
    """The states' supports do not intersect; no joint state of knowledge exists."""


class SingularConstraintError(QpoolError, ValueError):
    """The effect-matching constraint has a vanishing denominator."""


class InvalidEffectError(QpoolError, ValueError):
    """An effect is not below the identity, or a diagonal effect parameter is outside [0, 1]."""


class DimensionGuardError(QpoolError, ValueError):
    """A requested tensor power exceeds the dense-matrix size guard."""


class ConfigError(QpoolError, ValueError):
    """A scenario configuration failed validation."""
