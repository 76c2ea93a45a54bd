"""Exception hierarchy shared by all qpool modules."""


class QpoolError(Exception):
    """Base class for all qpool errors."""


class ShapeError(QpoolError, ValueError):
    """Dimensions, sample counts, or history owner or index names break an operation's contract."""


class HermiticityError(QpoolError, ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


class PositivityError(QpoolError, ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotNormalizedError(QpoolError, ValueError):
    """A trace or a set of weights differs from 1, or a subspace basis is not orthonormal."""


class IncompleteMeasurementError(QpoolError, ValueError):
    """Measurement operators do not satisfy sum M^dag M = I within tolerance."""


class NonFiniteError(QpoolError, ValueError):
    """A matrix, distribution or subspace basis has an entry that is not a finite float."""


class ImpossibleOutcomeError(QpoolError, ValueError):
    """Conditioning on an outcome whose probability is zero, or that does not exist."""


class IncompatibleKnowledgeError(QpoolError, ValueError):
    """Two states of knowledge cannot be pooled (zero normalizer)."""


class NoncommutingError(QpoolError, ValueError):
    """A commuting-state rule got non-commuting states, or matrix Bayes a non-diagonal matrix."""


class DegenerateConstructionError(QpoolError, ValueError):
    """The tripartite realization needs strictly positive common-term weights."""


class AmbiguityPreconditionError(QpoolError, ValueError):
    """A candidate common state escapes the intersection of the supports."""


class InconsistentStatesError(QpoolError, ValueError):
    """The states' supports do not intersect; no joint state of knowledge exists."""


class SingularConstraintError(QpoolError, ValueError):
    """The effect-matching constraint has a vanishing denominator."""


class InvalidEffectError(QpoolError, ValueError):
    """An effect exceeds the identity, or a diagonal effect parameter or P(m|n) is not in [0, 1]."""


class DimensionGuardError(QpoolError, ValueError):
    """A requested tensor power exceeds the dense-matrix size guard, or a float posterior the float range."""


class ConfigError(QpoolError, ValueError):
    """A scenario configuration failed validation, or a report cannot be written to ``--out``."""


class ReportError(QpoolError, TypeError):
    """A report holds a non-string key or a value that canonical JSON cannot write."""
