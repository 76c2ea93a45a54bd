"""qpool: pooling independently obtained classical and quantum states of knowledge.

The library covers the classical multiply-and-renormalize pooling rule and
its matrix form, multi-observer measurement histories and their flattened
operator families, the support-intersection consistency condition with the
tripartite realizability construction behind pooled-state ambiguity, and
Bayesian pure-state estimation over the invariant measure with an exact
polynomial path for diagonal qubit effects.
"""

from . import classical, estimation, fusion, haar, linalg, measurement
from .classical import (
    LikelihoodModel,
    PermutationTransform,
    ProbDist,
    apply_transform,
    bayes_update,
    matrix_bayes_update,
    pool_classical,
    pool_commuting_density,
    sequential_update,
    shannon_entropy,
)
from .errors import (
    AmbiguityPreconditionError,
    ConfigError,
    DegenerateConstructionError,
    DimensionGuardError,
    HermiticityError,
    ImpossibleOutcomeError,
    IncompatibleKnowledgeError,
    IncompleteMeasurementError,
    InconsistentStatesError,
    InvalidEffectError,
    NoncommutingError,
    NonFiniteError,
    NotNormalizedError,
    PositivityError,
    QpoolError,
    ShapeError,
    SingularConstraintError,
)
from .estimation import (
    DiagonalEffect,
    PolynomialDensity,
    WeightedStateEnsemble,
    audit_published_example,
    definetti_state,
    matching_beta,
    polynomial_predictive,
    pooled_predictive,
    posterior_update,
    predictive_state,
    predictive_populations,
    qubit_diagonal_posterior,
)
from .fusion import (
    CommonTermDecomposition,
    HistoryMeasureConfig,
    TripartiteScenario,
    averaged_fusion,
    check_consistency,
    decompose_common,
    demonstrate_ambiguity,
    max_common_weight,
    realize_pair,
    realize_tripartite,
    simulate_tripartite,
)
from .haar import (
    PureStateSample,
    average_projector,
    measure_normalization,
    sample_amplitudes,
    sample_pure_state,
)
from .linalg import (
    Subspace,
    hermitian_eig,
    is_psd,
    matrix_sqrt_psd,
    partial_trace,
    subspace_intersection,
    support,
    tensor,
    trace_distance,
)
from .measurement import (
    FlatPovm,
    KrausPovm,
    MeasurementHistory,
    Povm,
    conditional_state,
    flatten_history,
    measurement_update,
    outcome_probability,
    validate_povm,
)

__version__ = "0.1.0"
