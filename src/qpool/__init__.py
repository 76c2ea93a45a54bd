"""qpool: pooling independently obtained classical and quantum states of knowledge.

The library covers the classical multiply-and-renormalize pooling rule and
its matrix form, multi-observer measurement histories and their flattened
operator families, the support-intersection consistency condition with the
tripartite realizability construction behind pooled-state ambiguity, and
Bayesian pure-state estimation over the invariant measure with an exact
polynomial path for diagonal qubit effects, whose posteriors have
nonnegative coefficients in the basis r^k (1 - r)^(n - k).
"""

from importlib import import_module as _import_module

# The submodules ``import qpool`` binds, and the exported names by the module that
# defines them.  Each module, and numpy behind all but ``errors`` and ``exact``, is
# imported the first time it or one of its names is read (PEP 562), so the exact
# scenarios and ``import qpool.errors`` start without numpy.  ``estimation``
# re-exports the names defined in ``exact``.
_SUBMODULES = ("classical", "errors", "estimation", "fusion", "haar", "linalg", "measurement")
_EXPORTS = {
    "classical": (
        "LikelihoodModel",
        "ProbDist",
        "bayes_update",
        "matrix_bayes_update",
        "pool_classical",
        "pool_commuting_density",
        "sequential_update",
    ),
    "errors": (
        "AmbiguityPreconditionError",
        "ConfigError",
        "DegenerateConstructionError",
        "DimensionGuardError",
        "HermiticityError",
        "ImpossibleOutcomeError",
        "IncompatibleKnowledgeError",
        "IncompleteMeasurementError",
        "InconsistentStatesError",
        "InvalidEffectError",
        "NoncommutingError",
        "NonFiniteError",
        "NotNormalizedError",
        "PositivityError",
        "QpoolError",
        "ReportError",
        "ShapeError",
        "SingularConstraintError",
    ),
    "estimation": (
        "WeightedStateEnsemble",
        "definetti_state",
        "polynomial_predictive",
        "pooled_predictive",
        "posterior_update",
        "predictive_state",
    ),
    "exact": (
        "DiagonalEffect",
        "PolynomialDensity",
        "audit_published_example",
        "matching_beta",
        "predictive_populations",
        "qubit_diagonal_posterior",
    ),
    "fusion": (
        "CommonTermDecomposition",
        "HistoryMeasureConfig",
        "averaged_fusion",
        "check_consistency",
        "decompose_common",
        "demonstrate_ambiguity",
        "max_common_weight",
        "realize_pair",
        "realize_tripartite",
        "simulate_tripartite",
    ),
    "haar": ("sample_amplitudes",),
    "linalg": (
        "Subspace",
        "hermitian_eig",
        "subspace_intersection",
        "support",
        "trace_distance",
    ),
    "measurement": (
        "FlatPovm",
        "KrausPovm",
        "MeasurementHistory",
        "conditional_state",
        "flatten_history",
        "outcome_probability",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_SUBMODULES, *_ORIGIN})
