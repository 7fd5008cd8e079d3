"""Conditional quantum states, agent compatibility and state pooling.

A desk-scale dense linear algebra toolkit for combining two agents'
quantum state assignments: support-overlap compatibility tests, Bayesian
updating with the star product, the multiplicative pooling rule
c * s1 @ pinv(prior) @ s2, and a two-agent coarse-graining simulation
with defective detectors.
"""

from .compatibility import (
    CompatibilityVerdict,
    ConditionalDistribution,
    ProbabilityDistribution,
    classical_compatible,
    quantum_compatible,
    verify_objective_classical,
    verify_objective_quantum,
    verify_subjective_classical,
    verify_subjective_quantum,
)
from .errors import (
    DimensionMismatchError,
    ImpossibleConditioningError,
    IncompatibleAssignmentsError,
    InvalidParameterError,
    NonHermitianPoolingProductError,
    NotPSDError,
    PriorSupportError,
    StatePoolError,
)
from .linalg import (
    Subspace,
    Tolerances,
    partial_trace,
    pseudo_inverse,
    sqrt_psd,
    subspace_intersection,
    support_projector,
    tensor,
)
from .pooling import (
    PoolingReport,
    SufficientStatistic,
    check_conditional_independence,
    classical_pool,
    minimal_sufficient_statistic,
    quantum_minimal_sufficient_statistic,
    quantum_pool,
)
from .regions import (
    ConditionalState,
    HybridState,
    JointState,
    RegionLabel,
    condition,
    make_hybrid,
    marginalize,
    quantum_bayes,
    star_product,
)
from .scenario import (
    AgentPipeline,
    Channel,
    DephasingChannel,
    DepolarizingChannel,
    KrausChannel,
    ReplacementChannel,
    ScenarioConfig,
    ScenarioResult,
    UnitaryDynamics,
    adversarial_instance,
    batch_report,
    haar_unitary,
    random_density,
    random_instance,
    run_scenario,
)

__version__ = "0.1.0"
