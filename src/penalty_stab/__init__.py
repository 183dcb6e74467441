"""Penalized boundary-feedback stabilization of a cubic reaction-diffusion
equation, with P1 finite elements in space, backward Euler + Newton in time,
and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .analysis import (
    DecayFit,
    EpsilonRow,
    MonitorResult,
    energy_monitor,
    epsilon_cauchy_study,
    error_vs_reference,
    fit_decay_rate,
    observed_orders,
    restrict_to_coarse,
)
from .errors import (
    AdmissibilityError,
    AnalysisError,
    ConfigError,
    MeshError,
    ParameterDomainError,
    PenaltyStabError,
    SingularCoreError,
    SingularUpdateError,
)
from .fem import (
    AssembledSystem,
    MeshPartition,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    cubic_term,
    evaluate,
    h1_seminorm,
    l4_norm,
    make_partition,
    make_uniform_mesh,
    norms,
    project_initial,
)
from .params import (
    R_MAX_DIRICHLET,
    X_WEIGHT_NORM_PRODUCT,
    DirichletRateBounds,
    ModelParams,
    RateReport,
    check_admissibility,
    dirichlet_rate_bounds,
    energy_constant,
    max_decay_rate,
    rate_report,
)
from .solver import (
    EnsembleLevel,
    KeptMatrix,
    LinearPart,
    NewtonMatrix,
    RankOneUpdate,
    StackReport,
    StateTrajectory,
    StepReport,
    TimeGrid,
    jacobian,
    newton_solve,
    residual,
    simulate,
    solve_structured,
    step_ensemble,
)

_submodules = {"analysis", "cli", "errors", "fem", "harness", "params", "solver"}
__all__ = [name for name in dir() if not name.startswith("_") and name not in _submodules]
