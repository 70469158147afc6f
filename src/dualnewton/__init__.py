"""Second-order optimization on statistical manifolds.

The package pairs a Fisher metric with a one-parameter family of dual
affine connections and runs Newton's method on the resulting geometry,
next to natural-gradient, mirror-descent, and Adam baselines.  Models:
binary log-linear families, an isotropic Gaussian chart, and Beta
mixtures with quadrature geometry.
"""

from .errors import (
    DimensionMismatch,
    DivergenceUndefined,
    DomainError,
    DomainViolation,
    DualNewtonError,
    InsufficientIterations,
    LineSearchFailure,
    MomentInfeasible,
    NonFiniteValue,
    NotPositiveDefinite,
    NumericalError,
    PointError,
    QuadratureUnderflow,
    SingularMatrix,
)
from .geometry import (
    DualPoint,
    DualStructure,
    dual_hessian_matrix,
    duality_residual,
    gradient_field,
    levi_civita_from_metric,
    newton_direction,
    second_order_retract,
)
from .linalg import fd_jacobian, is_spd, solve_general, solve_spd
from .objectives import (
    AlphaDivergenceObjective,
    BetaMixtureNLL,
    KLProjectionObjective,
)
from .optimizers import (
    AdamState,
    OptimizerTrace,
    StopRule,
    adam_run,
    convergence_order,
    dual_newton_run,
    mirror_descent_run,
    natural_gradient_run,
    wolfe_line_search,
)
from .experiments import (
    RunConfig,
    TargetSpec,
    gen_dataset,
    gen_target,
    run_experiment,
    spd_failure_probe,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlphaDivergenceObjective",
    "BetaMixtureNLL",
    "DimensionMismatch",
    "DivergenceUndefined",
    "DomainError",
    "DomainViolation",
    "DualNewtonError",
    "DualPoint",
    "DualStructure",
    "InsufficientIterations",
    "KLProjectionObjective",
    "LineSearchFailure",
    "MomentInfeasible",
    "NonFiniteValue",
    "NotPositiveDefinite",
    "NumericalError",
    "OptimizerTrace",
    "PointError",
    "QuadratureUnderflow",
    "RunConfig",
    "SingularMatrix",
    "StopRule",
    "TargetSpec",
    "adam_run",
    "convergence_order",
    "dual_hessian_matrix",
    "dual_newton_run",
    "duality_residual",
    "fd_jacobian",
    "gen_dataset",
    "gen_target",
    "gradient_field",
    "is_spd",
    "levi_civita_from_metric",
    "mirror_descent_run",
    "natural_gradient_run",
    "newton_direction",
    "run_experiment",
    "run_validation",
    "second_order_retract",
    "solve_general",
    "solve_spd",
    "spd_failure_probe",
    "wolfe_line_search",
]
