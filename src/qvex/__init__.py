"""qvex: dynamic exchange-economy equilibria via split quasi-variational
inequalities, with independent certification of every output."""

from .economy import (
    Agent,
    Economy,
    LogShift,
    Quadratic,
    agent_operator,
    assemble_qvi,
    check_concavity,
    check_growth_condition,
    default_caps,
    survivability_check,
    utility_gradient,
    utility_value,
)
from .grids import (
    GridFunction,
    PriceCurve,
    TimeGrid,
    inner_product,
    make_grid,
    norm,
    split_components,
    stack_components,
)
from .qvi import (
    QVIParams,
    QVIProblem,
    QVISolveReport,
    check_truncation_interior,
    default_radius_schedule,
    solve_qvi,
    solve_qvi_truncated,
)
from .reports import CertReport
from .sets import (
    Ball,
    BudgetHalfspace,
    CapBox,
    Intersection,
    PointwiseSimplex,
    SetDescriptor,
    membership_residual,
    project,
)
from .vi import (
    OperatorHandle,
    SolveReport,
    estimate_lipschitz,
    solve_vi_extragradient,
    vi_residual,
)
from .verify import (
    best_response_residual,
    budget_residuals,
    certify_equilibrium,
    coercivity_probe,
    full_budget_set,
    market_clearing_residual,
    pseudomonotonicity_probe,
    walras_residual,
)

__version__ = "0.1.0"
