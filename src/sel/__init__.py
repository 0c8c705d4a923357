"""sel: a numerical laboratory for singular semilinear elliptic problems.

Solves -lap(u) = d(x)^(-beta) u^(-alpha) with zero Dirichlet data on
intervals and rectangles by a certified two-sided monotone iteration,
cross-checks the result against a globalized Newton path, and extracts the
boundary exponent, gradient blow-up rate, critical Sobolev threshold, and
linearized stability of the computed solutions.
"""

__version__ = "0.1.0"

from .analysis import (
    FitWindow,
    H1Report,
    RegularityReport,
    asymptotic_window,
    default_window,
    estimate_critical_q,
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    h1_membership,
    q_bar_from_sigma,
    regularity_report,
    sobolev_integral,
    uniqueness_identity,
)
from .barriers import (
    BarrierPair,
    CertReport,
    Regime,
    build_barrier_pair,
    build_subsolution,
    build_supersolution,
    resolve_regime,
    verify_barrier,
)
from .grid import (
    DomainShape,
    Grid,
    InvalidResolutionError,
    assemble_laplacian,
    build_grid,
    gradient_components,
    interval,
    power_weight,
    rectangle,
    shifted_laplacian,
)
from .linear_core import (
    ComparisonPrincipleViolationError,
    SolverFailure,
    SolverStagnationError,
    SolveStats,
    extended_residual,
    solve_spd,
    weighted_norm,
)
from .monotone import (
    LadderLevel,
    OrderingViolationError,
    SolveReport,
    iterate_step,
    monotone_shift,
    residual,
    solve_ladder,
    solve_monotone,
    uniqueness_gap,
)
from .oracle import (
    NewtonStagnationError,
    dense_newton_solve,
    newton_solve,
    observed_order,
)
from .problem import ProblemSpec, SolveConfig
from .regularized import ContinuationReport, epsilon_continuation, solve_regularized
from .spectral import (
    EigenPair,
    EigenNonConvergenceError,
    InvalidLinearizationPointError,
    dirichlet_eigenpair,
    linearized_smallest_eigenvalue,
    principal_eigenpair,
)
