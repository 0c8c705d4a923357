"""Two-sided monotone iteration between certified barriers.

Each outer step takes the nodal shift m_k = alpha d^(-beta) lower_k^(-(1+alpha))
at the current lower iterate and solves the shifted linear problem

    (-lap_h + m_k) u_new = d^(-beta) u^(-alpha) + m_k u

once from the current upper iterate and once from the current lower one,
with one operator shared by both sides.  The right-hand side map
s -> d^(-beta) s^(-alpha) + m_k s is nondecreasing for s >= lower_k, hence
on the order interval [lower_k, upper_k], and m_k is the smallest shift
that makes it so (generalized quasilinearization).  With the operator an
M-matrix, the upper sequence descends, the lower one ascends, and they
pinch the extremal solutions; since s^(-alpha) is convex, the lower step
is a Newton step, which is why a handful of steps suffices.  The full
chain sub <= lower_k <= lower_{k+1} <= upper_{k+1} <= upper_k <= super is
asserted at round-off scale on every step; a violation means the shift is
too small or the inner solves too loose, and aborts the run.

Convergence is declared on the relative two-sided gap in the weighted
L2(Omega, d^(-gamma)) norm, gamma from resolve_regime; the sup-norm gap is
reported but not used for stopping.

Every operator of a run comes from the one grid of its ProblemSpec:
-lap_h is assembled once for that grid (grid.assemble_laplacian) and each
step's -lap_h + m_k is a diagonal shift on its pattern
(grid.shifted_laplacian).  solve_ladder builds one grid per level, and the
eigenpair, the barriers, their certificates and solve_monotone share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barriers import BarrierPair, build_barrier_pair, resolve_regime, verify_barrier
from .grid import DomainShape, Grid, assemble_laplacian, power_weight, shifted_laplacian
from .linear_core import SPDFactor, SolverFailure, SolveStats, extended_residual, weighted_norm
from .problem import ProblemSpec, SolveConfig
from .spectral import EigenPair, dirichlet_eigenpair

__all__ = [
    "SolveConfig",
    "SolveReport",
    "LadderLevel",
    "OrderingViolationError",
    "iterate_step",
    "monotone_shift",
    "solve_monotone",
    "solve_ladder",
    "residual",
    "uniqueness_gap",
]

CHAIN_TOL = 1e-12  # ordering slack, relative to ||super||_inf
# Relative residual of each inner solve, applied to the increment (correction
# form).  It is fixed rather than tied to the outer tol, which measures only
# the two-sided gap: a smaller inner tolerance buys nothing once a solve is
# exact to rounding, and below the round-off floor it cannot be met.
INNER_TOL = 1e-10


class OrderingViolationError(SolverFailure):
    """The monotone chain broke beyond round-off: shift too small or solves too loose."""


@dataclass
class SolveReport:
    """Two-sided iteration record.

    gap_history is nonincreasing after the first entry (monotone squeeze);
    ordering_violation is the worst chain defect ever observed, at most
    1e-12 * ||super||_inf on success.  inner_iterations holds, per outer
    step, the iteration counts of its (lower, upper) inner solves.
    """

    lower: np.ndarray
    upper: np.ndarray
    iterations: int
    gap_history: list[float]
    converged: bool
    ordering_violation: float
    inner_iterations: list[tuple[int, int]] = field(default_factory=list)


def monotone_shift(grid: Grid, lower: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Nodal shift m = alpha d^(-beta) lower^(-(1+alpha)).

    The smallest m for which s -> d^(-beta) s^(-alpha) + m s is
    nondecreasing for s >= lower at every node.
    """
    return alpha * power_weight(grid, beta) * lower ** (-(1.0 + alpha))


def iterate_step(
    grid: Grid,
    factor: SPDFactor,
    prev: np.ndarray,
    alpha: float,
    beta: float,
) -> tuple[np.ndarray, SolveStats]:
    """One shifted linear solve of the scheme from prev, and its SolveStats.

    factor holds -lap_h + m for the step's shift m, and A0 = -lap_h is the
    grid's cached Laplacian.  Solved in correction form, u = prev + delta with
    (A0 + m) delta = d^(-beta) prev^(-alpha) - A0 prev: the shift cancels
    from the right-hand side, whose defect is evaluated in extended
    precision, and the inner relative tolerance INNER_TOL applies to the
    increment, whose scale shrinks with the iteration, so round-off cannot
    smear the monotone ordering.
    """
    prev = grid.check_field(prev)
    if prev.min() <= 0.0:
        raise ValueError("iterate must be positive nodewise")
    forcing = power_weight(grid, beta) * prev.astype(np.longdouble) ** (-alpha)
    defect = extended_residual(assemble_laplacian(grid), forcing, prev)
    delta, stats = factor.solve(defect, tol=INNER_TOL)
    u = prev + delta
    if u.min() <= 0.0:
        raise OrderingViolationError("iterate lost positivity; inner tolerance too loose")
    return u, stats


def solve_monotone(spec: ProblemSpec, pair: BarrierPair) -> SolveReport:
    """Run both monotone sequences to the minimal/maximal solutions.

    Returns a converged report once the weighted relative gap drops below
    spec.config.tol, or an unconverged report (converged=False, final gap in
    gap_history) when spec.config.max_iter runs out.  Raises
    OrderingViolationError if the chain breaks beyond 1e-12 * ||super||_inf.
    """
    config = spec.config
    grid = spec.make_grid()
    for side, fld in (("sub", pair.sub), ("super", pair.super)):
        cert = verify_barrier(grid, fld, spec.alpha, spec.beta, side)
        if not cert.passed:
            raise ValueError(
                f"{side}solution fails certification: violation {cert.worst_violation:.3e}"
                f" > threshold {cert.threshold:.3e}"
            )
    alpha, beta = spec.alpha, spec.beta
    gamma = resolve_regime(alpha, beta).gamma

    lower = pair.sub.copy()
    upper = pair.super.copy()
    chain_tol = CHAIN_TOL * float(np.max(np.abs(pair.super)))
    worst_violation = 0.0
    gap_history: list[float] = []
    inner_iterations: list[tuple[int, int]] = []
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        factor = SPDFactor(shifted_laplacian(grid, monotone_shift(grid, lower, alpha, beta)))
        new_lower, lower_stats = iterate_step(grid, factor, lower, alpha, beta)
        new_upper, upper_stats = iterate_step(grid, factor, upper, alpha, beta)
        inner_iterations.append((lower_stats.iterations, upper_stats.iterations))
        del factor  # free its multigrid hierarchy before the next step builds one
        violation = max(
            float(np.max(pair.sub - new_lower)),
            float(np.max(lower - new_lower)),
            float(np.max(new_lower - new_upper)),
            float(np.max(new_upper - upper)),
            float(np.max(new_upper - pair.super)),
        )
        worst_violation = max(worst_violation, violation)
        if violation > chain_tol:
            raise OrderingViolationError(
                f"chain violation {violation:.3e} > {chain_tol:.3e} at iteration {iterations}"
            )
        lower, upper = new_lower, new_upper
        gap = weighted_norm(upper - lower, grid, gamma) / weighted_norm(upper, grid, gamma)
        gap_history.append(gap)
        if gap <= config.tol:
            converged = True
            break

    return SolveReport(
        lower=lower,
        upper=upper,
        iterations=iterations,
        gap_history=gap_history,
        converged=converged,
        ordering_violation=worst_violation,
        inner_iterations=inner_iterations,
    )


@dataclass
class LadderLevel:
    """One refinement level of solve_ladder: its grid, principal eigenpair,
    certified barrier pair and monotone solve."""

    grid: Grid
    eig: EigenPair
    pair: BarrierPair
    report: SolveReport


def solve_ladder(
    alpha: float, beta: float, shape: DomainShape, ns, config: SolveConfig
) -> list[LadderLevel]:
    """Monotone solves over the refinement levels ns, coarse to fine.

    Each level builds its grid, the closed-form principal eigenpair of
    -lap_h, the barrier pair from it, and runs solve_monotone.  The ladder
    stops at the first level that does not converge; that level is the last
    entry, so callers check levels[-1].report.converged.
    """
    levels: list[LadderLevel] = []
    for n in ns:
        spec = ProblemSpec(alpha=alpha, beta=beta, shape=shape, n=n, config=config)
        grid = spec.make_grid()
        eig = dirichlet_eigenpair(grid)
        pair = build_barrier_pair(grid, alpha, beta, eig)
        levels.append(LadderLevel(grid, eig, pair, solve_monotone(spec, pair)))
        if not levels[-1].report.converged:
            break
    return levels


def residual(grid: Grid, u: np.ndarray, alpha: float, beta: float) -> float:
    """Sup norm of the strong-form defect, weighted by d^(beta + t alpha).

    The weight cancels the singular scales of both terms near the boundary,
    so the value is comparable across nodes; it vanishes at the exact
    discrete fixed point.
    """
    u = grid.check_field(u)
    if u.min() <= 0.0:
        raise ValueError("field must be positive nodewise")
    t = resolve_regime(alpha, beta).t
    defect = assemble_laplacian(grid) @ u - power_weight(grid, beta) * u ** (-alpha)
    return float(np.max(np.abs(defect * grid.d ** (beta + t * alpha))))


def uniqueness_gap(report: SolveReport) -> float:
    """Relative sup-norm distance between the two-sided limits."""
    if not report.converged:
        raise ValueError("uniqueness gap is only meaningful for a converged report")
    return float(np.max(np.abs(report.upper - report.lower)) / np.max(np.abs(report.upper)))
