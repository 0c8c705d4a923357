"""Two-sided monotone iteration between certified barriers.

With F(u) = d^(-beta) u^(-alpha) (spectral._forcing), each outer step takes
the nodal shift m_k = alpha d^(-beta) lower_k^(-(1+alpha)) at the current
lower iterate (spectral.monotone_shift) and solves, with one operator,

    (-lap_h + m_k) lower_{k+1} = F(lower_k) + m_k lower_k
    (-lap_h + m_k) g = F(upper_k) - F(lower_k) + m_k (upper_k - lower_k)

and sets upper_{k+1} = lower_{k+1} + g: g is the step from upper_k minus
the step from lower_k.  The map s -> F(s) + m_k s is nondecreasing for
s >= lower_k, and m_k is the smallest shift that makes it so (generalized
quasilinearization).  F is convex, so the lower step is a Newton step (a
handful of steps suffices) and g's right-hand side, the Newton remainder
of F at lower_k, is >= 0, and 0 at alpha = 0.  With the operator an
M-matrix g >= 0: the sides are ordered by construction, by the comparison
argument of Pao (Nonlinear Parabolic and Elliptic Equations, 1992) on the
difference of the sequences, not by two solves agreeing to round-off.
The upper sequence descends, the lower one ascends, and they pinch the
extremal solutions.  The full chain
sub <= lower_k <= lower_{k+1} <= upper_{k+1} <= upper_k <= super is
asserted at round-off scale on every step, a NaN counting as a break; a
violation means the shift is too small or the inner solves too loose, and
aborts the run.

Convergence is declared on the relative two-sided gap in the weighted
L2(Omega, d^(-gamma)) norm, gamma from resolve_regime; the sup-norm gap is
reported but not used for stopping.

The iteration runs on the grid's mirror-symmetry cell (grid.mirror_fold):
the problem and its solution are symmetric about every midline, and on
symmetric fields u = E v the scheme above is the same scheme for
K = E^T (-lap_h) E with F and m times the orbit sizes w, K v = w F(v)
(Bossavit, Comput. Methods Appl. Mech. Engrg. 56, 1986).  Each step factors
K + diag(w m_k) (linear_core.SPDFactor.on_cell), its long-double defect is
w F(lower_k) - K lower_k, the gap's right-hand side is w times the one
above, and the chain check and the weighted gap (weights w d^(-gamma)) run
on the cell; SolveReport.lower and upper are mirrored once at the end.  The
defect is folded too: on the full grid, long-double rounding breaks the
symmetry by about eps |A0| |u|, which passes INNER_TOL ||f|| once the
corrections are small.  The barrier certificates, mu_1 and Newton stay on
the full grid.

Every operator of a run comes from the one grid of its ProblemSpec, the
process's shared grid of its (shape, n) (grid.build_grid): the fold's K is
built once for that grid and each step factors K + diag(w m_k) by the grid,
a diagonal shift on its pattern.  Each level of solve_ladder takes that
grid, and the eigenpair, the barriers, their certificate and
solve_monotone share it; the pair is certified once, by
build_barrier_pair, and solve_monotone re-verifies only a pair not
certified for its grid and (alpha, beta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .barriers import (
    BarrierPair, _weighted_defect, build_barrier_pair, resolve_regime, verify_barrier
)
from .grid import DomainShape, Grid, assemble_laplacian, mirror_fold, power_weight
from .linear_core import SPDFactor, SolverFailure, SolveStats, _weighted_norm, extended_residual
from .problem import ProblemSpec, SolveConfig
from .spectral import _scaled_forcing, _scaled_shift

CHAIN_TOL = 1e-12  # ordering slack, relative to ||super||_inf
# Relative residual of each inner solve, applied to the increment (correction
# form).  It is fixed rather than tied to the outer tol, which measures only
# the two-sided gap: a smaller inner tolerance buys nothing once a solve is
# exact to rounding, and below the round-off floor it cannot be met.
INNER_TOL = 1e-10


class OrderingViolationError(SolverFailure):
    """The monotone chain broke beyond round-off: shift too small or solves too loose."""


@dataclass(eq=False)
class SolveReport:
    """Two-sided iteration record.

    gap_history is nonincreasing after the first entry (monotone squeeze);
    ordering_violation is the worst chain defect ever observed, at most
    1e-12 * ||super||_inf on success.  inner_iterations holds, per outer
    step, the iteration counts of its (lower, gap) inner solves.
    """

    lower: np.ndarray
    upper: np.ndarray
    iterations: int
    gap_history: list[float]
    converged: bool
    ordering_violation: float
    inner_iterations: list[tuple[int, int]] = field(default_factory=list)


def iterate_step(
    grid: Grid,
    factor: SPDFactor,
    prev: np.ndarray,
    alpha: float,
    beta: float,
) -> tuple[np.ndarray, SolveStats]:
    """One shifted linear solve of the scheme from prev, and its SolveStats.

    factor holds -lap_h + m for the step's shift m on the full grid, and
    A0 = -lap_h is the grid's cached Laplacian (solve_monotone takes the
    same step on the grid's mirror cell).  Solved in correction form,
    u = prev + delta with (A0 + m) delta = F(prev) - A0 prev: the shift
    cancels from the right-hand side, which is evaluated in long double
    (spectral._forcing of a long-double field, then extended_residual), and
    the inner relative tolerance INNER_TOL applies to the increment, whose
    scale shrinks with the iteration, so round-off cannot smear the
    monotone ordering.

    Raises ValueError, before any arithmetic, unless prev passes
    grid.check_positive (positive and finite at every node), and
    OrderingViolationError unless u is.
    """
    prev = grid.check_positive(prev)
    return _step(assemble_laplacian(grid), power_weight(grid, beta), factor, prev, alpha)


def _step(
    A: sp.csr_array, weight: np.ndarray, factor: SPDFactor, prev: np.ndarray, alpha: float
) -> tuple[np.ndarray, SolveStats]:
    # iterate_step of a positive prev with A = -lap_h and weight d^(-beta),
    # or on a mirror cell with A = K and weight w d^(-beta): the defect
    # w F(prev) - K prev.  In double, outcomes hold but ordering violations
    # of exactly 0.0 become ~1e-17
    wide = prev.astype(np.longdouble)
    defect = extended_residual(A, _scaled_forcing(weight, wide, alpha), wide)
    delta, stats = factor.solve(defect, tol=INNER_TOL)
    u = (prev + delta).astype(float)  # delta may be long double: round once
    return _check_iterate(u, "lower"), stats


def _check_iterate(u: np.ndarray, side: str) -> np.ndarray:
    """u, a new iterate, unless an entry is <= 0 or not finite: the one check
    of each iterate, where it is made.  A NaN fails both comparisons."""
    if not (u.min() > 0.0 and u.max() < np.inf):
        raise OrderingViolationError(
            f"{side} iterate lost positivity or finiteness; inner tolerance too loose"
        )
    return u


def solve_monotone(spec: ProblemSpec, pair: BarrierPair) -> SolveReport:
    """Run both monotone sequences to the minimal/maximal solutions.

    Returns a converged report once the weighted relative gap drops below
    spec.config.tol, or an unconverged report (converged=False, final gap in
    gap_history) when spec.config.max_iter runs out.  Raises
    OrderingViolationError if the chain breaks beyond 1e-12 * ||super||_inf
    or a NaN enters it, and if a new iterate has an entry that is <= 0 or
    not finite.

    The iteration runs on the grid's mirror cell (module docstring) and
    starts from the orbit max of pair.sub and the orbit min of pair.super
    (MirrorFold.orbit_reduce): their cell values for the mirror-symmetric
    sides of build_barrier_pair, and for any other pair a subsolution and a
    supersolution inside it, since a max of subsolutions is a subsolution
    and a min of supersolutions a supersolution.  Each iterate is validated
    once, where it is made (_check_iterate), and each step's shift is
    checked finite (MirrorFold.shifted); F and the weighted gap are
    evaluated on those arrays without another check.

    A pair that build_barrier_pair certified for spec's grid and
    (alpha, beta) (BarrierPair.certified_on) is not certified again; any
    other pair is verified here, and a side that fails is a ValueError.
    """
    config = spec.config
    grid = spec.make_grid()
    alpha, beta = spec.alpha, spec.beta
    if not pair.certified_on(grid, alpha, beta):
        for side, fld in (("sub", pair.sub), ("super", pair.super)):
            cert = verify_barrier(grid, fld, alpha, beta, side)
            if not cert.passed:
                raise ValueError(
                    f"{side}solution fails certification: violation {cert.worst_violation:.3e} > 0"
                )
    gamma = resolve_regime(alpha, beta).gamma
    fold = mirror_fold(grid)
    # each cell node stands for its orbit of w nodes: w F, w m and the gap
    # norm's quadrature weight w d^(-gamma) (the cell volume cancels in the
    # ratio)
    weight = fold.w * power_weight(grid, beta)[fold.rep]
    norm_weight = fold.w * power_weight(grid, gamma)[fold.rep]
    # the cell's start, inside the given pair (docstring)
    sub = fold.orbit_reduce(pair.sub, np.maximum)
    sup = fold.orbit_reduce(pair.super, np.minimum)

    lower, upper = sub, sup
    width = upper - lower
    chain_tol = CHAIN_TOL * float(np.max(np.abs(pair.super)))
    worst_violation = 0.0
    gap_history: list[float] = []
    inner_iterations: list[tuple[int, int]] = []
    converged = False
    iterations = 0

    for iterations in range(1, config.max_iter + 1):
        shift = _scaled_shift(weight, lower, alpha)
        factor = SPDFactor.on_cell(grid, shift)
        new_lower, lower_stats = _step(fold.K, weight, factor, lower, alpha)
        # the upper step minus the lower one (module docstring)
        rhs = _scaled_forcing(weight, upper, alpha) - _scaled_forcing(weight, lower, alpha)
        gap, gap_stats = factor.solve(rhs + shift * width, tol=INNER_TOL)
        # gap may be long double: round once
        new_upper = _check_iterate((new_lower + gap).astype(float), "upper")
        inner_iterations.append((lower_stats.iterations, gap_stats.iterations))
        del factor  # free its multigrid hierarchy before the next step builds one
        new_width = new_upper - new_lower
        # np.maximum carries a NaN through, where the builtin max may drop it
        violation = float(
            np.maximum.reduce(
                [
                    (sub - new_lower).max(),
                    (lower - new_lower).max(),
                    -new_width.min(),
                    (new_upper - upper).max(),
                    (new_upper - sup).max(),
                ]
            )
        )
        worst_violation = max(worst_violation, violation)
        if not violation <= chain_tol:
            raise OrderingViolationError(
                f"chain violation {violation:.3e} > {chain_tol:.3e} at iteration {iterations}"
            )
        lower, upper, width = new_lower, new_upper, new_width
        gap = _weighted_norm(width, norm_weight) / _weighted_norm(upper, norm_weight)
        gap_history.append(gap)
        if gap <= config.tol:
            converged = True
            break

    return SolveReport(
        lower=lower[fold.idx],
        upper=upper[fold.idx],
        iterations=iterations,
        gap_history=gap_history,
        converged=converged,
        ordering_violation=worst_violation,
        inner_iterations=inner_iterations,
    )


@dataclass(eq=False)
class LadderLevel:
    """One refinement level of solve_ladder: its grid, certified barrier
    pair and monotone solve.  Its principal eigenpair is
    spectral.dirichlet_eigenpair(grid), cached on the grid."""

    grid: Grid
    pair: BarrierPair
    report: SolveReport


def solve_ladder(
    alpha: float, beta: float, shape: DomainShape, ns, config: SolveConfig
) -> list[LadderLevel]:
    """Monotone solves over the refinement levels ns, coarse to fine.

    Each level takes the shared grid of (shape, n), builds its barrier pair
    (build_barrier_pair, on the grid's own eigenpair), and runs
    solve_monotone, which does not certify that pair again.  The ladder
    stops at the first level that does not converge; that level is the last
    entry, so callers check levels[-1].report.converged.
    """
    levels: list[LadderLevel] = []
    for n in ns:
        spec = ProblemSpec(alpha=alpha, beta=beta, shape=shape, n=n, config=config)
        grid = spec.make_grid()
        pair = build_barrier_pair(grid, alpha, beta)
        levels.append(LadderLevel(grid, pair, solve_monotone(spec, pair)))
        if not levels[-1].report.converged:
            break
    return levels


def residual(grid: Grid, u: np.ndarray, alpha: float, beta: float) -> float:
    """Sup norm of the strong-form defect, weighted by d^(beta + t alpha)
    (barriers._weighted_defect: the certificate's defect, Newton's test).

    The weight cancels the singular scales of both terms near the boundary,
    so the value is comparable across nodes; it vanishes at the exact
    discrete fixed point.  Raises ValueError unless u passes
    grid.check_positive.
    """
    return _weighted_defect(grid, grid.check_positive(u), alpha, beta)[1]


def uniqueness_gap(report: SolveReport) -> float:
    """Relative sup-norm distance between the two-sided limits."""
    if not report.converged:
        raise ValueError("uniqueness gap is only meaningful for a converged report")
    return float(np.max(np.abs(report.upper - report.lower)) / np.max(np.abs(report.upper)))
