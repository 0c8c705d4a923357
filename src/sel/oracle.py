"""Independent ground truth: the Newton path and observed orders.

newton_solve is the laboratory's one Newton, for the singular problem and,
with eps > 0, for its regularization.  dense_newton_solve shares with the
monotone path only grid assembly and the pointwise F and F' of spectral:
it factorizes the full dense Jacobian by Cholesky, never through
linear_core, so agreement between the two is a genuine cross-method check
rather than a self-consistency one.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .barriers import _weighted_defect, build_barrier_pair
from .grid import Grid, assemble_laplacian
from .linear_core import SPDFactor, SolverFailure, check_tol
from .monotone import INNER_TOL
from .problem import ProblemSpec
from .spectral import monotone_shift

DENSE_N_CAP = 64
# Newton's step cap, and the step halvings allowed within one step.
MAX_NEWTON_STEPS = 200
MAX_HALVINGS = 50


class NewtonStagnationError(SolverFailure):
    """A Newton solve stalled: step halvings ran out or the iteration cap
    was reached."""


def newton_solve(
    grid: Grid,
    alpha: float,
    beta: float,
    init: np.ndarray,
    tol: float = 1e-12,
    dense: bool = False,
    eps: float = 0.0,
) -> np.ndarray:
    """Globalized Newton for -lap_h u = d^(-beta) (u+eps)^(-alpha), eps >= 0.

    eps = 0 is the singular problem itself, eps > 0 its regularization
    along the continuation path.  Each step is halved until u+eps stays
    above 0.1 times its current minimum (the floor keeps iterates off the
    singularity) and the d^(beta + t alpha)-weighted sup defect of
    barriers._weighted_defect (monotone.residual's) decreases or meets tol;
    that weighted defect is also the stopping test.  Each step solves its
    Jacobian -lap_h + monotone_shift(grid, u + eps, alpha, beta) once
    through a fresh SPDFactor.on_grid (tridiagonal LDL^T on intervals,
    multigrid-preconditioned CG on rectangles), or
    by dense Cholesky with dense=True, the independent oracle path.  Raises
    ValueError, before any arithmetic, unless tol is finite and > 0, eps is
    finite and >= 0, init + eps passes grid.check_positive and, with
    dense=True, grid.n <= DENSE_N_CAP; NewtonStagnationError when the
    MAX_HALVINGS halvings of a step or the MAX_NEWTON_STEPS cap run out.
    """
    check_tol(tol)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    init = grid.check_field(init)
    grid.check_positive(init + eps)
    if dense and grid.n > DENSE_N_CAP:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_N_CAP}, got n={grid.n}")
    A0_dense = assemble_laplacian(grid).toarray() if dense else None
    u = init.copy()
    defect, res = _weighted_defect(grid, u, alpha, beta, eps)
    for _ in range(MAX_NEWTON_STEPS):
        if res <= tol:
            return u
        jac_diag = monotone_shift(grid, u + eps, alpha, beta)
        if dense:
            jac = A0_dense + np.diag(jac_diag)
            delta = scipy.linalg.solve(jac, -defect, assume_a="pos")
        else:
            delta, _ = SPDFactor.on_grid(grid, jac_diag).solve(-defect, tol=INNER_TOL)
            delta = delta.astype(float)  # the banded solve returns long double: round once
        floor = 0.1 * float((u + eps).min())
        step = 1.0
        for _halving in range(MAX_HALVINGS):
            candidate = u + step * delta
            if float((candidate + eps).min()) >= floor:
                new_defect, new_res = _weighted_defect(grid, candidate, alpha, beta, eps)
                if new_res < res or new_res <= tol:
                    u, defect, res = candidate, new_defect, new_res
                    break
            step *= 0.5
        else:
            raise NewtonStagnationError(
                f"no admissible step after {MAX_HALVINGS} halvings at weighted defect {res:.3e}"
            )
    raise NewtonStagnationError(f"Newton did not reach tol={tol:.1e}, stuck at {res:.3e}")


def dense_newton_solve(spec: ProblemSpec) -> np.ndarray:
    """Tiny-scale oracle: dense-Cholesky Newton from the supersolution barrier,
    to tol 1e-12.

    Restricted to spec.n <= DENSE_N_CAP (checked by newton_solve); the
    monotone solver must agree with this limit.
    """
    grid = spec.make_grid()
    pair = build_barrier_pair(grid, spec.alpha, spec.beta)
    return newton_solve(grid, spec.alpha, spec.beta, pair.super, tol=1e-12, dense=True)


def observed_order(errors, hs) -> tuple[float, bool]:
    """Least-squares slope of log error vs log h, with a reliability flag.

    The flag is False when the error sequence is not strictly decreasing
    as h decreases (order estimates from non-monotone data mean little).
    ValueError unless every error and every h is finite and positive.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 3:
        raise ValueError("need >= 3 matching (error, h) pairs")
    both = np.concatenate([errors, hs])
    if not (np.isfinite(both).all() and both.min() > 0):
        raise ValueError("errors and hs must be finite and positive")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("hs must be strictly decreasing")
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    reliable = bool(np.all(np.diff(errors) < 0))
    return order, reliable
