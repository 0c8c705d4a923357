"""Independent ground truth: the Newton path and observed orders.

newton_solve is the laboratory's one Newton, for the singular problem and,
with eps > 0, for its regularization.  dense_newton_solve shares no
machinery with the monotone path beyond grid assembly: it factorizes the
full dense Jacobian by Cholesky, never through linear_core, so agreement
between the two is a genuine cross-method check rather than a
self-consistency one.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .barriers import build_barrier_pair, resolve_regime
from .grid import Grid, assemble_laplacian, power_weight, shifted_laplacian
from .linear_core import SolverFailure, solve_spd
from .problem import ProblemSpec

DENSE_N_CAP = 64


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
    singularity) and the d^(beta + t alpha)-weighted sup defect decreases or
    meets tol; that weighted defect is also the stopping test.  Each step
    solves its Jacobian once through a fresh SPDFactor (banded Cholesky on
    intervals, multigrid-preconditioned CG on rectangles), or by dense
    Cholesky with dense=True, the independent oracle path.  Raises
    NewtonStagnationError when the halvings or the 200-step cap run out.
    """
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    init = grid.check_field(init)
    if (init + eps).min() <= 0.0:
        raise ValueError("initial field must satisfy init + eps > 0 nodewise")
    weight = grid.d ** (beta + resolve_regime(alpha, beta).t * alpha)
    A0 = assemble_laplacian(grid)
    A0_dense = A0.toarray() if dense else None
    w_beta = power_weight(grid, beta)

    def defect_norm(u):
        defect = A0 @ u - w_beta * (u + eps) ** (-alpha)
        return defect, float(np.max(np.abs(defect * weight)))

    u = init.copy()
    defect, res = defect_norm(u)
    for _ in range(200):
        if res <= tol:
            return u
        jac_diag = alpha * w_beta * (u + eps) ** (-(1.0 + alpha))
        if dense:
            jac = A0_dense + np.diag(jac_diag)
            delta = scipy.linalg.solve(jac, -defect, assume_a="pos")
        else:
            delta, _ = solve_spd(shifted_laplacian(grid, jac_diag), -defect, tol=1e-10)
        floor = 0.1 * float((u + eps).min())
        step = 1.0
        for _halving in range(50):
            candidate = u + step * delta
            if float((candidate + eps).min()) >= floor:
                new_defect, new_res = defect_norm(candidate)
                if new_res < res or new_res <= tol:
                    u, defect, res = candidate, new_defect, new_res
                    break
            step *= 0.5
        else:
            raise NewtonStagnationError(
                f"no admissible step after 50 halvings at weighted defect {res:.3e}"
            )
    raise NewtonStagnationError(f"Newton did not reach tol={tol:.1e}, stuck at {res:.3e}")


def dense_newton_solve(spec: ProblemSpec, tol: float = 1e-12) -> np.ndarray:
    """Tiny-scale oracle: dense-Cholesky Newton from the supersolution barrier.

    Restricted to spec.n <= 64 where dense factorization is trivially
    feasible; the monotone solver must agree with this limit.
    """
    if spec.n > DENSE_N_CAP:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_N_CAP}, got n={spec.n}")
    grid = spec.make_grid()
    pair = build_barrier_pair(grid, spec.alpha, spec.beta)
    return newton_solve(grid, spec.alpha, spec.beta, pair.super, tol=tol, dense=True)


def observed_order(errors, hs) -> tuple[float, bool]:
    """Least-squares slope of log error vs log h, with a reliability flag.

    The flag is False when the error sequence is not strictly decreasing
    as h decreases (order estimates from non-monotone data mean little).
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 3:
        raise ValueError("need >= 3 matching (error, h) pairs")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("hs must be strictly decreasing")
    if np.any(errors <= 0):
        raise ValueError("errors must be positive")
    order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    reliable = bool(np.all(np.diff(errors) < 0))
    return order, reliable
