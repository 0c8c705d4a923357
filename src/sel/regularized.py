"""Independent cross-check path: Newton continuation in the regularization.

Replacing u^(-alpha) by (u+eps)^(-alpha) removes the singularity, so plain
Newton applies; driving eps -> 0 along a geometric ladder with warm starts
recovers the singular solution from a completely different direction than
the monotone iteration.  Agreement of the two paths is the strongest
end-to-end check the laboratory has.  Each rung is one oracle.newton_solve
with eps > 0.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .barriers import build_barrier_pair
from .linear_core import check_tol
from .oracle import newton_solve
from .problem import ProblemSpec


@dataclass(eq=False)
class ContinuationReport:
    """Ladder of regularized solves with distances to a reference field.

    deltas_monotone records whether ||u_eps - u_ref||_inf decreased along
    the whole ladder; a violation is demoted to a warning since nothing
    guarantees monotonicity in eps, it is only the observed norm.
    """

    eps_values: np.ndarray
    fields: list[np.ndarray]
    deltas: np.ndarray
    deltas_monotone: bool


def solve_regularized(
    spec: ProblemSpec, eps: float, init: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """One rung: newton_solve for -lap_h u = d^(-beta) (u+eps)^(-alpha) on
    spec's grid, with eps required positive and finite."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    return newton_solve(spec.make_grid(), spec.alpha, spec.beta, init, tol=tol, eps=eps)


def epsilon_continuation(
    spec: ProblemSpec,
    eps_start: float,
    eps_factor: float,
    steps: int,
    u_ref: np.ndarray,
    tol: float = 1e-10,
) -> ContinuationReport:
    """Warm-started Newton chain over eps_k = eps_start * eps_factor^k.

    The first rung starts from the supersolution barrier, which keeps the
    Jacobian SPD territory on the way down; each later rung starts from the
    previous one.  deltas measures each rung against u_ref in sup norm.
    ValueError, before any solve, unless eps_start and tol are positive and
    finite, 0 < eps_factor < 1 and steps is an integer >= 1.
    """
    check_tol(tol)
    if not (math.isfinite(eps_start) and eps_start > 0):
        raise ValueError(f"eps_start must be positive and finite, got {eps_start}")
    if not 0 < eps_factor < 1:
        raise ValueError("eps_factor must lie in (0, 1)")
    if not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    grid = spec.make_grid()
    u_ref = grid.check_field(u_ref)
    pair = build_barrier_pair(grid, spec.alpha, spec.beta)
    ref_scale = float(np.max(np.abs(u_ref)))

    eps_values = eps_start * eps_factor ** np.arange(steps)
    fields: list[np.ndarray] = []
    deltas = np.empty(steps)
    current = pair.super
    for k, eps in enumerate(eps_values):
        current = solve_regularized(spec, float(eps), current, tol=tol)
        fields.append(current)
        deltas[k] = float(np.max(np.abs(current - u_ref)))
    drops = np.diff(deltas)
    monotone = bool(np.all(drops <= 1e-12 * ref_scale))
    if not monotone:
        warnings.warn(
            "distance to the reference did not decrease monotonically along "
            "the eps ladder; nothing guarantees it, flagging only",
            stacklevel=2,
        )
    return ContinuationReport(
        eps_values=eps_values, fields=fields, deltas=deltas, deltas_monotone=monotone
    )
