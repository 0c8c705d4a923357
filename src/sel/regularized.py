"""Independent cross-check path: damped Newton on the regularized problem.

Replacing u^(-alpha) by (u+eps)^(-alpha) removes the singularity, so plain
Newton applies; driving eps -> 0 along a geometric ladder with warm starts
recovers the singular solution from a completely different direction than
the monotone iteration.  Agreement of the two paths is the strongest
end-to-end check the laboratory has.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .barriers import build_barrier_pair, resolve_regime
from .grid import Grid, assemble_laplacian, power_weight
from .linear_core import solve_spd
from .problem import ProblemSpec


class NewtonStagnationError(RuntimeError):
    """A Newton solve (regularized or oracle) stalled: step halvings ran out
    or the iteration cap was reached."""


@dataclass
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


def _weighted_defect_norm(grid: Grid, defect: np.ndarray, alpha: float, beta: float) -> float:
    t = resolve_regime(alpha, beta).t
    return float(np.max(np.abs(defect * grid.d ** (beta + t * alpha))))


def solve_regularized(
    spec: ProblemSpec, eps: float, init: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Damped Newton for -lap_h u = d^(-beta) (u+eps)^(-alpha).

    Steps are halved until u + eps stays positive and the weighted defect
    norm decreases; termination on weighted defect <= tol.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grid = spec.make_grid()
    init = grid.check_field(init)
    if init.min() < 0:
        raise ValueError("initial field must be nonnegative")
    alpha, beta = spec.alpha, spec.beta
    A0 = assemble_laplacian(grid)
    w_beta = power_weight(grid, beta)

    u = init.copy()
    defect = A0 @ u - w_beta * (u + eps) ** (-alpha)
    res = _weighted_defect_norm(grid, defect, alpha, beta)
    for _ in range(200):
        if res <= tol:
            return u
        J = (A0 + sp.diags_array(alpha * w_beta * (u + eps) ** (-(1.0 + alpha)))).tocsr()
        delta, _ = solve_spd(J, -defect, tol=1e-10)
        step = 1.0
        for _halving in range(50):
            candidate = u + step * delta
            if candidate.min() + eps > 0.0:
                new_defect = A0 @ candidate - w_beta * (candidate + eps) ** (-alpha)
                new_res = _weighted_defect_norm(grid, new_defect, alpha, beta)
                if new_res < res or new_res <= tol:
                    u, defect, res = candidate, new_defect, new_res
                    break
            step *= 0.5
        else:
            raise NewtonStagnationError(
                f"no descent after 50 halvings at weighted residual {res:.3e}"
            )
    raise NewtonStagnationError(f"Newton did not reach tol={tol:.1e}, stuck at {res:.3e}")


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
    """
    if not 0 < eps_factor < 1:
        raise ValueError("eps_factor must lie in (0, 1)")
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
