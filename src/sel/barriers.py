"""Certified sub/supersolution pairs.

Two regimes, split by s = alpha + beta:

* s < 1 (low): the subsolution is c phi_1 and the supersolution is C psi,
  where psi solves -lap_h psi = d^(-(alpha+beta)); both behave like d and
  the weight of the monotone iteration's gap norm is d^(-gamma) with
  gamma = 1 + alpha.
* s > 1 (high): both barriers are multiples of phi_1^t with boundary
  exponent t = (2-beta)/(1+alpha), and gamma = 2.

Both sides use one exact scaling rule.  The defect of s*base is
s*lap - d^(-beta) base^(-alpha) s^(-alpha) with lap = -lap_h(base), so

    c = min over {lap > 0} of (d^(-beta) base^(-alpha) / lap)^(1/(1+alpha))

is the largest constant for which the discrete subsolution inequality
holds at every node, and the same expression with max is the smallest
supersolution constant C; a nonpositive lap for the supersolution profile
means no scale works (HopfViolationError).  That exactness, free of
truncation slack, keeps the two-sided chain of the monotone iteration
ordered to round-off.  A round-off guard then nudges each constant (c down,
C up, by ~1e-10 relative at most on fine grids) until the inequality also
holds in floating point.

The borderline s = 1 is where the regime split degenerates: both exponent
formulas give t = 1, but no existence theory covers the case and sandwich
constants may drift under refinement.  resolve_regime attaches a warning
there and the builders proceed through the common t = 1 limit, so the
borderline can still be solved and cross-checked deliberately; the CLI
refuses it except at alpha = 1, beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, assemble_laplacian, power_weight
from .linear_core import SolverFailure, solve_spd
from .spectral import EigenPair, dirichlet_eigenpair


class HopfViolationError(SolverFailure):
    """The discrete eigenfunction lacks the boundary slope bound; refine."""


class BarrierConstructionError(SolverFailure):
    """A constructed field could not be made to satisfy its inequality."""


BORDERLINE_WARNING = (
    "alpha+beta=1 is the borderline between regimes; proceeding with the "
    "common t=1 limit, outside the covered existence theory"
)
ALPHA_ONE_WARNING = (
    "alpha=1, beta=0 sits between the two regimes and is not covered by the "
    "existence theorems; proceeding with the t=1 limit"
)


@dataclass(frozen=True)
class Regime:
    """Everything (alpha, beta) fixes through the split at alpha + beta = 1.

    t is the boundary exponent (u ~ d^t) and sigma the gradient exponent
    (|grad u| ~ d^sigma), None on the borderline, where no gradient law is
    known.  q_bar is the critical threshold with int |grad u|^q finite
    exactly for q < q_bar, +inf unless the gradient blows up.  gamma is the
    weight exponent of the monotone iteration's gap norm.  warnings is
    nonempty exactly on the borderline.
    """

    t: float
    sigma: float | None
    q_bar: float
    gamma: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CertReport:
    """Outcome of the nodewise barrier inequality check."""

    side: str
    worst_violation: float
    threshold: float
    passed: bool
    worst_node: int


@dataclass(frozen=True)
class BarrierPair:
    """Ordered pair 0 < sub <= super with its certificates.

    c and C scale the underlying profiles; c1, c2 are the sandwich constants
    in c1 d^t <= sub <= super <= c2 d^t.
    """

    sub: np.ndarray
    super: np.ndarray
    c: float
    C: float
    t: float
    c1: float
    c2: float


def resolve_regime(alpha: float, beta: float) -> Regime:
    """The Regime of (alpha, beta); ValueError outside alpha >= 0, 0 <= beta < 2.

    Below the split: t = 1, sigma = 0 (gradient bounded), gamma = 1 + alpha.
    Above it: t = (2-beta)/(1+alpha), sigma = t - 1,
    q_bar = (1+alpha)/(alpha+beta-1), gamma = 2.  The borderline
    alpha+beta = 1 resolves to the common limit t = 1 with gamma = 2 and a
    warning attached.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not 0 <= beta < 2:
        raise ValueError(f"beta must satisfy 0 <= beta < 2, got {beta}")
    s = alpha + beta
    if s < 1:
        return Regime(t=1.0, sigma=0.0, q_bar=math.inf, gamma=1.0 + alpha)
    if s > 1:
        return Regime(
            t=(2.0 - beta) / (1.0 + alpha),
            sigma=(1.0 - alpha - beta) / (1.0 + alpha),
            q_bar=(1.0 + alpha) / (alpha + beta - 1.0),
            gamma=2.0,
        )
    warning = ALPHA_ONE_WARNING if alpha == 1 else BORDERLINE_WARNING
    return Regime(t=1.0, sigma=None, q_bar=math.inf, gamma=2.0, warnings=(warning,))


def _defect(A0, w_beta: np.ndarray, field: np.ndarray, alpha: float) -> np.ndarray:
    # Strong-form defect -lap_h(field) - d^(-beta) field^(-alpha); <= 0 for
    # a subsolution, >= 0 for a supersolution.
    return A0 @ field - w_beta * field ** (-alpha)


def _exact_scale(A0, w_beta, base, alpha, side) -> float:
    # At a node with lap = A0 @ base > 0 the inequality for s*base bounds s
    # alone; nodes with lap <= 0 never bind a sub and defeat any super.
    lap = A0 @ base
    if side == "super" and lap.min() <= 0.0:
        raise HopfViolationError(
            "nonpositive -lap_h of the supersolution profile: no boundary slope "
            "bound at this resolution; refine the grid"
        )
    pos = lap > 0.0
    bound = (w_beta[pos] * base[pos] ** (-alpha) / lap[pos]) ** (1.0 / (1.0 + alpha))
    scale = float(bound.min() if side == "sub" else bound.max())
    return _enforce_exact(A0, w_beta, base, scale, alpha, side)


def _enforce_exact(A0, w_beta, base, scale, alpha, side) -> float:
    # Round-off guard: A0 @ (scale*base) is not exactly scale*(A0 @ base),
    # so the binding node can sit ~1e-10 relative on the wrong side.  Nudge
    # the scale (down for sub, up for super) by relative steps doubling from
    # 1e-14; the defect is monotone in the scale, and anything beyond ~1e-3
    # signals a broken construction.
    sign = 1.0 if side == "sub" else -1.0
    delta = 0.0
    while True:
        nudged = scale * (1.0 - sign * delta)
        worst = np.max(sign * _defect(A0, w_beta, nudged * base, alpha))
        if worst <= 0.0:
            return nudged
        delta = 1e-14 if delta == 0.0 else 2.0 * delta
        if delta > 1e-3:
            raise BarrierConstructionError(
                f"{side}solution inequality cannot be enforced; worst defect {sign * worst:.3e}"
            )


def build_subsolution(
    grid: Grid, alpha: float, beta: float, eig: EigenPair
) -> tuple[float, np.ndarray]:
    """Largest-constant subsolution c phi_1^t (exact scaling rule)."""
    base = eig.field ** resolve_regime(alpha, beta).t
    c = _exact_scale(assemble_laplacian(grid), power_weight(grid, beta), base, alpha, "sub")
    return c, c * base


def build_supersolution(
    grid: Grid, alpha: float, beta: float, eig: EigenPair
) -> tuple[float, np.ndarray]:
    """Smallest-constant supersolution C psi (t = 1) or C phi_1^t (t < 1).

    psi solves -lap_h psi = d^(-(alpha+beta)), which behaves like d.
    """
    t = resolve_regime(alpha, beta).t
    A0 = assemble_laplacian(grid)
    if t == 1.0:
        # psi need not be accurate: C is scaled from A0 @ psi itself
        base, _ = solve_spd(A0, power_weight(grid, alpha + beta), tol=1e-9)
    else:
        base = eig.field**t
    C = _exact_scale(A0, power_weight(grid, beta), base, alpha, "super")
    return C, C * base


def verify_barrier(
    grid: Grid,
    field: np.ndarray,
    alpha: float,
    beta: float,
    side: str,
    tol: float = 1e-8,
) -> CertReport:
    """Nodewise check of the discrete barrier inequality.

    The pass threshold tol * h^t * max(diag(-lap_h)) scales like the
    truncation error of a d^t profile at the first node layer, so exactly
    constructed barriers pass with room while a field off by any finite
    factor fails decisively.
    """
    field = grid.check_field(field)
    if field.min() <= 0.0:
        raise ValueError("barrier candidate must be positive nodewise")
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    regime = resolve_regime(alpha, beta)
    A0 = assemble_laplacian(grid)
    defect = _defect(A0, power_weight(grid, beta), field, alpha)
    signed = defect if side == "sub" else -defect
    worst_node = int(np.argmax(signed))
    worst = float(signed[worst_node])
    threshold = tol * min(grid.h) ** regime.t * float(A0.diagonal().max())
    return CertReport(
        side=side,
        worst_violation=worst,
        threshold=threshold,
        passed=worst <= threshold,
        worst_node=worst_node,
    )


def build_barrier_pair(
    grid: Grid,
    alpha: float,
    beta: float,
    eig: EigenPair | None = None,
) -> BarrierPair:
    """Construct, order, and certify a full barrier pair for the instance.

    eig defaults to the closed-form principal eigenpair of the grid.
    """
    if eig is None:
        eig = dirichlet_eigenpair(grid)
    regime = resolve_regime(alpha, beta)
    c, sub = build_subsolution(grid, alpha, beta, eig)
    C, sup = build_supersolution(grid, alpha, beta, eig)
    ratio = float(np.max(sub / sup))
    if ratio > 1.0:
        # Growing C preserves the supersolution inequality, so ordering can
        # always be restored by rescaling; the comparison principle orders
        # the exact-scale pair up to round-off.
        bump = ratio * (1.0 + 1e-12)
        C *= bump
        sup = sup * bump
    dt = grid.d**regime.t
    return BarrierPair(
        sub=sub,
        super=sup,
        c=c,
        C=C,
        t=regime.t,
        c1=float(np.min(sub / dt)),
        c2=float(np.max(sup / dt)),
    )
