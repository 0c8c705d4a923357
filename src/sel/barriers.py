"""Certified sub/supersolution pairs and the monotonizing shift.

Two regimes, split by s = alpha + beta:

* s < 1 (low): the subsolution is c phi_1 and the supersolution is C psi,
  where psi solves -lap_h psi = d^(-(alpha+beta)); both behave like d and
  the shift weight is gamma = 1 + alpha.
* s > 1 (high): both barriers are multiples of phi_1^t with boundary
  exponent t = (2-beta)/(1+alpha), and gamma = 2.

The constants come from the closed-form sufficient conditions below,
evaluated on the grid.  Because the discrete operator carries truncation
error that the continuum identities do not see, each constructed field is
then nudged (c down, C up, by round-off-sized relative amounts) until its
discrete inequality holds exactly at every node.  The monotone iteration
relies on that exactness: it is what keeps the two-sided chain ordered to
round-off instead of to truncation level.

The borderline s = 1 is where the regime split degenerates: both exponent
formulas give t = 1, but no existence theory covers the case and sandwich
constants may drift under refinement.  boundary_exponent refuses it;
the builders proceed through the common t = 1 limit and attach a warning,
so the borderline can still be solved and cross-checked deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, assemble_laplacian, gradient_components, power_weight
from .linear_core import solve_spd
from .spectral import EigenPair, principal_eigenpair


class BorderlineRegimeError(ValueError):
    """alpha + beta = 1: neither regime's hypotheses hold."""


class HopfViolationError(RuntimeError):
    """The discrete eigenfunction lacks the boundary slope bound; refine."""


class BarrierConstructionError(RuntimeError):
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
    t: float
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
    in c1 d^t <= sub <= super <= c2 d^t; M and gamma define the monotonizing
    shift M d^(-gamma) under which s -> d^(-beta) s^(-alpha) + M d^(-gamma) s
    is nondecreasing on [sub(x), super(x)] at every node.
    """

    sub: np.ndarray
    super: np.ndarray
    c: float
    C: float
    t: float
    c1: float
    c2: float
    M: float
    gamma: float
    warnings: tuple[str, ...] = ()


def resolve_regime(alpha: float, beta: float) -> Regime:
    """Boundary exponent t and shift weight gamma for (alpha, beta).

    The borderline alpha+beta = 1 resolves to the common limit t = 1 with
    gamma = 2 and a warning attached; use boundary_exponent for the strict
    classification that refuses the borderline outright.
    """
    if not 0 <= beta < 2:
        raise ValueError(f"beta must satisfy 0 <= beta < 2, got {beta}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    s = alpha + beta
    if s < 1:
        return Regime(t=1.0, gamma=1.0 + alpha)
    if s > 1:
        return Regime(t=(2.0 - beta) / (1.0 + alpha), gamma=2.0)
    warning = ALPHA_ONE_WARNING if alpha == 1 else BORDERLINE_WARNING
    return Regime(t=1.0, gamma=2.0, warnings=(warning,))


def boundary_exponent(alpha: float, beta: float) -> float:
    """t with u ~ d^t: 1 below the regime split, (2-beta)/(1+alpha) above.

    Refuses alpha+beta = 1 (BorderlineRegimeError): the regimes only meet
    there in the limit and the sandwich may pick up logarithmic corrections.
    """
    regime = resolve_regime(alpha, beta)
    if regime.warnings:
        raise BorderlineRegimeError(
            f"alpha+beta = {alpha + beta} is the excluded borderline; "
            "both regimes degenerate to t=1 but neither applies"
        )
    return regime.t


def _defect(A0, w_beta: np.ndarray, field: np.ndarray, alpha: float) -> np.ndarray:
    # Strong-form defect -lap_h(field) - d^(-beta) field^(-alpha); <= 0 for
    # a subsolution, >= 0 for a supersolution.
    return A0 @ field - w_beta * field ** (-alpha)


def _enforce_exact(A0, w_beta, base, scale, alpha, side) -> float:
    # Nudge the scale factor until the discrete inequality holds at every
    # node: down for sub (defect <= 0), up for super (defect >= 0).  The
    # defect is monotone in the scale, so relative steps doubling from 1e-14
    # terminate; anything beyond ~1e-3 signals a broken construction.
    sign = 1.0 if side == "sub" else -1.0
    delta = 0.0
    while True:
        factor = 1.0 - sign * delta
        worst = sign * np.max(sign * _defect(A0, w_beta, scale * factor * base, alpha))
        if (side == "sub" and worst <= 0.0) or (side == "super" and worst >= 0.0):
            return scale * factor
        delta = 1e-14 if delta == 0.0 else 2.0 * delta
        if delta > 1e-3:
            raise BarrierConstructionError(
                f"{side}solution inequality cannot be enforced; worst defect {worst:.3e}"
            )


def build_subsolution(
    grid: Grid, alpha: float, beta: float, eig: EigenPair
) -> tuple[float, np.ndarray]:
    """Largest-constant subsolution from the principal eigenpair.

    Low regime (t=1): c phi_1 with c = (lambda_1 max[phi_1^(1+alpha) d^beta])^(-1/(1+alpha)),
    which makes the discrete inequality hold with equality at the binding node.
    High regime: c phi_1^t with c from the closed condition
    t(1-t) max|grad_h phi_1|^2 + lambda_1 t <= 1/c^(1+alpha).
    """
    regime = resolve_regime(alpha, beta)
    t, lam, phi = regime.t, eig.value, eig.field
    A0 = assemble_laplacian(grid)
    w_beta = power_weight(grid, beta)
    if t == 1.0:
        c = float((lam * np.max(phi ** (1.0 + alpha) * grid.d**beta)) ** (-1.0 / (1.0 + alpha)))
        base = phi
    else:
        gsq = sum(g * g for g in gradient_components(grid, phi, one_sided_boundary=True))
        c = float((t * (1.0 - t) * np.max(gsq) + lam * t) ** (-1.0 / (1.0 + alpha)))
        base = phi**t
    c = _enforce_exact(A0, w_beta, base, c, alpha, "sub")
    return c, c * base


def build_supersolution(
    grid: Grid, alpha: float, beta: float, eig: EigenPair, margin: float = 0.1
) -> tuple[float, np.ndarray]:
    """Smallest-constant supersolution, padded by the given margin.

    Low regime: C psi where -lap_h psi = d^(-(alpha+beta)) and
    C = max[(d/psi)^(alpha/(1+alpha))] (1+margin); the solve makes the
    inequality exact, so here the margin is pure ordering slack against the
    subsolution.
    High regime: C phi_1^t with 1/C^(1+alpha) = min over nodes of
    (d/phi_1)^beta (t(1-t)|grad_h phi_1|^2 + lambda_1 t phi_1^2), the
    nodewise condition that subsumes the near-boundary / interior case split.
    """
    regime = resolve_regime(alpha, beta)
    t, lam, phi = regime.t, eig.value, eig.field
    A0 = assemble_laplacian(grid)
    w_beta = power_weight(grid, beta)
    if t == 1.0:
        # modest tolerance: relative residuals bottom out near eps*cond(A)
        # for any solver on fine grids, and the exactness loop below repairs
        # any residual-level slack anyway
        psi, _ = solve_spd(A0, power_weight(grid, alpha + beta), tol=1e-9)
        C = float(np.max(grid.d / psi) ** (alpha / (1.0 + alpha))) * (1.0 + margin)
        base = psi
    else:
        gsq = sum(g * g for g in gradient_components(grid, phi, one_sided_boundary=True))
        bracket = (grid.d / phi) ** beta * (t * (1.0 - t) * gsq + lam * t * phi**2)
        lo = float(bracket.min())
        if lo <= 0.0:
            raise HopfViolationError(
                "nonpositive supersolution bracket: the discrete eigenfunction "
                "has no boundary slope bound at this resolution; refine the grid"
            )
        C = float(lo ** (-1.0 / (1.0 + alpha))) * (1.0 + margin)
        base = phi**t
    C = _enforce_exact(A0, w_beta, base, C, alpha, "super")
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


def _shift_bound(sub: np.ndarray, grid: Grid, alpha: float, beta: float, gamma: float) -> float:
    if alpha == 0.0:
        return 0.0
    return float(alpha * np.max(grid.d ** (gamma - beta) * sub ** (-(1.0 + alpha))))


def choose_M(pair: BarrierPair, grid: Grid, alpha: float, beta: float) -> float:
    """Smallest shift making the iteration map nondecreasing on [sub, super].

    The map s -> d^(-beta) s^(-alpha) + M d^(-gamma) s has derivative
    -alpha d^(-beta) s^(-(1+alpha)) + M d^(-gamma), which is most negative at
    s = sub(x); requiring it nonnegative there at every node gives
    M = alpha max[d^(gamma-beta) sub^(-(1+alpha))].
    """
    return _shift_bound(pair.sub, grid, alpha, beta, pair.gamma)


def build_barrier_pair(
    grid: Grid,
    alpha: float,
    beta: float,
    eig: EigenPair | None = None,
    margin: float = 0.1,
) -> BarrierPair:
    """Construct, order, and certify a full barrier pair for the instance."""
    if eig is None:
        eig = principal_eigenpair(assemble_laplacian(grid), tol=1e-12)
    regime = resolve_regime(alpha, beta)
    c, sub = build_subsolution(grid, alpha, beta, eig)
    C, sup = build_supersolution(grid, alpha, beta, eig, margin=margin)
    ratio = float(np.max(sub / sup))
    if ratio > 1.0:
        # Growing C preserves the supersolution inequality, so ordering can
        # always be restored by rescaling.
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
        M=_shift_bound(sub, grid, alpha, beta, regime.gamma),
        gamma=regime.gamma,
        warnings=regime.warnings,
    )
