"""Certified sub/supersolution pairs.

build_barrier_pair builds and scales the pair; verify_barrier
certifies either side nodewise.  Two regimes, split by s = alpha + beta:

* s <= 1 (low): both barriers are multiples of psi, where psi solves
  -lap_h psi = d^(-(alpha+beta)) on the grid's mirror cell through
  SPDFactor.on_cell (factored by the grid, no pattern scan); it behaves
  like d (like d log(1/d) at s = 1), and
  the weight of the monotone iteration's gap norm is d^(-gamma) with
  gamma = 1 + alpha.  At alpha = 0 psi solves the linear problem itself, so
  c and C bracket 1.
* s > 1 (high): both barriers are multiples of H^t with boundary exponent
  t = (2-beta)/(1+alpha), and gamma = 2.  The profile
  H = phi_1 / sum_i prod_{j != i} psi_j, with psi_i = (L_i/pi) sin(pi x_i/L_i)
  a smooth distance to the two faces normal to axis i, is phi_1 itself on
  an interval (the sum is one empty product).  On a rectangle it is, up to
  a constant factor, the harmonic sum 1 / sum_i 1/psi_i, which behaves like
  d at every edge and is homogeneous of degree 1 at the corners, where
  phi_1 vanishes like x*y.  So H^t falls off like the solution at the
  corners as well as along the edges, and the scale constants do not drift
  with n.  H^t is concave (a concave nondecreasing function of concave
  psi_i), so -lap_h(H^t) > 0 at every node.

Each pair is one positive profile, base, at two scales c <= C that one
pass (_exact_scale) gives.  The base is mirrored from the grid's symmetry
cell first (grid.mirror_fold: psi is solved there, H^t taken at the cell's
nodes, since the closed-form phi rounds differently at x and L - x), so
both sides are mirror-symmetric to the bit and solve_monotone starts its
cell iteration from their cell values; the certificates stay on the full
grid.  The defect of s*base is
s*lap - d^(-beta) base^(-alpha) s^(-alpha) with lap = -lap_h(base), so

    c = min over {lap > 0} of (d^(-beta) base^(-alpha) / lap)^(1/(1+alpha))

is the largest constant for which the discrete subsolution inequality
holds at every node, and the same expression with max is the smallest
supersolution constant C; a nonpositive lap anywhere means no scale gives
a supersolution (C = inf, a HopfViolationError).  That exactness, free of
truncation slack, keeps the two-sided chain of the monotone iteration
ordered to round-off.  For the inequality to hold in floating point too,
each constant then moves (c down, C up) by one a-priori round-off margin,
built on the forward error bound of the product A0 @ base (_exact_scale);
it grows like n^2, from about 1e-12 to 2e-11 relative at interval n = 64
to 5e-9 to 1e-7 at n = 4096.  As t falls to 0 (beta near 2) the margin
passes 1 (at (0, 2 - 1e-10), n = 1024), and a c that is not positive is a
BarrierConstructionError.  verify_barrier, the one barrier rule, then
certifies each side by the sign of its worst defect, with no tolerance; a
failure raises BarrierConstructionError.  The order sub <= super is
c <= C on the one positive profile.  The pair records the grid object and
the (alpha, beta) it was certified for (BarrierPair.certified_for), and its
sides are read-only, so solve_monotone certifies each ladder level's pair
once: it re-verifies only a pair certified for another grid or
(alpha, beta), or not by build_barrier_pair at all.

The borderline s = 1 belongs to the low regime: existence, uniqueness and
stability hold for every alpha >= 0, 0 <= beta < 2, and t, sigma and q_bar
are continuous across the split.  Only the boundary law differs: u behaves
like d (log 1/d)^(1/(1+alpha)) (Crandall, Rabinowitz & Tartar 1977), not a
power of d.  Each n certifies, but c falls with n (like (ln n)^(-1/2) at
alpha = 1, beta = 0) and the power-law fits are biased, which
BORDERLINE_WARNING says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, assemble_laplacian, mirror_fold, power_weight
from .linear_core import SPDFactor, SolverFailure
from .spectral import EigenPair, _forcing, dirichlet_eigenpair


class HopfViolationError(SolverFailure):
    """The discrete eigenfunction lacks the boundary slope bound; refine."""


class BarrierConstructionError(SolverFailure):
    """A constructed field could not be made to satisfy its inequality."""


BORDERLINE_WARNING = (
    "alpha+beta=1: the boundary law is d (log 1/d)^(1/(1+alpha)), not a power "
    "of d, so the barrier constant c drifts with n and the power-law fits "
    "(t_fit, sigma_fit, q_bar_est) are biased"
)


@dataclass(frozen=True)
class Regime:
    """Everything (alpha, beta) fixes through the split at alpha + beta = 1.

    t is the boundary exponent (u ~ d^t) and sigma the gradient exponent
    (|grad u| ~ d^sigma); sigma = 0 means no power-law blow-up, not a
    bounded gradient, since on the borderline |grad u| grows like a power
    of log(1/d).  q_bar is the critical threshold with int |grad u|^q
    finite exactly for q < q_bar, +inf unless the gradient blows up like a
    power.  gamma is the weight exponent of the monotone iteration's gap
    norm.  warnings is (BORDERLINE_WARNING,) exactly on the borderline.
    """

    t: float
    sigma: float
    q_bar: float
    gamma: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CertReport:
    """Outcome of the nodewise barrier inequality check: worst_violation > 0
    (or NaN) breaks the inequality, and passed is worst_violation <= 0."""

    side: str
    worst_violation: float
    passed: bool


@dataclass(frozen=True, eq=False)
class BarrierPair:
    """Ordered pair 0 < sub <= super: c and C scale one profile.

    sub = c * base and super = C * base for the pair's one positive profile
    (psi when t = 1, H^t when t < 1); c1, c2 are the sandwich constants in
    c1 d^t <= sub <= super <= c2 d^t.  certified_for is (grid, alpha, beta)
    on a pair build_barrier_pair certified, whose sub and super are then
    read-only, and None on any other pair, hand-built or made by
    dataclasses.replace (it is not an __init__ argument).
    """

    sub: np.ndarray
    super: np.ndarray
    c: float
    C: float
    t: float
    c1: float
    c2: float
    certified_for: tuple | None = field(default=None, init=False, repr=False)

    def certified_on(self, grid: Grid, alpha: float, beta: float) -> bool:
        """True iff build_barrier_pair certified both sides on this very grid
        object for this (alpha, beta)."""
        cert = self.certified_for
        return cert is not None and cert[0] is grid and cert[1:] == (alpha, beta)


def resolve_regime(alpha: float, beta: float) -> Regime:
    """The Regime of (alpha, beta); ValueError outside alpha >= 0, 0 <= beta < 2.

    Above the split: t = (2-beta)/(1+alpha), sigma = t - 1,
    q_bar = (1+alpha)/(alpha+beta-1), gamma = 2.  At or below it: t = 1,
    sigma = 0 and q_bar = inf, the limits of those formulas at
    alpha+beta = 1, and gamma = 1 + alpha; alpha+beta = 1 also carries
    BORDERLINE_WARNING.  The fields are plain floats for any real input.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not 0 <= beta < 2:
        raise ValueError(f"beta must satisfy 0 <= beta < 2, got {beta}")
    alpha, beta = float(alpha), float(beta)
    s = alpha + beta
    if s > 1:
        return Regime(
            t=(2.0 - beta) / (1.0 + alpha),
            sigma=(1.0 - alpha - beta) / (1.0 + alpha),
            q_bar=(1.0 + alpha) / (alpha + beta - 1.0),
            gamma=2.0,
        )
    warnings = (BORDERLINE_WARNING,) if s == 1 else ()
    return Regime(t=1.0, sigma=0.0, q_bar=math.inf, gamma=1.0 + alpha, warnings=warnings)


def _defect(
    grid: Grid, field: np.ndarray, alpha: float, beta: float, eps: float = 0.0
) -> np.ndarray:
    # Strong-form defect -lap_h(field) - F(field + eps), the one defect: the
    # certificate's (eps = 0; <= 0 for a subsolution, >= 0 for a
    # supersolution), the residual's and Newton's (_weighted_defect).  Each
    # caller has checked field + eps > 0 (grid.check_positive or Newton's
    # floor), so F is the unchecked _forcing.
    return assemble_laplacian(grid) @ field - _forcing(grid, field + eps, alpha, beta)


def _weighted_defect(
    grid: Grid, field: np.ndarray, alpha: float, beta: float, eps: float = 0.0
) -> tuple[np.ndarray, float]:
    # (_defect, its sup norm weighted by d^(beta + t alpha)): the weight
    # cancels the singular scales of both terms near the boundary.
    t = resolve_regime(alpha, beta).t
    defect = _defect(grid, field, alpha, beta, eps)
    return defect, float(np.max(np.abs(defect * power_weight(grid, -(beta + t * alpha)))))


def _exact_scale(A0, f_base, base, alpha) -> tuple[float, float]:
    # f_base = F(base).  At a node with lap = A0 @ base > 0 the inequality
    # for s*base bounds s alone; lap <= 0 never binds c and makes C = inf.
    lap = A0 @ base
    pos = lap > 0.0
    base_pos, lap_pos = base[pos], lap[pos]
    bound = (f_base[pos] / lap_pos) ** (1.0 / (1.0 + alpha))
    # Round-off margin.  A row of k entries of the M-matrix A0 gives lap a
    # relative error of at most k eps (|A0| base)/lap, where
    # |A0| base = 2 diag(A0) base - lap; verify_barrier repeats that error
    # and the powers add a few eps.  A relative change delta of the scale
    # moves the defect by (1+alpha) delta of the forcing, so delta covers
    # all of it twice over; the certificate stays a hard check.
    k = int(np.diff(A0.indptr).max())
    cond = 2.0 * float(np.max(A0.diagonal()[pos] * base_pos / lap_pos, initial=0.0))
    delta = 2.0 * np.finfo(float).eps * (k * cond + alpha + 3.0) / (1.0 + alpha)
    C = float(bound.max()) * (1.0 + delta) if pos.all() else math.inf
    return float(bound.min(initial=math.inf)) * (1.0 - delta), C


def _corner_profile(grid: Grid, phi: np.ndarray) -> np.ndarray:
    # H = 1 / sum_i 1/psi_i with psi_i = (L_i/pi) sin(pi x_i/L_i), written as
    # phi / sum_i prod_{j != i} psi_j for phi = prod_i psi_i up to a constant
    # factor, per axis: on an interval the sum is one empty product, so H is
    # phi; on a rectangle it is psi_x + psi_y over the tensor grid.
    if grid.dim == 1:
        return phi
    psi_x, psi_y = (
        L / np.pi * np.sin(np.pi * ax / L) for ax, L in zip(grid.axes, grid.shape.extents)
    )
    return phi / np.add.outer(psi_x, psi_y).ravel()


def verify_barrier(
    grid: Grid, field: np.ndarray, alpha: float, beta: float, side: str
) -> CertReport:
    """Nodewise check of the discrete barrier inequality by its sign.

    A side passes iff its worst signed defect is <= 0, with no tolerance; a
    NaN defect fails.  ValueError for a field that fails grid.check_positive,
    an unknown side, or (alpha, beta) out of range.
    """
    field = grid.check_positive(field)
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    resolve_regime(alpha, beta)  # rejects out-of-range input
    defect = _defect(grid, field, alpha, beta)
    worst = float(np.max(defect if side == "sub" else -defect))
    return CertReport(side=side, worst_violation=worst, passed=worst <= 0.0)


def build_barrier_pair(
    grid: Grid,
    alpha: float,
    beta: float,
    eig: EigenPair | None = None,
) -> BarrierPair:
    """Construct the barrier pair of the instance, ordered by construction.

    Both sides scale one profile (module docstring): psi when t = 1, H^t
    when t < 1.  One _exact_scale pass gives c <= C (BarrierConstructionError
    unless c > 0, HopfViolationError if no C is finite), and verify_barrier
    certifies each side (BarrierConstructionError if one fails); c1 and c2
    always refer to d^t.
    eig, read only when t < 1, defaults to the closed-form principal
    eigenpair of the grid (cached on it), and H is built per axis from its
    field on every call; a passed eig's field must pass grid.check_positive
    (ValueError).  Either profile is mirrored from the grid's symmetry cell
    before it is scaled, so the pair is mirror-symmetric for any eig.  The
    pair comes back read-only and records the grid and (alpha, beta) it was
    certified for (BarrierPair.certified_for).
    """
    regime = resolve_regime(alpha, beta)
    A0 = assemble_laplacian(grid)
    # the base is mirrored from the cell: both sides are mirror-symmetric to
    # the bit, so solve_monotone starts its cell iteration from their cell
    # values
    fold = mirror_fold(grid)
    if regime.t == 1.0:
        # psi need not be accurate: c and C are scaled from A0 @ psi itself.
        # On the cell, -lap_h psi = d^(-(alpha+beta)) is K psi = w d^(-(alpha+beta))
        factor = SPDFactor.on_cell(grid, np.zeros(fold.w.size))
        psi, _ = factor.solve(fold.w * power_weight(grid, alpha + beta)[fold.rep], tol=1e-9)
        base = psi.astype(float)[fold.idx]
    else:
        phi = dirichlet_eigenpair(grid).field if eig is None else grid.check_positive(eig.field)
        base = (_corner_profile(grid, phi) ** regime.t)[fold.rep][fold.idx]
    c, C = _exact_scale(A0, _forcing(grid, base, alpha, beta), base, alpha)
    if not c > 0.0:  # a margin delta >= 1, or NaN
        raise BarrierConstructionError(
            f"round-off margin exceeds the subsolution scale (c = {c:.3g})"
        )
    if not math.isfinite(C):
        raise HopfViolationError(
            "nonpositive -lap_h of the barrier profile: no boundary slope "
            "bound at this resolution; refine the grid"
        )
    sub, sup = c * base, C * base
    for side, fld in (("sub", sub), ("super", sup)):
        cert = verify_barrier(grid, fld, alpha, beta, side)
        if not cert.passed:
            raise BarrierConstructionError(
                f"{side}solution inequality fails in floating point; "
                f"worst violation {cert.worst_violation:.3e}"
            )
    dt = power_weight(grid, -regime.t)
    for fld in (sub, sup):
        fld.setflags(write=False)
    pair = BarrierPair(
        sub=sub,
        super=sup,
        c=c,
        C=C,
        t=regime.t,
        c1=float(np.min(sub / dt)),
        c2=float(np.max(sup / dt)),
    )
    object.__setattr__(pair, "certified_for", (grid, alpha, beta))  # frozen: set once, here
    return pair
