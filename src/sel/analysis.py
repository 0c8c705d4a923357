"""Quantitative regularity extraction from computed solutions.

Boundary exponent t (u ~ d^t), gradient blow-up exponent sigma
(|grad u| ~ d^sigma), the critical Sobolev threshold q_bar with
int |grad u|^q < infinity exactly for q < q_bar, H^1 membership by
refinement ratios, and the two-solution uniqueness integrand.  The values
the theory predicts for t, sigma and q_bar come from
barriers.resolve_regime; this module measures them.

Exponents are log-log regression slopes over one distance band,
asymptotic_window, on every grid and for every caller.  On a
uniform grid the nodes are linearly dense in d, which would overweight the
top of the band where the boundary asymptotics have not fully set in, so
the regressions weight nodes by 1/d (log-uniform density).  In 2D only
nodes whose nearest boundary point sits on an edge well away from the
corners enter a fit: corners are outside the smooth-boundary hypotheses
and pollute the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barriers import resolve_regime
from .grid import Grid, gradient_components, power_weight

Level = tuple[Grid, np.ndarray]


class WindowTooThinError(ValueError):
    """Fewer than 8 usable nodes, or fewer than 4 distance layers, in the
    fitting band."""


class InconsistentClassificationError(RuntimeError):
    """Slope-based and integral-based q_bar estimates disagree by > 20%."""


@dataclass(frozen=True)
class FitWindow:
    """Distance band [d_min, d_max] used for log-log regression."""

    d_min: float
    d_max: float

    def __post_init__(self):
        if not 0 < self.d_min < self.d_max:
            raise ValueError(f"need 0 < d_min < d_max, got [{self.d_min}, {self.d_max}]")


def asymptotic_window(grid: Grid) -> FitWindow:
    """The one distance band of every exponent fit on grid.

    The boundary power law carries slowly decaying corrections, so the band
    top sits at 1% of the diameter; the bottom skips six node layers, where
    the discrete scheme has its own boundary layer.  On coarser grids the
    band widens, but never past 10% of the diameter: beyond that a log-log
    slope measures interior shape, not the boundary law.  Grids too coarse
    to host any such band raise WindowTooThinError, and so do bands with
    too few nodes or distance layers to regress over (_fit_loglog): a fit
    on such a grid is a typed failure, not a number from a wider, biased
    band.
    """
    diam = grid.shape.diameter
    d_min = 6.0 * min(grid.h)
    d_max = max(0.01 * diam, min(3.0 * d_min, 0.1 * diam))
    if d_min >= d_max:
        raise WindowTooThinError(
            f"grid too coarse for a boundary window: 6h = {d_min:.3g} >= {d_max:.3g}"
        )
    return FitWindow(d_min, d_max)


def _edge_interior_mask(grid: Grid) -> np.ndarray:
    # Nodes whose nearest boundary point lies on an edge at >= 0.2 of that
    # edge's length from its corners.  Trivially all nodes in 1D.
    if grid.dim == 1:
        return np.ones(grid.num_interior, dtype=bool)
    width, height = grid.shape.extents
    pts = grid.points()
    x, y = pts[:, 0], pts[:, 1]
    edge_dists = np.stack([x, width - x, y, height - y])
    nearest = np.argmin(edge_dists, axis=0)
    on_vertical = nearest < 2
    return np.where(
        on_vertical,
        (y >= 0.2 * height) & (y <= 0.8 * height),
        (x >= 0.2 * width) & (x <= 0.8 * width),
    )


def _fit_loglog(grid: Grid, values: np.ndarray) -> tuple[float, float]:
    # weighted log-log regression of values against d over asymptotic_window
    window = asymptotic_window(grid)
    mask = (grid.d >= window.d_min) & (grid.d <= window.d_max) & (values > 0)
    mask &= _edge_interior_mask(grid)
    # A rectangle's edge layer holds many nodes at one distance, so the node
    # count alone admits bands too thin in d to regress over.
    nodes = int(mask.sum())
    layers = np.unique(np.round(grid.d[mask] / min(grid.h))).size
    if nodes < 8 or layers < 4:
        raise WindowTooThinError(
            f"only {nodes} usable nodes on {layers} distance layers in d-band"
            f" [{window.d_min:.3g}, {window.d_max:.3g}]"
        )
    x = np.log(grid.d[mask])
    y = np.log(values[mask])
    w = 1.0 / grid.d[mask]
    w = w / w.sum()
    xb = float((w * x).sum())
    yb = float((w * y).sum())
    slope = float((w * (x - xb) * (y - yb)).sum() / (w * (x - xb) ** 2).sum())
    intercept = yb - slope * xb
    return slope, math.exp(intercept)


def fit_boundary_exponent(grid: Grid, u: np.ndarray) -> tuple[float, float]:
    """(t_fit, c_fit) with u ~ c_fit d^t_fit over asymptotic_window; ValueError
    unless u passes grid.check_positive, WindowTooThinError on a grid too
    coarse for the window."""
    return _fit_loglog(grid, grid.check_positive(u))


def gradient_field(grid: Grid, u: np.ndarray) -> np.ndarray:
    """|grad_h u| per node: central differences with the implicit zero
    boundary value, exact for quadratics at every interior node."""
    comps = gradient_components(grid, u)
    return np.sqrt(sum(g * g for g in comps))


def fit_gradient_exponent(grid: Grid, u: np.ndarray) -> float:
    """Log-log slope sigma_fit of |grad_h u| versus d over asymptotic_window."""
    slope, _ = _fit_loglog(grid, gradient_field(grid, u))
    return slope


def gradient_integral(grid: Grid, grad: np.ndarray, q: float) -> float:
    """Midpoint-rule value of int grad^q over the domain, for grad the nodal
    |grad_h u| of gradient_field: one gradient serves every q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return float(np.sum(grid.check_field(grad) ** q) * grid.cell_volume)


def sobolev_integral(grid: Grid, u: np.ndarray, q: float) -> float:
    """Midpoint-rule value of int |grad_h u|^q over the domain."""
    return gradient_integral(grid, gradient_field(grid, u), q)


def q_bar_from_sigma(sigma_fit: float) -> float:
    """Slope-based threshold -1/sigma_fit; +inf when the gradient exponent is
    too close to 0 (sigma_fit >= -0.01) to predict a threshold."""
    return -1.0 / sigma_fit if sigma_fit < -0.01 else math.inf


# A q is classified divergent when the finest refinement ratio of its
# Sobolev integral stays at least this far above 1.  Reliable only for q
# at least 20% away from the critical threshold, which is why the
# cross-check below never consults q inside that band.
DIVERGENCE_RATIO = 1.05


def _integral_diverges(gradients: list[Level], q: float) -> bool:
    coarse, fine = (gradient_integral(grid, grad, q) for grid, grad in gradients[-2:])
    if coarse == 0.0:
        raise ValueError(f"zero q={q} integral at n={gradients[-2][0].n}: no refinement ratio")
    return fine / coarse >= DIVERGENCE_RATIO


def estimate_critical_q(levels: list[Level]) -> float:
    """q_bar from the gradient exponent, cross-checked by divergence tests.

    Primary estimate: q_bar_from_sigma at the finest level over its
    asymptotic_window.  Cross-check on the q-grid 0.6, 0.8, 1.2,
    1.4 times q_bar (2, 4, 8 when no threshold is predicted); direct
    divergence detection is ill-conditioned near q_bar itself, hence the
    20% exclusion band.  The classification, shared with regularity_report
    (which may pass its own q-grid), is:

    * divergence at q <= 0.8 q_bar, or any convergent q above a divergent
      one, contradicts the slope estimate by more than 20% and raises
      InconsistentClassificationError;
    * no divergence on a grid that never reaches 1.2 q_bar cannot confirm
      the threshold either way and raises InconsistentClassificationError;
    * no divergence on a grid that does reach it means no threshold is
      detectable: the gradient is effectively bounded (a slowly decaying
      near-boundary cusp can drag sigma_fit slightly negative on any
      affordable grid) and the estimate resolves to +inf;
    * otherwise the divergence must start inside (0.8, 1.2) q_bar, which
      confirms q_bar = -1/sigma_fit.
    """
    if len(levels) < 2:
        raise ValueError("need at least 2 refinement levels for the cross-check")
    gradients = [(grid, gradient_field(grid, u)) for grid, u in levels[-2:]]
    grid, grad = gradients[-1]
    sigma, _ = _fit_loglog(grid, grad)
    return _cross_checked_q(gradients, sigma, None)


def _cross_checked_q(gradients: list[Level], sigma: float, q_grid: list[float] | None) -> float:
    # estimate_critical_q's classification, from the finest level's sigma_fit
    # and the (grid, gradient_field) of at least the two finest levels
    q_bar = q_bar_from_sigma(sigma)
    if math.isinf(q_bar):
        qs = q_grid if q_grid is not None else [2.0, 4.0, 8.0]
        for q in qs:
            if _integral_diverges(gradients, q):
                raise InconsistentClassificationError(
                    f"sigma_fit={sigma:.3f} predicts no threshold but the q={q} "
                    "integral diverges under refinement"
                )
        return math.inf
    qs = q_grid if q_grid is not None else [f * q_bar for f in (0.6, 0.8, 1.2, 1.4)]
    qs = sorted(q for q in qs if q >= 1.0)
    flags = [_integral_diverges(gradients, q) for q in qs]
    divergent = [q for q, f in zip(qs, flags) if f]
    if not divergent:
        if max(qs, default=0.0) < 1.2 * q_bar:
            raise InconsistentClassificationError(
                f"no q of the grid reaches 1.2 q_bar_est={q_bar:.3f}; the grid "
                "cannot confirm the threshold"
            )
        return math.inf
    first = divergent[0]
    if first <= 0.8 * q_bar:
        raise InconsistentClassificationError(
            f"q={first:.3f} <= 0.8 q_bar_est diverges; integral threshold "
            f"disagrees with q_bar_est={q_bar:.3f} by > 20%"
        )
    convergent_above = [q for q, f in zip(qs, flags) if not f and q > first]
    if convergent_above:
        raise InconsistentClassificationError(
            f"q={convergent_above[0]:.3f} converges above divergent q={first:.3f}; "
            "refinement data is not monotone in q"
        )
    below = [q for q, f in zip(qs, flags) if not f and q < first]
    if below and below[-1] >= 1.2 * q_bar:
        # the integral threshold is bracketed entirely above 1.2 q_bar
        raise InconsistentClassificationError(
            f"integral threshold lies in ({below[-1]:.3f}, {first:.3f}], "
            f"disagreeing with q_bar_est={q_bar:.3f} by > 20%"
        )
    return q_bar


@dataclass
class H1Report:
    """Dirichlet-energy refinement classification."""

    verdict: str
    values: list[float]
    ratios: list[float]


def h1_membership(levels: list[Level]) -> H1Report:
    """Classify H^1 membership from refinement ratios of int |grad u|^2.

    member: every successive ratio within 10% of 1; non-member: every ratio
    >= 1.1 (persistent growth); anything in between is inconclusive and
    needs refinement.
    """
    if len(levels) < 3:
        raise ValueError("need solutions at >= 3 refinement levels")
    return _classify_h1([sobolev_integral(grid, u, 2.0) for grid, u in levels])


def _classify_h1(values: list[float]) -> H1Report:
    # h1_membership's verdict from the q=2 integrals of the ladder's levels
    if 0.0 in values[:-1]:
        raise ValueError("zero Dirichlet energy on a coarse level: no refinement ratio")
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    if all(abs(r - 1.0) <= 0.1 for r in ratios):
        verdict = "member"
    elif all(r >= 1.1 for r in ratios):
        verdict = "non-member"
    else:
        verdict = "inconclusive"
    return H1Report(verdict=verdict, values=values, ratios=ratios)


def uniqueness_identity(
    grid: Grid, u: np.ndarray, v: np.ndarray, alpha: float, beta: float
) -> float:
    """Quadrature of d^(-beta) (v^(1+alpha) - u^(1+alpha)) / (u^alpha v^alpha).

    Vanishes when u = v; when one field dominates the other, its sign is
    fixed, so a near-zero value for the two monotone limits certifies that
    they are the same solution.  ValueError unless both fields pass
    grid.check_positive.
    """
    u = grid.check_positive(u)
    v = grid.check_positive(v)
    integrand = power_weight(grid, beta) * (v ** (alpha + 1) - u ** (alpha + 1)) / (
        u**alpha * v**alpha
    )
    return float(np.sum(integrand) * grid.cell_volume)


@dataclass
class RegularityReport:
    """Fitted exponents and threshold estimates beside the Regime's theory
    values (t_theory, sigma_theory, q_bar_theory), and per-check verdicts."""

    t_fit: float
    sigma_fit: float
    q_bar_est: float
    q_bar_theory: float
    t_theory: float
    sigma_theory: float | None
    h1_norms: list[float]
    verdicts: dict[str, object] = field(default_factory=dict)


def regularity_report(
    levels: list[Level],
    alpha: float,
    beta: float,
    q_grid: list[float] | None = None,
) -> RegularityReport:
    """Full regularity extraction on a ladder of solved levels.

    Exponents come from the finest level over its asymptotic_window.  With
    >= 2 levels q_bar_est is estimate_critical_q's cross-checked value, on
    q_grid when one is given; an inconsistent classification keeps the
    slope estimate and sets verdicts["q_bar_consistency"] to False.  H^1
    classification needs >= 3 levels and is reported as such when fewer
    are supplied.  Each level's gradient_field is computed once, for the
    sigma fit and every Sobolev integral.
    """
    regime = resolve_regime(alpha, beta)
    grid, u = levels[-1]
    t_fit, _ = fit_boundary_exponent(grid, u)
    gradients = [(g, gradient_field(g, f)) for g, f in levels]
    sigma_fit, _ = _fit_loglog(grid, gradients[-1][1])
    verdicts: dict[str, object] = {}
    if len(levels) >= 2:
        try:
            q_est = _cross_checked_q(gradients, sigma_fit, q_grid)
            verdicts["q_bar_consistency"] = True
        except InconsistentClassificationError:
            # coarse ladders routinely trip the divergence classifier; keep
            # the slope-based estimate and flag it instead of failing
            q_est = q_bar_from_sigma(sigma_fit)
            verdicts["q_bar_consistency"] = False
    else:
        q_est = q_bar_from_sigma(sigma_fit)
    energies = [gradient_integral(g, grad, 2.0) for g, grad in gradients]

    if math.isfinite(regime.q_bar):
        # q_bar is finite exactly above the regime split
        verdicts["exponent_consistency"] = bool(abs(t_fit - 1.0 - sigma_fit) <= 0.05)
    if len(levels) >= 3:
        h1 = _classify_h1(energies)
        verdicts["h1"] = h1.verdict
        theory_member = 2.0 < regime.q_bar
        verdicts["h1_matches_theory"] = (
            h1.verdict == ("member" if theory_member else "non-member")
        )
    else:
        verdicts["h1"] = "needs >= 3 levels"
    return RegularityReport(
        t_fit=t_fit,
        sigma_fit=sigma_fit,
        q_bar_est=q_est,
        q_bar_theory=regime.q_bar,
        t_theory=regime.t,
        sigma_theory=regime.sigma,
        h1_norms=[math.sqrt(e) for e in energies],
        verdicts=verdicts,
    )
