"""Quantitative regularity extraction from computed solutions.

Boundary exponent t (u ~ d^t), gradient blow-up exponent sigma
(|grad u| ~ d^sigma), the critical Sobolev threshold q_bar with
int |grad u|^q < infinity exactly for q < q_bar, H^1 membership, and the
two-solution uniqueness integrand.  The values the theory predicts for t,
sigma and q_bar come from barriers.resolve_regime; this module measures them.

On a ladder of 3 or more levels sigma, q_bar = -1/sigma and the H^1 verdict
come from one estimator: the ratio rho of successive refinement increments
of the q=2 integral int |grad_h u|^2 (increment_ratios), which tends to
(h_2^p - h_3^p) / (h_1^p - h_2^p) with p = 1 + 2 sigma on levels of any
spacing h_1 > h_2 > h_3, and to 2^-p where h halves.  H^1 membership is
p > 0, which is rho < 1 only where h halves.

t, and sigma on fewer levels, are log-log regression slopes over one
distance band, asymptotic_window, on every grid and for every caller.  On a
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
from .grid import Grid, power_weight

Level = tuple[Grid, np.ndarray]


class WindowTooThinError(ValueError):
    """Fewer than 8 usable nodes, or fewer than 4 distance layers, in the
    fitting band."""


def asymptotic_window(grid: Grid) -> tuple[float, float]:
    """The one distance band (d_min, d_max) of every exponent fit on grid.

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
    return d_min, d_max


def _edge_interior_mask(grid: Grid) -> np.ndarray:
    # Nodes whose nearest boundary point lies on an edge at >= 0.2 of that
    # edge's length from its corners, per axis; a tie goes to the x walls.
    # Trivially all nodes in 1D.
    if grid.dim == 1:
        return np.ones(grid.num_interior, dtype=bool)
    (x, y), (width, height) = grid.axes, grid.shape.extents
    near_x = np.minimum(x, width - x)[:, None] <= np.minimum(y, height - y)[None, :]
    mid_y = (y >= 0.2 * height) & (y <= 0.8 * height)
    mid_x = (x >= 0.2 * width) & (x <= 0.8 * width)
    return np.where(near_x, mid_y[None, :], mid_x[:, None]).ravel()


def _fit_loglog(grid: Grid, values: np.ndarray) -> float:
    # slope of the weighted log-log regression of values against d over
    # asymptotic_window
    d_min, d_max = asymptotic_window(grid)
    mask = (grid.d >= d_min) & (grid.d <= d_max) & (values > 0)
    mask &= _edge_interior_mask(grid)
    # A rectangle's edge layer holds many nodes at one distance, so the node
    # count alone admits bands too thin in d to regress over.
    nodes = int(mask.sum())
    layers = np.unique(np.round(grid.d[mask] / min(grid.h))).size
    if nodes < 8 or layers < 4:
        raise WindowTooThinError(
            f"only {nodes} usable nodes on {layers} distance layers in d-band"
            f" [{d_min:.3g}, {d_max:.3g}]"
        )
    x = np.log(grid.d[mask])
    y = np.log(values[mask])
    w = 1.0 / grid.d[mask]
    w = w / w.sum()
    xb = float((w * x).sum())
    yb = float((w * y).sum())
    return float((w * (x - xb) * (y - yb)).sum() / (w * (x - xb) ** 2).sum())


def fit_boundary_exponent(grid: Grid, u: np.ndarray) -> float:
    """Log-log slope t_fit of u versus d over asymptotic_window; ValueError
    unless u passes grid.check_positive, WindowTooThinError on a grid too
    coarse for the window."""
    return _fit_loglog(grid, grid.check_positive(u))


def gradient_field(grid: Grid, u: np.ndarray) -> np.ndarray:
    """|grad_h u| per node: per-axis central differences with the implicit
    zero boundary value supplying the missing neighbour, exact for
    quadratics at every interior node."""
    grads = np.gradient(np.pad(grid.check_field(u).reshape(grid.interior_shape), 1), *grid.h)
    if grid.dim == 1:
        grads = [grads]
    interior = (slice(1, -1),) * grid.dim
    return np.sqrt(sum(g[interior] * g[interior] for g in grads)).reshape(-1)


def fit_gradient_exponent(grid: Grid, u: np.ndarray) -> float:
    """Log-log slope sigma_fit of |grad_h u| versus d over asymptotic_window."""
    return _fit_loglog(grid, gradient_field(grid, u))


def gradient_integral(grid: Grid, grad: np.ndarray, q: float) -> float:
    """Midpoint-rule value of int grad^q over the domain, for grad the nodal
    |grad_h u| of gradient_field: one gradient serves every q.  ValueError
    unless q is finite and >= 1, and when the sum overflows double."""
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"q must be finite and >= 1, got {q}")
    with np.errstate(over="ignore"):  # judged below
        value = float(np.sum(grid.check_field(grad) ** q) * grid.cell_volume)
    if not math.isfinite(value):
        raise ValueError(f"int |grad u|^q overflows double at q={q}, n={grid.n}")
    return value


def sobolev_integral(grid: Grid, u: np.ndarray, q: float) -> float:
    """Midpoint-rule value of int |grad_h u|^q over the domain."""
    return gradient_integral(grid, gradient_field(grid, u), q)


def q_bar_from_sigma(sigma_fit: float) -> float:
    """Threshold -1/sigma_fit; +inf when the gradient exponent is too close
    to 0 (sigma_fit >= -0.01) to predict a threshold."""
    return -1.0 / sigma_fit if sigma_fit < -0.01 else math.inf


def increment_ratios(energies: list[float]) -> list[float]:
    """rho_k = (E_{k+2} - E_{k+1}) / (E_{k+1} - E_k) of the q=2 integrals E_k
    on a ladder of any spacing; nan where an increment is 0.

    With |grad u| ~ d^sigma the quadrature misses the layer d < h, so
    E(h) ~ E - C h^p, p = 1 + 2 sigma, and rho_k tends to
    (h_{k+1}^p - h_{k+2}^p) / (h_k^p - h_{k+1}^p), 2^-p where h halves
    (Richardson's reasoning, whether E converges or not).
    """
    steps = [fine - coarse for coarse, fine in zip(energies, energies[1:])]
    return [b / a if a else math.nan for a, b in zip(steps, steps[1:])]


def _spacings(levels: list[Level]) -> list[tuple[float, float, float]]:
    # (h_k, h_{k+1}, h_{k+2}) of each increment ratio of levels, coarse to fine
    hs = [grid.h[0] for grid, _ in levels]
    return list(zip(hs, hs[1:], hs[2:]))


def _log_ratio(p: float, hs: tuple[float, float, float]) -> float:
    # log of (h2^p - h3^p) / (h1^p - h2^p), which falls from +inf to -inf as p
    # grows, in a form free of overflow: expm1 sees only arguments <= 0
    h1, h2, h3 = hs
    a, b = math.log(h2 / h3), math.log(h1 / h2)
    s = abs(p)
    if s == 0.0:
        return math.log(a / b)
    return (a if p < 0 else -b) * s + math.log(math.expm1(-a * s) / math.expm1(-b * s))


def sigma_from_increment(
    rho: float, hs: tuple[float, float, float] | None = None
) -> float | None:
    """sigma_est = (p - 1) / 2 for the p with rho = (h2^p - h3^p) / (h1^p - h2^p),
    hs = (h1, h2, h3) the spacings of the ratio's three levels, coarse to
    fine (None: h halves per level).  Where h halves (or rho is inf),
    p = -log2 rho in closed form; else p comes from bisection, as a
    module-level scipy.optimize import would slow every import of sel.
    None unless rho > 0, as increments that are not monotone carry no
    exponent."""
    if not rho > 0:
        return None
    if hs is None or hs[0] == 2.0 * hs[1] == 4.0 * hs[2] or math.isinf(rho):
        return (-math.log2(rho) - 1.0) / 2.0
    target = math.log(rho)
    lo, hi = -1.0, 1.0
    while _log_ratio(lo, hs) < target:
        lo *= 2.0
    while _log_ratio(hi, hs) > target:
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _log_ratio(mid, hs) > target else (lo, mid)
    return (0.5 * (lo + hi) - 1.0) / 2.0


def _h1_verdict(rhos: list[float], spacings: list[tuple[float, float, float]]) -> str:
    # E_k converges exactly when p > 0, i.e. when rho is below its p -> 0
    # limit log(h2/h3) / log(h1/h2), which is 1 where h halves; inconclusive
    # on increments that are not monotone or on ratios on both sides of it
    sides = {
        rho < math.log(h2 / h3) / math.log(h1 / h2) for rho, (h1, h2, h3) in zip(rhos, spacings)
    }
    if not all(rho > 0 for rho in rhos) or len(sides) != 1:
        return "inconclusive"
    return "member" if sides.pop() else "non-member"


@dataclass
class H1Report:
    """H^1 verdict from the increment ratios of the q=2 integrals (values)
    over the levels; ratios are the plain refinement ratios E_{k+1} / E_k."""

    verdict: str
    values: list[float]
    ratios: list[float]


def h1_membership(levels: list[Level]) -> H1Report:
    """member when every increment ratio rho of int |grad u|^2 gives p > 0
    (rho < 1 where h halves), non-member when every one gives p <= 0, else
    inconclusive; needs >= 3 levels."""
    if len(levels) < 3:
        raise ValueError("need solutions at >= 3 refinement levels")
    values = [sobolev_integral(grid, u, 2.0) for grid, u in levels]
    if 0.0 in values[:-1]:
        raise ValueError("zero Dirichlet energy on a coarse level: no refinement ratio")
    ratios = [fine / coarse for coarse, fine in zip(values, values[1:])]
    return H1Report(_h1_verdict(increment_ratios(values), _spacings(levels)), values, ratios)


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
    values (t_theory, sigma_theory, q_bar_theory), and per-check verdicts;
    sigma_fit and q_bar_est are None where the increments give no
    exponent."""

    t_fit: float
    sigma_fit: float | None
    q_bar_est: float | None
    q_bar_theory: float
    t_theory: float
    sigma_theory: float
    h1_norms: list[float]
    verdicts: dict[str, object] = field(default_factory=dict)


def regularity_report(levels: list[Level], alpha: float, beta: float) -> RegularityReport:
    """Full regularity extraction on a ladder of solved levels.

    t_fit comes from the finest level over its asymptotic_window.  With >= 3
    levels sigma_fit is the sigma_est of the last increment ratio of the q=2
    integrals, h1 is their verdict, and with >= 4 levels q_bar_consistency
    says whether the last two sigma_est agree within 0.05.  With fewer
    levels sigma_fit is the finest level's log-log slope and no H^1 or
    consistency verdict exists.  Each level's gradient_field and q=2
    integral are computed once, for every estimate and h1_norms.  ValueError
    on an empty ladder.
    """
    if not levels:
        raise ValueError("need at least 1 level")
    regime = resolve_regime(alpha, beta)
    grid, u = levels[-1]
    t_fit = fit_boundary_exponent(grid, u)
    gradients = [(g, gradient_field(g, f)) for g, f in levels]
    energies = [gradient_integral(g, grad, 2.0) for g, grad in gradients]
    verdicts: dict[str, object] = {}
    if len(levels) >= 3:
        rhos, spacings = increment_ratios(energies), _spacings(levels)
        sigmas = [sigma_from_increment(rho, hs) for rho, hs in zip(rhos, spacings)]
        sigma_fit = sigmas[-1]
        verdicts["h1"] = _h1_verdict(rhos, spacings)
        theory_member = 2.0 < regime.q_bar
        verdicts["h1_matches_theory"] = (
            verdicts["h1"] == ("member" if theory_member else "non-member")
        )
        if len(levels) >= 4:
            last, prev = sigmas[-1], sigmas[-2]
            verdicts["q_bar_consistency"] = (
                None not in (last, prev) and abs(last - prev) <= 0.05
            )
    else:
        sigma_fit = _fit_loglog(grid, gradients[-1][1])
        verdicts["h1"] = "needs >= 3 levels"
    if math.isfinite(regime.q_bar):
        # q_bar is finite exactly above the regime split
        verdicts["exponent_consistency"] = (
            sigma_fit is not None and abs(t_fit - 1.0 - sigma_fit) <= 0.05
        )
    return RegularityReport(
        t_fit=t_fit,
        sigma_fit=sigma_fit,
        q_bar_est=None if sigma_fit is None else q_bar_from_sigma(sigma_fit),
        q_bar_theory=regime.q_bar,
        t_theory=regime.t,
        sigma_theory=regime.sigma,
        h1_norms=[math.sqrt(e) for e in energies],
        verdicts=verdicts,
    )
