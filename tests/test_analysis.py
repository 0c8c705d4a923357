import math

import numpy as np
import pytest

from sel import analysis
from sel.analysis import (
    FitWindow,
    InconsistentClassificationError,
    WindowTooThinError,
    asymptotic_window,
    default_window,
    estimate_critical_q,
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    h1_membership,
    regularity_report,
    sobolev_integral,
    uniqueness_identity,
)
from sel.barriers import resolve_regime
from sel.grid import build_grid, interval, rectangle
from sel.oracle import observed_order


def test_fit_window_validation():
    with pytest.raises(ValueError):
        FitWindow(0.0, 0.1)
    with pytest.raises(ValueError):
        FitWindow(0.2, 0.1)
    g = build_grid(interval(1.0), 64)
    w = default_window(g)
    assert min(g.h) <= w.d_min < w.d_max <= 0.1 * g.shape.diameter


def test_synthetic_power_law_recovery(lab):
    grid = lab.grid(4096)
    for s in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        u = grid.d**s
        t_fit, c_fit = fit_boundary_exponent(grid, u, asymptotic_window(grid))
        assert abs(t_fit - s) <= 0.01
        assert c_fit == pytest.approx(1.0, rel=0.05)
        sigma = fit_gradient_exponent(grid, u, asymptotic_window(grid))
        assert abs(sigma - (s - 1.0)) <= 0.02 or s == 1.0
    # exact linear profile: the fit is exact and the gradient is flat
    t_fit, _ = fit_boundary_exponent(grid, grid.d, asymptotic_window(grid))
    assert t_fit == pytest.approx(1.0, abs=1e-10)


def test_fit_requires_positive_field_and_enough_nodes(lab):
    grid = lab.grid(64)
    with pytest.raises(ValueError):
        fit_boundary_exponent(grid, -grid.d)
    with pytest.raises(WindowTooThinError):
        fit_boundary_exponent(grid, grid.d, FitWindow(grid.h[0], 1.9 * grid.h[0]))


def test_gradient_field_examples():
    g = build_grid(interval(1.0), 64)
    x = g.axes[0]
    np.testing.assert_allclose(gradient_field(g, x * (1 - x) / 2), np.abs(0.5 - x), atol=1e-13)
    np.testing.assert_array_equal(gradient_field(g, np.zeros(63)), np.zeros(63))


def test_gradient_field_second_order():
    errors, hs = [], []
    for n in (32, 64, 128):
        g = build_grid(interval(1.0), n)
        x = g.axes[0]
        err = np.max(np.abs(gradient_field(g, np.sin(np.pi * x)) - np.pi * np.abs(np.cos(np.pi * x))))
        errors.append(err)
        hs.append(g.h[0])
    order, reliable = observed_order(errors, hs)
    assert reliable
    assert order >= 1.9


def test_sobolev_integral_smooth_case():
    # nodal quadrature misses half cells at the wall, so convergence to the
    # continuum value is first order in h for gradients alive at the boundary
    for n, tol in ((512, 5e-4), (2048, 1.3e-4)):
        g = build_grid(interval(1.0), n)
        u = g.axes[0] * (1 - g.axes[0]) / 2
        assert sobolev_integral(g, u, 2.0) == pytest.approx(1.0 / 12.0, abs=tol)
    g = build_grid(interval(1.0), 512)
    u = g.axes[0] * (1 - g.axes[0]) / 2
    vals = []
    for n in (128, 256):
        gg = build_grid(interval(1.0), n)
        vals.append(sobolev_integral(gg, gg.axes[0] * (1 - gg.axes[0]) / 2, 1.0))
    assert vals[1] == pytest.approx(vals[0], rel=1e-2)
    with pytest.raises(ValueError):
        sobolev_integral(g, u, 0.5)


def test_sobolev_integral_diverges_past_threshold(lab):
    # u ~ d^(2/3) has q_bar = 3; q = 4 must blow up under refinement
    vals = [sobolev_integral(lab.grid(n), lab.grid(n).d ** (2.0 / 3.0), 4.0) for n in (1024, 2048)]
    assert vals[1] / vals[0] >= 1.1


def test_q_bar_theory_values():
    assert resolve_regime(2.0, 0.0).q_bar == pytest.approx(3.0)
    assert resolve_regime(2.0, 1.0).q_bar == pytest.approx(1.5)
    assert resolve_regime(0.5, 0.2).q_bar == math.inf
    assert resolve_regime(0.5, 0.5).q_bar == math.inf


def test_estimate_critical_q_synthetic(lab):
    levels = [(lab.grid(n), lab.grid(n).d ** (2.0 / 3.0)) for n in (1024, 2048, 4096)]
    q = estimate_critical_q(levels)
    assert q == pytest.approx(3.0, rel=0.1)
    flat = [(lab.grid(n), lab.grid(n).d) for n in (1024, 2048, 4096)]
    assert estimate_critical_q(flat) == math.inf


def test_estimate_critical_q_flags_contradiction(lab):
    # flat gradient in the window but a hidden spike at the first node: the
    # slope says "no threshold" while the q=2 integral diverges
    levels = []
    for n in (512, 1024, 2048):
        g = lab.grid(n)
        u = g.d.copy()
        u[0] = 10.0
        levels.append((g, u))
    with pytest.raises(InconsistentClassificationError):
        estimate_critical_q(levels)


def test_low_regime_gradient_is_effectively_flat(lab):
    # below the regime split the solution is C^1 up to the boundary: the
    # fitted gradient exponent only carries the slowly decaying cusp bias
    # beta > 0 slows the cusp decay, so that case needs the finer grid
    spec_cases = ((0.5, 0.0, 1024), (0.5, 0.2, 2048))
    from sel.barriers import build_barrier_pair
    from sel.monotone import solve_monotone
    from sel.problem import ProblemSpec, SolveConfig

    for alpha, beta, n in spec_cases:
        spec = ProblemSpec(alpha=alpha, beta=beta, n=n, config=SolveConfig(tol=1e-7, max_iter=3000))
        grid = spec.make_grid()
        rep = solve_monotone(spec, build_barrier_pair(grid, alpha, beta))
        sigma = fit_gradient_exponent(grid, rep.upper, asymptotic_window(grid))
        assert abs(sigma) <= 0.1, (alpha, beta, sigma)


def test_h1_membership_alpha_zero_limit():
    from sel.grid import assemble_laplacian
    from sel.linear_core import solve_spd

    levels = []
    for n in (128, 256, 512):
        g = build_grid(interval(1.0), n)
        u, _ = solve_spd(assemble_laplacian(g), np.ones(g.num_interior), tol=1e-13)
        levels.append((g, u))
    report = h1_membership(levels)
    assert report.verdict == "member"
    assert report.values[-1] == pytest.approx(1.0 / 12.0, abs=6e-4)


def test_h1_membership_synthetic(lab):
    member = [(lab.grid(n), lab.grid(n).d ** 0.8) for n in (512, 1024, 2048)]
    assert h1_membership(member).verdict == "member"
    non = [(lab.grid(n), lab.grid(n).d ** 0.3) for n in (512, 1024, 2048)]
    report = h1_membership(non)
    assert report.verdict == "non-member"
    assert all(r >= 1.1 for r in report.ratios)
    mixed = member[:2] + non[1:2]
    assert h1_membership(mixed).verdict == "inconclusive"
    with pytest.raises(ValueError):
        h1_membership(member[:2])


def test_uniqueness_identity_values(lab):
    grid = lab.grid(128)
    u = grid.d + 0.1
    assert uniqueness_identity(grid, u, u, 1.0, 0.5) == 0.0
    from sel.grid import power_weight

    expected = 1.5 * np.sum(power_weight(grid, 0.5)) * grid.cell_volume
    assert uniqueness_identity(grid, u, 2 * u, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)
    assert uniqueness_identity(grid, u, 2 * u, 1.0, 0.5) > 0


def test_2d_fits_mask_out_corners():
    g = build_grid(rectangle(1.0, 1.0), 96)
    u = g.d ** (2.0 / 3.0)
    t_fit, _ = fit_boundary_exponent(g, u, FitWindow(2 * g.h[0], 0.1))
    assert t_fit == pytest.approx(2.0 / 3.0, abs=0.02)


def test_regularity_report_synthetic_ladder(lab):
    levels = [(lab.grid(n), 1.3 * lab.grid(n).d ** (2.0 / 3.0)) for n in (512, 1024, 2048)]
    rep = regularity_report(levels, 2.0, 0.0)
    assert rep.t_fit == pytest.approx(2.0 / 3.0, abs=0.01)
    assert rep.q_bar_theory == pytest.approx(3.0)
    assert rep.q_bar_est == pytest.approx(3.0, rel=0.1)
    assert rep.verdicts["exponent_consistency"]
    assert rep.verdicts["h1"] == "member"
    assert len(rep.h1_norms) == 3


def test_regularity_report_q_grid_below_the_slope_estimate(lab):
    # q = 1.5 < 1.2 q_bar converges, which cannot confirm a threshold near
    # 3: the slope estimate is reported, flagged, rather than q_bar = inf.
    levels = [(lab.grid(n), 1.3 * lab.grid(n).d ** (2.0 / 3.0)) for n in (512, 1024, 2048)]
    rep = regularity_report(levels, 2.0, 0.0, q_grid=[1.5])
    assert rep.q_bar_est == pytest.approx(-1.0 / rep.sigma_fit)
    assert rep.q_bar_est == pytest.approx(3.0, rel=0.1)
    assert rep.verdicts["q_bar_consistency"] is False


def test_regularity_report_fits_sigma_and_integrates_q2_once(lab, monkeypatch):
    # the q_bar cross-check reuses the report's sigma_fit, and the h1 verdict
    # and h1_norms share one q=2 integral per level
    fits, energies = [], []

    def counted_fit(*args):
        fits.append(args)
        return fit_gradient_exponent(*args)

    def counted_integral(grid, u, q):
        if q == 2.0:
            energies.append(grid.n)
        return sobolev_integral(grid, u, q)

    monkeypatch.setattr(analysis, "fit_gradient_exponent", counted_fit)
    monkeypatch.setattr(analysis, "sobolev_integral", counted_integral)
    levels = [(lab.grid(n), 1.3 * lab.grid(n).d ** (2.0 / 3.0)) for n in (512, 1024, 2048)]
    rep = regularity_report(levels, 2.0, 0.0)
    assert len(fits) == 1
    assert energies == [512, 1024, 2048]
    window = asymptotic_window(levels[-1][0])
    assert rep.q_bar_est == estimate_critical_q(levels, window)
    h1 = h1_membership(levels)
    assert rep.verdicts["h1"] == h1.verdict
    assert rep.h1_norms == [math.sqrt(v) for v in h1.values]
