import math

import numpy as np
import pytest

from sel import analysis
from sel.analysis import (
    WindowTooThinError,
    asymptotic_window,
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    gradient_integral,
    h1_membership,
    increment_ratios,
    regularity_report,
    sigma_from_increment,
    sobolev_integral,
    uniqueness_identity,
)
from sel.barriers import resolve_regime
from sel.grid import build_grid, interval, rectangle
from sel.oracle import observed_order


def test_fit_window_validation():
    # the one fit band: six node layers up to 1% of the diameter on fine
    # grids, widening to 3 * 6h but never past 10% on coarser ones
    assert asymptotic_window(build_grid(interval(1.0), 4096)) == (6.0 / 4096, 0.01)
    assert asymptotic_window(build_grid(interval(1.0), 256)) == (6.0 / 256, 18.0 / 256)
    assert asymptotic_window(build_grid(interval(1.0), 64)) == (6.0 / 64, 0.1)
    with pytest.raises(WindowTooThinError):
        asymptotic_window(build_grid(interval(1.0), 60))


def test_synthetic_power_law_recovery(lab):
    grid = lab.grid(4096)
    for s in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        u = grid.d**s
        t_fit = fit_boundary_exponent(grid, u)
        assert abs(t_fit - s) <= 0.01
        sigma = fit_gradient_exponent(grid, u)
        assert abs(sigma - (s - 1.0)) <= 0.02 or s == 1.0
    # exact linear profile: the fit is exact and the gradient is flat
    t_fit = fit_boundary_exponent(grid, grid.d)
    assert t_fit == pytest.approx(1.0, abs=1e-10)


def test_fit_requires_positive_field_and_enough_nodes(lab):
    grid = lab.grid(64)
    with pytest.raises(ValueError):
        fit_boundary_exponent(grid, -grid.d)
    with pytest.raises(WindowTooThinError):
        # the n=64 band [6h, 0.1] holds 2 nodes
        fit_boundary_exponent(grid, grid.d)


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


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_non_finite_q_is_invalid_input(q):
    g = build_grid(interval(1.0), 64)
    u = g.axes[0] * (1 - g.axes[0]) / 2
    with pytest.raises(ValueError, match="q must be finite and >= 1"):
        gradient_integral(g, gradient_field(g, u), q)
    with pytest.raises(ValueError, match="q must be finite and >= 1"):
        sobolev_integral(g, u, q)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 64), (rectangle(1.0, 1.0), 16)])
def test_an_overflowing_integral_is_invalid_input(shape, n):
    # every term 10^400 is past double: a ValueError, not inf, and no
    # RuntimeWarning on the way (the suite makes one an error)
    g = build_grid(shape, n)
    grad = np.full(g.num_interior, 10.0)
    with pytest.raises(ValueError, match="overflows double at q=400.0"):
        gradient_integral(g, grad, 400.0)
    assert math.isfinite(gradient_integral(g, grad, 300.0))


def test_regularity_report_of_an_empty_ladder_is_invalid_input():
    with pytest.raises(ValueError, match="need at least 1 level"):
        regularity_report([], 2.0, 0.0)


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
    # q_bar_est of regularity_report, from the last increment ratio
    levels = [(lab.grid(n), lab.grid(n).d ** (2.0 / 3.0)) for n in (1024, 2048, 4096)]
    assert regularity_report(levels, 2.0, 0.0).q_bar_est == pytest.approx(3.0, rel=0.1)
    flat = [(lab.grid(n), lab.grid(n).d) for n in (1024, 2048, 4096)]
    assert regularity_report(flat, 2.0, 0.0).q_bar_est == math.inf


def test_increment_ratio_tends_to_the_richardson_rate(lab):
    # |grad d^(2/3)| = (2/3) d^(-1/3): the q=2 integral converges like
    # h^(1 + 2 sigma), so successive increments shrink by 2^-(1 + 2 sigma)
    sigma = -1.0 / 3.0
    levels = [(lab.grid(n), lab.grid(n).d ** (2.0 / 3.0)) for n in (256, 512, 1024, 2048, 4096)]
    rhos = increment_ratios([sobolev_integral(g, u, 2.0) for g, u in levels])
    assert len(rhos) == 3
    assert rhos == pytest.approx([2.0 ** -(1.0 + 2.0 * sigma)] * 3, rel=0.01)
    assert sigma_from_increment(rhos[-1]) == pytest.approx(sigma, abs=0.005)
    rep = regularity_report(levels, 2.0, 0.0)
    assert rep.sigma_fit == sigma_from_increment(rhos[-1])
    assert rep.verdicts["q_bar_consistency"] is True
    assert increment_ratios([1.0, 2.0, 2.0]) == [0.0]
    assert math.isnan(increment_ratios([1.0, 1.0, 2.0])[0])


def test_increment_ratio_on_a_ladder_whose_n_does_not_double(lab):
    # rho tends to (h2^p - h3^p) / (h1^p - h2^p), p = 1 + 2 sigma: inverted on
    # the levels' spacings it gives sigma, where -log2 rho would not
    for s, verdict in ((2.0 / 3.0, "member"), (0.3, "non-member")):
        levels = [(lab.grid(n), lab.grid(n).d ** s) for n in (1536, 2048, 3072)]
        (rho,) = increment_ratios([sobolev_integral(g, u, 2.0) for g, u in levels])
        hs = tuple(g.h[0] for g, _ in levels)
        assert sigma_from_increment(rho, hs) == pytest.approx(s - 1.0, abs=0.01)
        assert abs(sigma_from_increment(rho) - (s - 1.0)) > 0.05
        assert h1_membership(levels).verdict == verdict
        assert regularity_report(levels, 2.0, 0.0).sigma_fit == sigma_from_increment(rho, hs)
    # where h halves the closed form stands, bitwise
    assert sigma_from_increment(0.7, (1 / 64, 1 / 128, 1 / 256)) == sigma_from_increment(0.7)
    # p = 0 splits H^1 membership at log(h2/h3) / log(h1/h2), not at rho = 1
    assert sigma_from_increment(1.2, (1 / 96, 1 / 128, 1 / 192)) > -0.5
    assert sigma_from_increment(1.2) < -0.5


def test_non_monotone_increments_are_inconclusive(lab):
    # halving the middle level's field quarters its energy: the increments
    # change sign, rho < 0, and no exponent exists
    levels = [(lab.grid(n), c * lab.grid(n).d ** 0.8) for n, c in ((512, 1.0), (1024, 0.5), (2048, 1.0))]
    rho = increment_ratios([sobolev_integral(g, u, 2.0) for g, u in levels])[0]
    assert rho < 0
    assert sigma_from_increment(rho) is None
    assert h1_membership(levels).verdict == "inconclusive"
    rep = regularity_report(levels, 2.0, 0.0)
    assert rep.verdicts["h1"] == "inconclusive"
    assert rep.verdicts["h1_matches_theory"] is False
    assert rep.sigma_fit is None and rep.q_bar_est is None
    assert rep.verdicts["exponent_consistency"] is False
    # a fourth level whose rho lands on the other side of 1: ratios that
    # disagree on the verdict, and sigma_est that disagree by far more than 0.05
    mixed = [(lab.grid(n), lab.grid(n).d ** 0.8) for n in (512, 1024, 2048)]
    mixed.append((lab.grid(4096), lab.grid(4096).d ** 0.3))
    rep = regularity_report(mixed, 2.0, 0.0)
    assert rep.verdicts["h1"] == "inconclusive"
    assert rep.verdicts["q_bar_consistency"] is False


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
        sigma = fit_gradient_exponent(grid, rep.upper)
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
    # increment ratios on both sides of 1 (0.66, then far above 1)
    mixed = member + [(lab.grid(4096), lab.grid(4096).d ** 0.3)]
    assert h1_membership(mixed).verdict == "inconclusive"
    with pytest.raises(ValueError):
        h1_membership(member[:2])


def test_h1_report_keeps_energies_and_plain_ratios(lab):
    # the verdict is the increment ratio's, but values stay the q=2
    # integrals and ratios E_{k+1} / E_k: a benchmark check reads both.
    # alpha = 3.5 (sigma = -5/9) by Newton, as in acceptance criterion 7
    levels = [lab.newton(3.5, 0.0, n, tol=1e-9) for n in (128, 256, 512)]
    report = h1_membership(levels)
    energies = [sobolev_integral(g, u, 2.0) for g, u in levels]
    assert report.values == energies
    assert report.ratios == [energies[1] / energies[0], energies[2] / energies[1]]
    assert report.verdict == "non-member"
    assert all(r >= 1.1 for r in report.ratios)
    (rho,) = increment_ratios(energies)
    assert rho == pytest.approx(2.0 ** (1.0 / 9.0), abs=0.01)


def test_uniqueness_identity_values(lab):
    grid = lab.grid(128)
    u = grid.d + 0.1
    assert uniqueness_identity(grid, u, u, 1.0, 0.5) == 0.0
    from sel.grid import power_weight

    expected = 1.5 * np.sum(power_weight(grid, 0.5)) * grid.cell_volume
    assert uniqueness_identity(grid, u, 2 * u, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)
    assert uniqueness_identity(grid, u, 2 * u, 1.0, 0.5) > 0
    with pytest.raises(ValueError, match="field must be positive nodewise"):
        uniqueness_identity(grid, u, -u, 1.0, 0.5)


@pytest.mark.parametrize(
    "n, field",
    [
        (96, lambda g: g.d ** (2.0 / 3.0)),
        # d^(2/3) on the edges but d^(4/3) at the corners: without the mask
        # the fit reads 0.7548, with it 0.6627 (0.6473 at n = 96, too close)
        (256, lambda g: np.prod(np.sin(np.pi * g.points()), axis=1) ** (2.0 / 3.0)),
    ],
    ids=["distance", "sines"],
)
def test_2d_fits_mask_out_corners(n, field):
    g = build_grid(rectangle(1.0, 1.0), n)
    t_fit = fit_boundary_exponent(g, field(g))
    assert t_fit == pytest.approx(2.0 / 3.0, abs=0.02)


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 64, 255, 256, 1024])
@pytest.mark.parametrize(
    "shape",
    [interval(1.0), interval(3.0), rectangle(1.0, 1.0), rectangle(2.0, 0.5), rectangle(8.0, 0.125)],
)
def test_edge_interior_mask_is_the_node_formula(shape, n):
    # the per-axis mask is the nearest-wall rule over the node table, node by
    # node, with argmin's tie-break towards the x walls
    g = build_grid(shape, n)
    if g.dim == 1:
        expected = np.ones(g.num_interior, dtype=bool)
    else:
        (width, height), (x, y) = shape.extents, g.points().T
        nearest = np.argmin(np.stack([x, width - x, y, height - y]), axis=0)
        expected = np.where(
            nearest < 2,
            (y >= 0.2 * height) & (y <= 0.8 * height),
            (x >= 0.2 * width) & (x <= 0.8 * width),
        )
    np.testing.assert_array_equal(analysis._edge_interior_mask(g), expected)


def test_regularity_report_synthetic_ladder(lab):
    levels = [(lab.grid(n), 1.3 * lab.grid(n).d ** (2.0 / 3.0)) for n in (512, 1024, 2048)]
    rep = regularity_report(levels, 2.0, 0.0)
    assert rep.t_fit == pytest.approx(2.0 / 3.0, abs=0.01)
    assert rep.q_bar_theory == pytest.approx(3.0)
    assert rep.q_bar_est == pytest.approx(3.0, rel=0.1)
    assert rep.verdicts["exponent_consistency"]
    assert rep.verdicts["h1"] == "member"
    assert len(rep.h1_norms) == 3


def test_regularity_report_fits_sigma_and_integrates_q2_once(lab, monkeypatch):
    # one gradient field and one q=2 integral per level serve sigma_fit,
    # q_bar_est, the h1 verdict and h1_norms
    gradients, energies = [], []

    def counted_gradient(grid, u):
        gradients.append(grid.n)
        return gradient_field(grid, u)

    def counted_integral(grid, grad, q):
        if q == 2.0:
            energies.append(grid.n)
        return gradient_integral(grid, grad, q)

    monkeypatch.setattr(analysis, "gradient_field", counted_gradient)
    monkeypatch.setattr(analysis, "gradient_integral", counted_integral)
    levels = [(lab.grid(n), 1.3 * lab.grid(n).d ** (2.0 / 3.0)) for n in (512, 1024, 2048)]
    rep = regularity_report(levels, 2.0, 0.0)
    assert gradients == [512, 1024, 2048]
    assert energies == [512, 1024, 2048]
    monkeypatch.undo()
    energies = [sobolev_integral(g, u, 2.0) for g, u in levels]
    assert rep.sigma_fit == sigma_from_increment(increment_ratios(energies)[-1])
    assert rep.q_bar_est == analysis.q_bar_from_sigma(rep.sigma_fit)
    h1 = h1_membership(levels)
    assert rep.verdicts["h1"] == h1.verdict
    assert rep.h1_norms == [math.sqrt(v) for v in h1.values]


def test_an_n2_level_has_no_refinement_ratio(lab):
    # the one node of an n=2 grid has a zero central-difference gradient, so
    # every Sobolev integral of that level is 0 and no ratio over it exists
    coarse = build_grid(interval(1.0), 2)
    levels = [(g, g.d ** (2.0 / 3.0)) for g in (coarse, lab.grid(128), lab.grid(256))]
    assert sobolev_integral(*levels[0], 2.0) == 0.0
    with pytest.raises(ValueError, match="zero Dirichlet energy on a coarse level"):
        h1_membership(levels)


def test_regularity_report_on_one_level_keeps_the_slope_estimate(lab):
    rep = regularity_report([(lab.grid(2048), 1.3 * lab.grid(2048).d ** (2.0 / 3.0))], 2.0, 0.0)
    assert rep.q_bar_est == analysis.q_bar_from_sigma(rep.sigma_fit)
    assert "q_bar_consistency" not in rep.verdicts
    assert rep.verdicts["h1"] == "needs >= 3 levels"
    assert len(rep.h1_norms) == 1
