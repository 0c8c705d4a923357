import math
import sys

import numpy as np
import pytest

from sel import barriers
from sel.barriers import (
    BORDERLINE_WARNING,
    BarrierConstructionError,
    HopfViolationError,
    Regime,
    build_barrier_pair,
    resolve_regime,
    verify_barrier,
)
from sel.grid import assemble_laplacian, build_grid, interval, mirror_fold, power_weight, rectangle
from sel.linear_core import SPDFactor
from sel.monotone import solve_monotone
from sel.problem import ProblemSpec, SolveConfig
from sel.spectral import EigenPair, _forcing, dirichlet_eigenpair, monotone_shift


def test_boundary_exponent_regimes():
    low = resolve_regime(0.5, 0.0)
    assert (low.t, low.sigma, low.q_bar, low.warnings) == (1.0, 0.0, math.inf, ())
    assert resolve_regime(2.0, 0.0).t == pytest.approx(2.0 / 3.0)
    high = resolve_regime(2.0, 1.0)
    assert high.t == pytest.approx(1.0 / 3.0)
    assert high.sigma == pytest.approx(-2.0 / 3.0)
    assert high.warnings == ()


@pytest.mark.parametrize(
    "alpha, beta", [(0.3, 0.0), (0.5, 0.5), (1.0, 0.0), (2.0, 0.0), (2.0, 1.9), (50.0, 1.99)]
)
def test_regime_matches_closed_forms_exactly(alpha, beta):
    # the expressions the regime table must reproduce bit for bit
    r = resolve_regime(alpha, beta)
    if alpha + beta > 1:
        assert r.t == (2.0 - beta) / (1.0 + alpha)
        assert r.sigma == (1.0 - alpha - beta) / (1.0 + alpha)
        assert r.q_bar == (1.0 + alpha) / (alpha + beta - 1.0)
    else:
        # at alpha + beta = 1 these are the limits of the formulas above
        assert r.t == 1.0
        assert r.sigma == 0.0
        assert r.q_bar == math.inf
        assert r.gamma == 1.0 + alpha


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_resolve_regime_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        resolve_regime(bad, 0.0)
    with pytest.raises(ValueError, match="beta must satisfy 0 <= beta < 2"):
        resolve_regime(0.5, bad)


def test_resolve_regime_returns_one_regime_per_pair():
    # equal, not cached: int and np.float64 input give the same plain-float fields
    assert resolve_regime(2.0, 0.5) == resolve_regime(2.0, 0.5)
    assert resolve_regime(2, 0) == resolve_regime(2.0, 0.0)
    assert resolve_regime(np.float64(0.3), 0.4) == resolve_regime(0.3, 0.4)
    assert resolve_regime(0.5, 0.0) != resolve_regime(2.0, 0.0)
    for alpha, beta in ((2, 0), (np.float64(0.3), np.float64(0.4)), (1, 0), (0, 1.5)):
        regime = resolve_regime(alpha, beta)
        fields = (regime.t, regime.q_bar, regime.gamma, regime.sigma)
        assert all(type(v) is float for v in fields), (alpha, beta, regime)


@pytest.mark.parametrize(
    "shape, n", [(interval(1.0), 32), (rectangle(1.0, 1.0), 8)], ids=["interval", "rectangle"]
)
def test_certificate_residual_and_newton_share_one_defect(monkeypatch, shape, n):
    # barriers._defect is the one strong-form defect: the certificate, the
    # weighted residual and Newton's stopping test all evaluate it
    from sel.monotone import residual
    from sel.oracle import newton_solve

    calls = []
    defect = barriers._defect

    def counted(grid, field, alpha, beta, eps=0.0):
        calls.append(eps)
        return defect(grid, field, alpha, beta, eps)

    grid = build_grid(shape, n)
    pair = build_barrier_pair(grid, 2.0, 0.0)
    monkeypatch.setattr(barriers, "_defect", counted)
    assert verify_barrier(grid, pair.super, 2.0, 0.0, "super").passed and calls == [0.0]
    weighted = residual(grid, pair.super, 2.0, 0.0)
    assert calls == [0.0, 0.0]
    assert weighted == float(np.max(np.abs(
        defect(grid, pair.super, 2.0, 0.0) * power_weight(grid, -(2.0 / 3.0) * 2.0)
    )))
    newton_solve(grid, 2.0, 0.0, pair.super, tol=1e-8, eps=1e-3)
    assert len(calls) > 3 and set(calls[2:]) == {1e-3}


@pytest.mark.parametrize("alpha, beta", [(-0.5, 0.0), (0.5, 2.0), (0.5, -0.1), (math.nan, 0.0), (0.5, math.nan)])
def test_out_of_range_regime_raises_on_every_call(alpha, beta):
    for _ in range(3):
        with pytest.raises(ValueError):
            resolve_regime(alpha, beta)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 32), (rectangle(1.0, 1.0), 16)])
@pytest.mark.parametrize("alpha, beta", [(0.5, 0.2), (2.0, 0.0)])
def test_built_pair_records_its_certificate_read_only(shape, n, alpha, beta):
    grid = build_grid(shape, n)
    pair = build_barrier_pair(grid, alpha, beta)
    assert pair.certified_for[0] is grid and pair.certified_for[1:] == (alpha, beta)
    assert pair.certified_on(grid, alpha, beta)
    assert not pair.certified_on(grid, alpha + 0.1, beta)
    assert not pair.certified_on(build_grid(shape, 2 * n), alpha, beta)
    for fld in (pair.sub, pair.super):
        with pytest.raises(ValueError, match="read-only"):
            fld[0] = 1.0


def test_resolve_regime_borderline_goes_through_t1_with_warning():
    # the borderline is the low regime with its one warning, (1, 0) included
    r = resolve_regime(0.5, 0.5)
    assert r.t == 1.0 and r.gamma == 1.5
    assert r.warnings == (BORDERLINE_WARNING,)
    assert resolve_regime(1.0, 0.0) == Regime(
        t=1.0, sigma=0.0, q_bar=math.inf, gamma=2.0, warnings=(BORDERLINE_WARNING,)
    )
    assert resolve_regime(0.3, 0.0).gamma == 1.3
    with pytest.raises(ValueError):
        resolve_regime(0.5, 2.0)
    with pytest.raises(ValueError):
        resolve_regime(-0.5, 0.0)


def test_low_regime_constant_approaches_continuum(lab):
    # c of c psi at alpha = 0.5 is min (d/psi)^(1/3); -psi'' = d^(-1/2) gives
    # psi/d -> psi'(0) = sqrt(2) at the wall, so c -> 2^(-1/6) from above
    limit = 2.0 ** (-1.0 / 6.0)
    errors = []
    for n in (256, 1024, 4096):
        pair = build_barrier_pair(lab.grid(n), 0.5, 0.0)
        assert np.all(pair.sub > 0)
        errors.append(pair.c - limit)
    assert 0.0 < errors[2] < errors[1] < errors[0]
    assert errors[2] <= 1e-2 * limit


def _closure_constant(grid, eig, alpha, beta):
    # Reference: the continuum closure t(1-t) max|phi'|^2 + lambda_1 t <= 1/c^(1+alpha)
    # for c phi^t, with the one-sided slope toward the wall at the first nodes.
    phi, h = eig.field, grid.h[0]
    ext = np.concatenate(([0.0], phi, [0.0]))
    slope = (ext[2:] - ext[:-2]) / (2.0 * h)
    slope[0], slope[-1] = phi[0] / h, -phi[-1] / h
    t = resolve_regime(alpha, beta).t
    return (t * (1 - t) * np.max(slope**2) + eig.value * t) ** (-1.0 / (1.0 + alpha))


def test_high_regime_constant_dominates_closure(lab):
    grid, eig = lab.grid(256), lab.eig(256)
    a0, w = assemble_laplacian(grid), power_weight(grid, 0.0)
    for alpha, beta in ((1.5, 0.0), (2.0, 0.0), (2.0, 0.5)):
        c = build_barrier_pair(grid, alpha, beta, eig).c
        assert c >= _closure_constant(grid, eig, alpha, beta)
    # for small t the closure overshoots the exact discrete constant, so
    # its field is no subsolution: no round-off margin could repair it
    c_closure = _closure_constant(grid, eig, 10.0, 0.0)
    c = build_barrier_pair(grid, 10.0, 0.0, eig).c
    assert c_closure > c
    field = c_closure * eig.field ** (2.0 / 11.0)
    assert np.max(a0 @ field - w * field**-10.0) > 0.0


EXTREMAL_CASES = [
    (shape, n, alpha, beta)
    for shape, n in ((interval(1.0), 256), (rectangle(1.0, 1.0), 64), (rectangle(2.0, 0.5), 64))
    for alpha, beta in ((0.5, 0.0), (2.0, 0.0), (2.0, 0.5), (10.0, 0.0), (0.3, 0.4))
]


def _extremal_id(case):
    shape, n, alpha, beta = case
    prefix = "" if shape.dim == 1 else f"{shape.extents[0]}x{shape.extents[1]}-{n}-"
    return f"{prefix}{alpha}-{beta}"


@pytest.mark.parametrize(
    "shape, n, alpha, beta", EXTREMAL_CASES, ids=[_extremal_id(c) for c in EXTREMAL_CASES]
)
def test_exact_constants_are_extremal(shape, n, alpha, beta):
    grid = build_grid(shape, n)
    a0, w = assemble_laplacian(grid), power_weight(grid, beta)
    pair = build_barrier_pair(grid, alpha, beta)
    sub, sup = pair.sub, pair.super
    assert np.max(a0 @ sub - w * sub**-alpha) <= 0.0
    assert np.min(a0 @ sup - w * sup**-alpha) >= 0.0
    # a relative 1e-8 change of either constant breaks its inequality
    bigger = sub * (1.0 + 1e-8)
    assert np.max(a0 @ bigger - w * bigger**-alpha) > 0.0
    smaller = sup * (1.0 - 1e-8)
    assert np.min(a0 @ smaller - w * smaller**-alpha) < 0.0


@pytest.mark.parametrize(
    "shape, n", [(interval(1.0), 256), (rectangle(2.0, 0.5), 64)], ids=["interval", "rectangle"]
)
@pytest.mark.parametrize("alpha, beta", [(2.0, 0.0), (0.3, 0.4)])
def test_each_side_evaluates_its_defect_once(monkeypatch, shape, n, alpha, beta):
    # the round-off margin is a bound, so each side is checked once, not searched
    sides = []

    def counted(grid, field, alpha, beta):
        sides.append(field.copy())
        return defect(grid, field, alpha, beta)

    defect = barriers._defect
    monkeypatch.setattr(barriers, "_defect", counted)
    pair = build_barrier_pair(build_grid(shape, n), alpha, beta)
    assert len(sides) == 2
    np.testing.assert_array_equal(sides[0], pair.sub)
    np.testing.assert_array_equal(sides[1], pair.super)


@pytest.mark.parametrize("side, reported", [("sub", 1e-300), ("super", -1e-300), ("sub", np.nan)])
def test_barrier_pair_fails_when_the_defect_has_the_wrong_sign(lab, monkeypatch, side, reported):
    # the pair is certified through verify_barrier, whose kernel _defect reports `reported`
    grid, eig = lab.grid(64), lab.eig(64)
    monkeypatch.setattr(barriers, "_defect", lambda grid, field, alpha, beta: np.full(field.size, reported))
    with pytest.raises(BarrierConstructionError, match=f"{side}solution inequality fails"):
        build_barrier_pair(grid, 2.0, 0.0, eig)


def test_supersolution_profile_without_boundary_slope_is_a_hopf_violation(lab):
    # 2 max(phi) - phi is convex: -lap_h of it is negative at every node, so
    # no scale makes it a supersolution
    grid, eig = lab.grid(32), lab.eig(32)
    convex = 2 * eig.field.max() - eig.field
    _, C = barriers._exact_scale(assemble_laplacian(grid), _forcing(grid, convex, 2.0, 0.0), convex, 2.0)
    assert C == math.inf
    # on an interval H is phi_1 itself, so this eigenvector makes H^t convex mid-interval
    with pytest.raises(HopfViolationError, match="nonpositive -lap_h"):
        build_barrier_pair(grid, 2.0, 0.0, EigenPair(eig.value, convex, eig.residual))


# t near 1e-10: the profile is nearly flat, so the round-off margin of
# _exact_scale exceeds 1 and the sub constant would be negative
NEAR_BETA_TWO = [(0.0, 1.9999999999, 1024), (0.5, 1.99999999999, 256)]


@pytest.mark.parametrize("alpha, beta, n", NEAR_BETA_TWO)
def test_margin_past_the_subsolution_scale_is_a_construction_error(alpha, beta, n):
    with pytest.raises(BarrierConstructionError, match="round-off margin exceeds the subsolution scale"):
        build_barrier_pair(build_grid(interval(1.0), n), alpha, beta)


def test_nan_subsolution_scale_is_a_construction_error(lab, monkeypatch):
    monkeypatch.setattr(barriers, "_exact_scale", lambda *_: (math.nan, 1.0))
    with pytest.raises(BarrierConstructionError, match=r"\(c = nan\)"):
        build_barrier_pair(lab.grid(64), 2.0, 0.0)


def test_constructed_barriers_certify(lab):
    for alpha, beta in ((0.5, 0.0), (2.0, 0.0), (2.0, 0.5)):
        grid = lab.grid(256)
        pair = lab.pair(alpha, beta, 256)
        for side, field in (("sub", pair.sub), ("super", pair.super)):
            cert = verify_barrier(grid, field, alpha, beta, side)
            assert cert.passed, (alpha, beta, side, cert)


def test_low_regime_subsolution_inequality_is_exact(lab):
    grid = lab.grid(256)
    pair = lab.pair(0.5, 0.0, 256)
    defect = assemble_laplacian(grid) @ pair.sub - power_weight(grid, 0.0) * pair.sub**-0.5
    assert defect.max() <= 0.0
    assert defect.min() < 0.0


def test_overscaled_field_fails_subsolution_check(lab):
    grid = lab.grid(256)
    pair = lab.pair(2.0, 0.0, 256)
    cert = verify_barrier(grid, 10.0 * pair.super, 2.0, 0.0, "sub")
    assert not cert.passed
    assert cert.worst_violation > 0.0


def test_verify_barrier_input_validation(lab):
    grid = lab.grid(32)
    pair = lab.pair(0.5, 0.0, 32)
    with pytest.raises(ValueError):
        verify_barrier(grid, -pair.sub, 0.5, 0.0, "sub")
    with pytest.raises(ValueError):
        verify_barrier(grid, pair.sub, 0.5, 0.0, "above")


def test_choose_M_zero_for_linear_problem(lab):
    # the first outer step shifts by the nodal m at the subsolution; alpha=0 needs none
    grid = lab.grid(64)
    pair = lab.pair(0.0, 0.0, 64)
    assert np.all(monotone_shift(grid, pair.sub, 0.0, 0.0) == 0.0)


def test_choose_M_stabilizes_under_refinement(lab):
    # m at the subsolution scales like d^(-gamma), the stopping-norm weight:
    # its d^gamma-weighted size is a constant that does not grow with n
    def weighted(alpha, n):
        grid = lab.grid(n)
        m = monotone_shift(grid, lab.pair(alpha, 0.0, n).sub, alpha, 0.0)
        return np.max(m * grid.d ** resolve_regime(alpha, 0.0).gamma)

    m = [weighted(0.5, n) for n in (128, 256)]
    assert m[1] == pytest.approx(m[0], rel=2e-2)
    m = [weighted(2.0, n) for n in (128, 256)]
    assert m[1] == pytest.approx(m[0], rel=1e-2)


def test_pair_ordering_across_parameter_sweep(lab):
    for alpha in (0.3, 0.8, 1.5, 2.5):
        for beta in (0.0, 0.5):
            pair = lab.pair(alpha, beta, 64)
            assert np.all(pair.sub > 0)
            assert np.all(pair.sub <= pair.super)
            assert pair.c1 > 0 and pair.c2 >= pair.c1


def test_sandwich_constants_stabilize(lab):
    for alpha, beta in ((0.5, 0.0), (2.0, 0.0)):
        pairs = [lab.pair(alpha, beta, n) for n in (64, 128)]
        assert pairs[1].c1 == pytest.approx(pairs[0].c1, rel=0.2)
        assert pairs[1].c2 == pytest.approx(pairs[0].c2, rel=0.2)
        for pair, n in zip(pairs, (64, 128)):
            dt = lab.grid(n).d ** pair.t
            assert np.all(pair.sub >= pair.c1 * dt - 1e-12)
            assert np.all(pair.super <= pair.c2 * dt + 1e-12)


def test_monotonized_map_is_nondecreasing(lab, rng):
    alpha, beta = 2.0, 0.5
    grid = lab.grid(128)
    pair = lab.pair(alpha, beta, 128)
    shift = monotone_shift(grid, pair.sub, alpha, beta)
    nodes = rng.integers(0, grid.num_interior, size=100)
    for node in nodes:
        lo, hi = pair.sub[node], pair.super[node]
        s = np.sort(rng.uniform(lo, hi, size=2))
        d = grid.d[node]
        def g(v):
            return d ** (-beta) * v ** (-alpha) + shift[node] * v
        assert g(s[0]) <= g(s[1]) + 1e-12 * abs(g(s[1]))


def test_alpha_zero_supersolution_is_scaled_poisson_profile(lab):
    grid = lab.grid(64)
    pair = build_barrier_pair(grid, 0.0, 0.0, lab.eig(64))
    x = grid.axes[0]
    # psi solves -lap psi = 1 exactly, so the exact constant is 1
    assert pair.C == pytest.approx(1.0, rel=1e-9)
    np.testing.assert_allclose(pair.super, x * (1 - x) / 2, atol=1e-9)


def test_borderline_pair_builds_with_warning(lab):
    pair = lab.pair(0.5, 0.5, 64)
    assert resolve_regime(0.5, 0.5).warnings == (BORDERLINE_WARNING,)
    assert pair.t == 1.0
    grid = lab.grid(64)
    for side, field in (("sub", pair.sub), ("super", pair.super)):
        assert verify_barrier(grid, field, 0.5, 0.5, side).passed


def test_borderline_barrier_constant_drifts_like_the_log_law():
    # at (1, 0) u ~ d (log 1/d)^(1/2) while the barriers scale psi ~ d, so
    # the subsolution constant c falls with n like (ln n)^(-1/2): each n
    # certifies, but not uniformly (1.0106, 1.0085, 1.0070, 1.0060 below)
    ns = (256, 1024, 4096, 16384)
    cs = [build_barrier_pair(build_grid(interval(1.0), n), 1.0, 0.0).c for n in ns]
    assert all(fine < coarse for coarse, fine in zip(cs, cs[1:])), cs
    for n, c in zip(ns, cs):
        assert 1.0 <= c * math.sqrt(math.log(n)) <= 1.02, (n, c)


@pytest.mark.parametrize("alpha, beta", [(10.0, 0.0), (2.0, 1.9), (2.0, 1.99), (50.0, 0.0)])
@pytest.mark.parametrize("shape, n", [(interval(1.0), 64), (rectangle(1.0, 1.0), 16)])
def test_full_parameter_range_certifies_and_converges(shape, n, alpha, beta):
    grid = build_grid(shape, n)
    pair = build_barrier_pair(grid, alpha, beta)
    for side, field in (("sub", pair.sub), ("super", pair.super)):
        assert verify_barrier(grid, field, alpha, beta, side).passed, side
    spec = ProblemSpec(alpha, beta, shape, n, SolveConfig(tol=1e-8, max_iter=5000))
    report = solve_monotone(spec, pair)
    assert report.converged
    assert report.ordering_violation == 0.0


HIGH_REGIME_SAMPLES = [(0.6, 0.5), (1.5, 0.0), (2.0, 0.0), (2.0, 1.9), (5.0, 1.0), (12.0, 0.0), (12.0, 1.9)]


def _harmonic_profile(grid):
    # H = 1 / sum_i 1/psi_i with psi_i = (L_i/pi) sin(pi x_i/L_i)
    extents = np.asarray(grid.shape.extents)
    psi = extents / np.pi * np.sin(np.pi * grid.points() / extents)
    return 1.0 / np.sum(1.0 / psi, axis=1)


@pytest.mark.parametrize("alpha, beta", HIGH_REGIME_SAMPLES)
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33])
@pytest.mark.parametrize("shape", [rectangle(1.0, 1.0), rectangle(2.0, 0.5)])
def test_rectangle_pair_scales_the_harmonic_profile(shape, n, alpha, beta):
    grid = build_grid(shape, n)
    profile = _harmonic_profile(grid) ** resolve_regime(alpha, beta).t
    # H^t is concave, so its discrete Laplacian has a sign at every node
    assert np.all(assemble_laplacian(grid) @ profile > 0.0)
    pair = build_barrier_pair(grid, alpha, beta)
    for side, field in (("sub", pair.sub), ("super", pair.super)):
        assert verify_barrier(grid, field, alpha, beta, side).passed, side
        ratio = field / profile
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_rectangle_scale_constants_do_not_drift():
    # H^t falls off like the solution at the corners too, so c and C
    # are set by the interior and stay put under refinement
    pairs = [build_barrier_pair(build_grid(rectangle(1.0, 1.0), n), 2.0, 0.0) for n in (32, 64, 128)]
    for pair in pairs[1:]:
        assert pair.c == pytest.approx(pairs[0].c, rel=1e-2)
        assert pair.C == pytest.approx(pairs[0].C, rel=1e-2)
    assert all(pair.c2 <= 2.0 for pair in pairs)


@pytest.mark.parametrize("alpha, beta", HIGH_REGIME_SAMPLES)
@pytest.mark.parametrize("n", [2, 3, 64, 1000])
def test_interval_pair_is_exactly_scaled_phi_power(n, alpha, beta):
    # phi^t mirrored from the half interval, at the two scales
    grid = build_grid(interval(1.0), n)
    eig = dirichlet_eigenpair(grid)
    pair = build_barrier_pair(grid, alpha, beta, eig)
    phi_t = mirrored(grid, eig.field ** resolve_regime(alpha, beta).t)
    np.testing.assert_array_equal(pair.sub, pair.c * phi_t)
    np.testing.assert_array_equal(pair.super, pair.C * phi_t)


def mirrored(grid, u):
    """u's values on the mirror cell, mirrored over the grid."""
    fold = mirror_fold(grid)
    return u[fold.rep][fold.idx]


PAIR_CASES = [
    (shape, n, alpha, beta)
    for shape, n in ((interval(1.0), 256), (rectangle(1.0, 1.0), 32))
    for alpha, beta in ((0.0, 0.0), (0.5, 0.0), (0.3, 0.5), (2.0, 0.0), (2.0, 1.5))
]


@pytest.mark.parametrize(
    "shape, n, alpha, beta", PAIR_CASES, ids=[_extremal_id(c) for c in PAIR_CASES]
)
def test_pair_is_one_profile_at_two_scales(shape, n, alpha, beta):
    # sub = c base and super = C base, so their ratio is the constant c / C <= 1
    pair = build_barrier_pair(build_grid(shape, n), alpha, beta)
    assert 0.0 < pair.c <= pair.C < math.inf
    np.testing.assert_allclose(pair.sub / pair.super, pair.c / pair.C, rtol=1e-14)


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 0.0), (0.3, 0.5), (0.05, 0.9)])
@pytest.mark.parametrize(
    "shape, n", [(interval(1.0), 1000), (rectangle(1.0, 1.0), 33)], ids=["interval", "square"]
)
def test_low_regime_pair_is_exactly_scaled_psi(shape, n, alpha, beta):
    # when t = 1 both sides scale psi, -lap_h psi = d^(-(alpha+beta)), as
    # built on the mirror cell, K psi = w d^(-(alpha+beta)), and mirrored
    grid = build_grid(shape, n)
    fold = mirror_fold(grid)
    zero = np.zeros(fold.w.size)
    f = fold.w * power_weight(grid, alpha + beta)[fold.rep]
    psi, _ = SPDFactor.on_cell(grid, zero).solve(f, tol=1e-9)
    psi = psi.astype(float)[fold.idx]
    # psi solves the full system to the tolerance it was asked for
    full = assemble_laplacian(grid) @ psi - power_weight(grid, alpha + beta)
    assert np.linalg.norm(full) <= 2e-9 * np.linalg.norm(power_weight(grid, alpha + beta))
    pair = build_barrier_pair(grid, alpha, beta)
    np.testing.assert_array_equal(pair.sub, pair.c * psi)
    np.testing.assert_array_equal(pair.super, pair.C * psi)


@pytest.mark.parametrize(
    "shape, n", [(interval(1.0), 1000), (rectangle(1.0, 1.0), 33)], ids=["interval", "square"]
)
def test_psi_is_factored_by_the_grid(monkeypatch, shape, n):
    # the t = 1 pair solves for psi through SPDFactor.on_cell, which routes
    # by grid.dim: no pattern scan, and no bare-matrix solve_spd
    def fail(*_args, **_kwargs):
        pytest.fail("psi solved by matrix pattern")

    for name, module in list(sys.modules.items()):
        if name == "sel" or name.startswith("sel."):
            for attr in ("is_tridiagonal", "solve_spd"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fail)
    pair = build_barrier_pair(build_grid(shape, n), 0.5, 0.0)
    assert pair.t == 1.0 and 0.0 < pair.c <= pair.C < math.inf


PROFILE_SHAPES = [
    interval(1.0), interval(3.0), rectangle(1.0, 1.0), rectangle(2.0, 0.5), rectangle(8.0, 0.125)
]


@pytest.mark.parametrize("n", [2, 3, 5, 16, 17, 64, 255, 256])
@pytest.mark.parametrize("shape", PROFILE_SHAPES)
def test_corner_profile_is_the_node_formula_bit_for_bit(shape, n):
    # the per-axis H is phi / sum_i prod_{j != i} psi_j over the node table,
    # bit for bit, and the default eigenpair builds the pair of that
    # eigenpair passed by hand
    grid = build_grid(shape, n)
    phi = dirichlet_eigenpair(grid).field
    extents = np.asarray(shape.extents)
    psi = extents / np.pi * np.sin(np.pi * grid.points() / extents)
    nodes = phi / sum(np.prod(np.delete(psi, i, axis=1), axis=1) for i in range(grid.dim))
    np.testing.assert_array_equal(barriers._corner_profile(grid, phi), nodes)
    for alpha, beta in ((2.0, 0.0), (0.5, 1.2)):
        default = build_barrier_pair(grid, alpha, beta)
        explicit = build_barrier_pair(grid, alpha, beta, dirichlet_eigenpair(grid))
        np.testing.assert_array_equal(default.sub, explicit.sub)
        np.testing.assert_array_equal(default.super, explicit.super)


def test_a_foreign_eigenpair_field_is_used():
    # a passed eigenpair's field, not the grid's own, gives H
    grid = build_grid(rectangle(1.0, 1.0), 16)
    own = dirichlet_eigenpair(grid)
    foreign = EigenPair(value=own.value, field=own.field**1.01, residual=own.residual)
    pair = build_barrier_pair(grid, 2.0, 0.0, foreign)
    base = mirrored(grid, barriers._corner_profile(grid, foreign.field) ** pair.t)
    np.testing.assert_array_equal(pair.super, pair.C * base)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
def test_a_foreign_eigenpair_field_must_be_positive(bad):
    # the profile's F is unchecked, so a passed field is checked where it is taken in
    grid = build_grid(interval(), 16)
    own = dirichlet_eigenpair(grid)
    field = own.field.copy()
    field[3] = bad
    with pytest.raises(ValueError, match="field must be positive|NaN or inf"):
        build_barrier_pair(grid, 2.0, 0.0, EigenPair(own.value, field, own.residual))


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 0.0), (2.0, 0.0), (3.5, 1.5)])
@pytest.mark.parametrize(
    "shape, n",
    [(interval(1.0), 1000), (interval(1.0), 1001), (rectangle(1.0, 1.0), 32),
     (rectangle(1.0, 1.0), 33), (rectangle(2.0, 0.5), 33)],
)
def test_every_pair_is_mirror_symmetric(shape, n, alpha, beta):
    # the base is mirrored from the cell before it is scaled, so each side
    # takes one value per orbit, to the bit: psi and the closed-form phi
    # (sin(pi x / L) rounds differently at x and L - x) alike
    grid = build_grid(shape, n)
    pair = build_barrier_pair(grid, alpha, beta)
    for side in (pair.sub, pair.super):
        np.testing.assert_array_equal(side, mirrored(grid, side))


def test_a_foreign_eigenpair_gives_a_mirror_symmetric_pair():
    # a field with no symmetry of its own: the pair takes its cell values
    grid = build_grid(rectangle(2.0, 0.5), 33)
    own = dirichlet_eigenpair(grid)
    tilt = 1.0 + 0.1 * np.linspace(0.0, 1.0, grid.num_interior)
    foreign = EigenPair(value=own.value, field=own.field * tilt, residual=own.residual)
    pair = build_barrier_pair(grid, 2.0, 0.0, foreign)
    np.testing.assert_array_equal(pair.super, mirrored(grid, pair.super))
    base = barriers._corner_profile(grid, foreign.field) ** pair.t
    fold = mirror_fold(grid)
    np.testing.assert_array_equal(pair.sub[fold.rep], pair.c * base[fold.rep])
