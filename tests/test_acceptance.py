"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with pytest -s); a failed assert is
the corresponding FAIL.  Heavy solves are shared through the session-scoped
lab fixture, so the whole suite stays at desk scale.
"""

import numpy as np
import pytest
import scipy.linalg

from sel.analysis import (
    fit_boundary_exponent,
    fit_gradient_exponent,
    h1_membership,
    regularity_report,
    uniqueness_identity,
)
from sel.barriers import build_barrier_pair, resolve_regime, verify_barrier
from sel.grid import assemble_laplacian, build_grid, interval, power_weight, rectangle
from sel.linear_core import SPDFactor
from sel.monotone import CHAIN_TOL, solve_ladder, solve_monotone, uniqueness_gap
from sel.oracle import dense_newton_solve, observed_order
from sel.problem import ProblemSpec, SolveConfig
from sel.regularized import epsilon_continuation
from sel.spectral import linearized_smallest_eigenvalue, monotone_shift

FINE_TOL = 1e-9  # gap tolerance for n >= 512 ladders

LOW_CASES = [(0.3, 0.0), (0.5, 0.0), (0.8, 0.0)]
HIGH_CASES = [(a, b) for a in (1.5, 2.0, 2.5) for b in (0.0, 0.5)]

SQUARE = rectangle(1.0, 1.0)
# (shape, n) of criteria 2, 3, 8 and 9: the unit interval and the unit square
DOMAINS = [(interval(1.0), 256), (SQUARE, 64)]
# criteria 2 and 3 at alpha 0.5 and 2 on each domain; the ids of the
# interval cases are the bare alpha
CHAIN_CASES = [(alpha, shape, n) for shape, n in DOMAINS for alpha in (0.5, 2.0)]
CHAIN_IDS = ["0.5", "2.0", "square-0.5", "square-2.0"]


def test_criterion_1_barrier_certification(lab):
    for alpha, beta in LOW_CASES + HIGH_CASES:
        grid = lab.grid(256)
        pair = lab.pair(alpha, beta, 256)
        for side, field in (("sub", pair.sub), ("super", pair.super)):
            cert = verify_barrier(grid, field, alpha, beta, side)
            assert cert.passed, (alpha, beta, side, cert)
        assert np.all(pair.sub <= pair.super), (alpha, beta)
    print(f"[criterion 1] PASS: {len(LOW_CASES) + len(HIGH_CASES)} barrier pairs certified at n=256")


@pytest.mark.parametrize(
    "alpha, beta, shape, n",
    [(alpha, 0.0, shape, n) for alpha, shape, n in CHAIN_CASES]
    + [(0.0, 0.0, SQUARE, 32), (0.0, 1.99, SQUARE, 32)],
    ids=CHAIN_IDS + ["square-0.0-n32", "square-0.0-1.99-n32"],
)
def test_criterion_2_monotone_chain(lab, alpha, beta, shape, n):
    _, pair, report = lab.solved(alpha, beta, n, tol=1e-8, shape=shape)
    assert report.converged
    assert report.iterations <= 500
    assert report.gap_history[-1] <= 1e-8
    assert report.ordering_violation <= 1e-12 * np.max(pair.super)
    print(
        f"[criterion 2] PASS: alpha={alpha} {shape.extents} n={n} "
        f"converged in {report.iterations} iters, "
        f"gap={report.gap_history[-1]:.2e}, worst ordering violation {report.ordering_violation:.1e}"
    )


@pytest.mark.parametrize("alpha, shape, n", CHAIN_CASES, ids=CHAIN_IDS)
def test_criterion_3_uniqueness(lab, alpha, shape, n):
    grid, _, report = lab.solved(alpha, 0.0, n, tol=1e-8, shape=shape)
    gap = uniqueness_gap(report)
    ident = uniqueness_identity(grid, report.lower, report.upper, alpha, 0.0)
    assert gap <= 1e-7
    assert abs(ident) <= 1e-5
    print(
        f"[criterion 3] PASS: alpha={alpha} {shape.extents} n={n} "
        f"uniqueness_gap={gap:.2e}, identity={ident:.2e}"
    )


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (0.5, 0.5), (2.0, 0.0), (2.0, 0.5)])
def test_criterion_4_oracle_equivalence(lab, alpha, beta):
    _, _, report = lab.solved(alpha, beta, 32, tol=1e-11)
    oracle = dense_newton_solve(ProblemSpec(alpha=alpha, beta=beta, n=32))
    rel = np.max(np.abs(report.upper - oracle)) / np.max(np.abs(oracle))
    assert rel <= 1e-8
    print(f"[criterion 4] PASS: ({alpha},{beta}) monotone vs dense Newton rel-sup {rel:.2e}")


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.0), (0.5, 0.5), (2.0, 0.0), (2.0, 0.5)])
def test_criterion_4_oracle_equivalence_rectangle(alpha, beta):
    spec = ProblemSpec(alpha, beta, rectangle(1.0, 1.0), 16, SolveConfig(tol=1e-11, max_iter=2000))
    grid = spec.make_grid()
    report = solve_monotone(spec, build_barrier_pair(grid, alpha, beta))
    assert report.converged
    assert report.ordering_violation == 0.0
    oracle = dense_newton_solve(spec)
    rel = np.max(np.abs(report.upper - oracle)) / np.max(np.abs(oracle))
    assert rel <= 1e-8
    print(f"[criterion 4] PASS: rectangle ({alpha},{beta}) n=16 monotone vs dense Newton {rel:.2e}")


def test_criterion_5_boundary_exponent(lab):
    bands = {(2.0, 0.0): (0.63, 0.70), (2.0, 1.0): (0.28, 0.38)}
    for (alpha, beta), (lo, hi) in bands.items():
        grid, _, report = lab.solved(alpha, beta, 4096, tol=FINE_TOL)
        t_fit = fit_boundary_exponent(grid, report.upper)
        assert lo <= t_fit <= hi, (alpha, beta, t_fit)
        print(f"[criterion 5] PASS: ({alpha},{beta}) n=4096 t_fit={t_fit:.4f} in [{lo},{hi}]")


def test_criterion_5_boundary_exponent_rectangle():
    # Edge-interior fit on the unit square at n=256.  The fit band sits at
    # d of 0.02-0.07 at this resolution, where continuum corrections bias t
    # low (0.667 in theory); the band brackets the measured 0.6023.
    spec = ProblemSpec(2.0, 0.0, rectangle(1.0, 1.0), 256, SolveConfig(tol=1e-8))
    grid = spec.make_grid()
    report = solve_monotone(spec, build_barrier_pair(grid, 2.0, 0.0))
    assert report.converged
    assert report.ordering_violation == 0.0
    t_fit = fit_boundary_exponent(grid, report.upper)
    assert 0.59 <= t_fit <= 0.615, t_fit
    print(f"[criterion 5] PASS: rectangle (2.0,0.0) n=256 t_fit={t_fit:.4f} in [0.59,0.615]")


def test_criterion_6_gradient_blowup_and_qbar(lab):
    grid, _, report = lab.solved(2.0, 0.0, 4096, tol=FINE_TOL)
    sigma = fit_gradient_exponent(grid, report.upper)
    assert -0.37 <= sigma <= -0.30, sigma
    levels = [
        (lab.solved(2.0, 0.0, n, tol=FINE_TOL)[0], lab.solved(2.0, 0.0, n, tol=FINE_TOL)[2].upper)
        for n in (1024, 2048, 4096)
    ]
    q20 = regularity_report(levels, 2.0, 0.0).q_bar_est
    assert 2.7 <= q20 <= 3.3, q20
    levels21 = [
        (lab.solved(2.0, 1.0, n, tol=FINE_TOL)[0], lab.solved(2.0, 1.0, n, tol=FINE_TOL)[2].upper)
        for n in (1024, 2048, 4096)
    ]
    q21 = regularity_report(levels21, 2.0, 1.0).q_bar_est
    assert 1.35 <= q21 <= 1.65, q21
    # consistency triangle: the gradient of d^t scales as d^(t-1)
    t_fit = fit_boundary_exponent(grid, report.upper)
    assert abs(t_fit - 1.0 - sigma) <= 0.05
    # sharpness dichotomy around q_bar = 3: marginal (non-)divergence is
    # ill-conditioned near the threshold, and just below it the integrals
    # converge like h^(1 - q/q_bar), too slowly to classify at n=4096, so
    # the convergent side is probed at 0.7 q_bar and the divergent at 1.1
    from sel.analysis import sobolev_integral

    def ratio(q):
        vals = [sobolev_integral(g, u, q) for g, u in levels]
        return vals[-1] / vals[-2]

    assert abs(ratio(0.7 * 3.0) - 1.0) <= 0.05
    assert ratio(1.1 * 3.0) >= 1.05
    print(
        f"[criterion 6] PASS: (2,0) sigma_fit={sigma:.4f} in [-0.37,-0.30], "
        f"q_bar={q20:.3f} vs 3; (2,1) q_bar={q21:.3f} vs 1.5; "
        f"dichotomy ratios {ratio(2.1):.4f} / {ratio(3.3):.4f}"
    )


def test_criterion_7_h1_threshold(lab):
    ns = (512, 1024, 2048, 4096)
    member_levels = [
        (lab.solved(2.5, 0.0, n, tol=FINE_TOL)[0], lab.solved(2.5, 0.0, n, tol=FINE_TOL)[2].upper)
        for n in ns
    ]
    member = h1_membership(member_levels)
    assert member.verdict == "member", member
    non_levels = [lab.newton(3.5, 0.0, n, tol=1e-9) for n in ns]
    non = h1_membership(non_levels)
    assert non.verdict == "non-member", non
    assert all(r >= 1.1 for r in non.ratios)
    print(
        f"[criterion 7] PASS: alpha=2.5 member (ratios {[f'{r:.3f}' for r in member.ratios]}), "
        f"alpha=3.5 non-member (ratios {[f'{r:.3f}' for r in non.ratios]})"
    )


# The H^1 frontier q_bar = 2 on the 64/128/256 ladder of sel sweep --n 256:
# every interval cell of alpha {0.5, 2, 2.5, 3.5} x beta {0, 0.7, 1.5}, and
# the unit-square cells nearest the frontier ((2, 0), (2.5, 0), (3.5, 0)) or
# with the weakest blow-up ((0.5, 0.7), sigma = -2/15).
H1_CELLS = [(interval(1.0), a, b) for a in (0.5, 2.0, 2.5, 3.5) for b in (0.0, 0.7, 1.5)]
H1_CELLS += [(SQUARE, a, b) for a, b in ((0.5, 0.7), (2.0, 0.0), (2.5, 0.0), (3.5, 0.0))]


@pytest.mark.parametrize(
    "shape, alpha, beta",
    H1_CELLS,
    ids=[f"{'interval' if s.dim == 1 else 'square'}-{a}-{b}" for s, a, b in H1_CELLS],
)
def test_h1_verdict_matches_the_frontier(shape, alpha, beta):
    ladder = solve_ladder(alpha, beta, shape, (64, 128, 256), SolveConfig(tol=1e-8))
    assert ladder[-1].report.converged
    rep = regularity_report([(lv.grid, lv.report.upper) for lv in ladder], alpha, beta)
    regime = resolve_regime(alpha, beta)
    assert rep.verdicts["h1"] == ("member" if regime.q_bar > 2.0 else "non-member"), rep
    assert rep.verdicts["h1_matches_theory"] is True
    if regime.sigma <= -1.0 / 3.0 + 1e-12:
        # measured at most 0.032 here (unit square, alpha 2, beta 0)
        assert abs(rep.sigma_fit - regime.sigma) <= 0.035, (rep.sigma_fit, regime.sigma)


def test_criterion_8_stability(lab):
    for alpha, shape, n in CHAIN_CASES:
        grid, _, report = lab.solved(alpha, 0.0, n, tol=1e-8, shape=shape)
        lam = lab.eig(n, shape).value
        mu = linearized_smallest_eigenvalue(grid, report.upper, alpha, 0.0, tol=1e-10)
        assert mu.value >= lam > 0.0, (alpha, shape, mu.value, lam)
    grid, _, report = lab.solved(0.5, 0.0, 64, tol=1e-10)
    mu = linearized_smallest_eigenvalue(grid, report.upper, 0.5, 0.0, tol=1e-10)
    dense = assemble_laplacian(grid).toarray() + np.diag(
        0.5 * power_weight(grid, 0.0) * report.upper ** (-1.5)
    )
    mu_dense = scipy.linalg.eigvalsh(dense)[0]
    rel = abs(mu.value - mu_dense) / mu_dense
    assert rel <= 1e-6
    print(f"[criterion 8] PASS: mu1 >= lambda1 > 0 everywhere; dense cross-check rel err {rel:.2e}")


def test_criterion_9_regularized_cross_path(lab):
    for shape, n in DOMAINS:
        _, _, report = lab.solved(0.5, 0.0, n, tol=1e-8, shape=shape)
        u = report.upper
        spec = ProblemSpec(alpha=0.5, beta=0.0, shape=shape, n=n)
        cont = epsilon_continuation(spec, 1e-1, 0.1, 5, u, tol=1e-10)
        scale = float(np.max(u))
        assert cont.eps_values[-1] == pytest.approx(1e-5)
        assert cont.deltas[-1] <= 1e-3 * scale, shape
        for u_eps in cont.fields:
            assert float(np.max(u_eps - u)) <= 1e-12 * scale, shape
        print(
            f"[criterion 9] PASS: {shape.extents} n={n} eps ladder to 1e-5, final delta "
            f"{cont.deltas[-1] / scale:.2e} of ||u||, u_eps <= u throughout"
        )


def test_criterion_10_smooth_case_convergence():
    errors, hs = [], []
    for n in (16, 32, 64):
        g = build_grid(interval(1.0), n)
        x = g.axes[0]
        u, _ = SPDFactor.on_grid(g, np.zeros(g.num_interior)).solve(
            np.pi**2 * np.sin(np.pi * x), tol=1e-13
        )
        errors.append(float(np.max(np.abs(u - np.sin(np.pi * x)))))
        hs.append(g.h[0])
    order, reliable = observed_order(errors, hs)
    assert reliable
    assert order == pytest.approx(2.0, abs=0.2)
    g = build_grid(interval(1.0), 64)
    u, _ = SPDFactor.on_grid(g, np.zeros(g.num_interior)).solve(np.ones(g.num_interior), tol=1e-13)
    mid = float(u[np.where(g.axes[0] == 0.5)[0][0]])
    assert mid == pytest.approx(0.125, abs=1e-12)
    print(f"[criterion 10] PASS: MMS order {order:.3f} (target 2.0 +/- 0.2), u(0.5)={mid!r}")


def test_criterion_11_property_suites(lab, rng):
    # linear_core positivity on 100 random nonnegative loads
    g32 = lab.grid(32)
    factor = SPDFactor.on_grid(g32, power_weight(g32, 1.5))
    for _ in range(100):
        f = rng.random(g32.num_interior)
        u, _ = factor.solve(f, tol=1e-12)
        assert u.min() >= -1e-12 * np.abs(u).max()
    # monotonized barrier map on random nodes and ordered samples
    grid = lab.grid(128)
    pair = lab.pair(2.0, 0.5, 128)
    shift = monotone_shift(grid, pair.sub, 2.0, 0.5)
    for node in rng.integers(0, grid.num_interior, size=100):
        s1, s2 = np.sort(rng.uniform(pair.sub[node], pair.super[node], size=2))
        d = grid.d[node]
        def val(s):
            return d**-0.5 * s**-2.0 + shift[node] * s
        assert val(s1) <= val(s2) + 1e-12 * abs(val(s2))
    # synthetic power-law recovery at n=4096
    fine = lab.grid(4096)
    for s in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
        t_fit = fit_boundary_exponent(fine, fine.d**s)
        assert abs(t_fit - s) <= 0.01
    print("[criterion 11] PASS: positivity x100, monotonized map x100, power-law recovery x4")


# Aim 3's table of valid inputs: the smallest grids, alpha at 0, small and
# large, beta near 0, 1 and 2, and the fine alpha = 0, beta > 1 cases.  Every
# entry must certify; any exception, typed or not, fails it.
VALID_INPUTS = (
    [
        (shape, n, alpha, beta)
        for shape, ns in ((interval(1.0), (2, 3, 33)), (SQUARE, (2, 3, 17)))
        for n in ns
        for alpha in (0.0, 0.05, 50.0)
        for beta in (0.0, 0.97, 1.5, 1.99)
    ]
    + [(interval(1.0), 4096, a, b) for a, b in ((0.0, 1.5), (0.0, 1.99), (0.05, 1.99))]
    + [(SQUARE, 32, 0.0, b) for b in (1.5, 1.99)]
)


@pytest.mark.parametrize(
    "shape, n, alpha, beta",
    VALID_INPUTS,
    ids=[f"{'interval' if s.dim == 1 else 'square'}-n{n}-{a}-{b}" for s, n, a, b in VALID_INPUTS],
)
def test_valid_input_certifies(shape, n, alpha, beta):
    (level,) = solve_ladder(alpha, beta, shape, [n], SolveConfig())
    assert level.report.converged
    assert level.report.ordering_violation <= CHAIN_TOL * np.max(level.pair.super)
    mu1 = linearized_smallest_eigenvalue(level.grid, level.report.upper, alpha, beta).value
    assert np.isfinite(mu1) and mu1 > 0
