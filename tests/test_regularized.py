import sys

import numpy as np
import pytest

from sel import linear_core, regularized
from sel.barriers import build_barrier_pair
from sel.grid import assemble_laplacian, interval, power_weight, rectangle
from sel.linear_core import solve_spd
from sel.monotone import residual
from sel.oracle import NewtonStagnationError, newton_solve
from sel.problem import ProblemSpec
from sel.regularized import epsilon_continuation, solve_regularized


def test_alpha_zero_is_exact_linear_solve(lab):
    grid = lab.grid(64)
    for eps in (1.0, 1e-4):
        u = newton_solve(grid, 0.0, 0.5, np.zeros(grid.num_interior), tol=1e-11, eps=eps)
        u_lin, _ = solve_spd(assemble_laplacian(grid), power_weight(grid, 0.5), tol=1e-12)
        np.testing.assert_allclose(u, u_lin, atol=1e-9)


def test_huge_eps_reduces_to_scaled_linear_problem(lab):
    grid = lab.grid(64)
    eps = 1e3
    u = newton_solve(grid, 1.0, 0.0, np.zeros(grid.num_interior), tol=1e-12, eps=eps)
    u_lin, _ = solve_spd(assemble_laplacian(grid), np.ones(grid.num_interior) / eps, tol=1e-13)
    np.testing.assert_allclose(u, u_lin, rtol=1e-5)


def test_agrees_with_monotone_path_at_small_eps(lab):
    grid, pair, report = lab.solved(0.5, 0.0, 256)
    u_eps = newton_solve(grid, 0.5, 0.0, pair.super, tol=1e-10, eps=1e-3)
    scale = report.upper.max()
    assert np.max(np.abs(u_eps - report.upper)) <= 2e-3 * scale
    assert np.max(u_eps - report.upper) <= 1e-10 * scale


@pytest.mark.parametrize("eps", [-1e-3, np.nan, np.inf])
def test_eps_must_be_finite_and_nonnegative(lab, eps):
    grid = lab.grid(32)
    with pytest.raises(ValueError):
        newton_solve(grid, 0.5, 0.0, lab.pair(0.5, 0.0, 32).super, eps=eps)


def test_input_validation(lab):
    grid = lab.grid(32)
    spec = ProblemSpec(alpha=0.5, beta=0.0, n=32)
    # init + eps must be positive nodewise
    with pytest.raises(ValueError):
        newton_solve(grid, 0.5, 0.0, np.zeros(grid.num_interior), eps=0.0)
    with pytest.raises(ValueError):
        newton_solve(grid, 0.5, 0.0, -np.ones(grid.num_interior), eps=1e-3)
    # a continuation rung needs eps > 0
    with pytest.raises(ValueError):
        solve_regularized(spec, 0.0, np.ones(grid.num_interior))
    # checked before any solve, not by the first rung
    for eps_start in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps_start must be positive and finite"):
            epsilon_continuation(spec, eps_start, 0.1, 3, np.zeros(grid.num_interior))
    with pytest.raises(ValueError):
        epsilon_continuation(spec, 0.1, 1.5, 3, np.zeros(grid.num_interior))
    with pytest.raises(ValueError):
        epsilon_continuation(spec, 0.1, 0.1, 0, np.zeros(grid.num_interior))


@pytest.mark.parametrize("steps", [2.0, 1.5, np.float64(3.0), "3"])
def test_non_integer_steps_is_rejected_before_any_solve(lab, monkeypatch, steps):
    # as SolveConfig.max_iter: a float count fails here, not in np.empty after the barriers
    grid = lab.grid(32)
    spec = ProblemSpec(alpha=0.5, beta=0.0, n=32)
    monkeypatch.setattr(regularized, "build_barrier_pair", lambda *_: pytest.fail("solved first"))
    with pytest.raises(ValueError, match="steps must be an integer"):
        epsilon_continuation(spec, 0.1, 0.1, steps, np.zeros(grid.num_interior))


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_tol_must_be_positive_and_finite(lab, monkeypatch, tol):
    # both checked before any solve or barrier construction
    grid = lab.grid(32)
    spec = ProblemSpec(alpha=0.5, beta=0.0, n=32)
    monkeypatch.setattr(regularized, "build_barrier_pair", lambda *_: pytest.fail("solved first"))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_regularized(spec, 1e-3, lab.pair(0.5, 0.0, 32).super, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        epsilon_continuation(spec, 0.1, 0.1, 2, np.ones(grid.num_interior), tol=tol)


@pytest.mark.parametrize(
    "shape, n, alpha", [(interval(), 64, 0.5), (rectangle(), 17, 2.0)], ids=["interval", "square"]
)
def test_newton_and_continuation_factor_by_the_grid(monkeypatch, shape, n, alpha):
    # every sparse Newton step, eps = 0 or > 0, and every continuation rung
    # factors through SPDFactor.on_grid, never by matrix pattern
    spec = ProblemSpec(alpha=alpha, beta=0.0, shape=shape, n=n)
    grid = spec.make_grid()
    init = build_barrier_pair(grid, alpha, 0.0).super

    def fail(*_args, **_kwargs):
        pytest.fail("factored by matrix pattern")

    for name, module in list(sys.modules.items()):
        if (name == "sel" or name.startswith("sel.")) and hasattr(module, "is_tridiagonal"):
            monkeypatch.setattr(module, "is_tridiagonal", fail)
    monkeypatch.setattr(linear_core.SPDFactor, "__init__", fail)
    u = newton_solve(grid, alpha, 0.0, init, tol=1e-9)
    assert residual(grid, u, alpha, 0.0) <= 1e-9
    u_eps = newton_solve(grid, alpha, 0.0, init, tol=1e-9, eps=1e-3)
    assert np.all(u_eps <= u + 1e-10 * u.max())
    report = epsilon_continuation(spec, 1e-2, 0.1, 2, u)
    assert report.deltas_monotone
    assert np.max(np.abs(report.fields[-1] - u_eps)) <= 1e-6 * u.max()


def test_unreachable_tolerance_stagnates(lab):
    grid = lab.grid(32)
    init = lab.pair(0.5, 0.0, 32).super
    with pytest.raises(NewtonStagnationError):
        newton_solve(grid, 0.5, 0.0, init, tol=1e-30, eps=1e-3)


def test_continuation_deltas_shrink_and_stay_below(lab):
    grid, _, report = lab.solved(0.5, 0.0, 128)
    spec = ProblemSpec(alpha=0.5, beta=0.0, n=128)
    cont = epsilon_continuation(spec, 1e-1, 0.1, 5, report.upper, tol=1e-10)
    scale = report.upper.max()
    assert cont.eps_values[-1] == pytest.approx(1e-5)
    assert cont.deltas[-1] <= 1e-3 * scale
    assert cont.deltas_monotone
    for u_eps in cont.fields:
        assert np.max(u_eps - report.upper) <= 1e-10 * scale


def test_path_agreement_envelope(lab):
    # |monotone - continuation limit| <= max(10 tol, 2 eps^min(1, 2/(1+alpha))) * ||u||
    for alpha in (0.5, 2.0):
        grid, _, report = lab.solved(alpha, 0.0, 128)
        spec = ProblemSpec(alpha=alpha, beta=0.0, n=128)
        cont = epsilon_continuation(spec, 1e-1, 0.1, 5, report.upper, tol=1e-10)
        rate = min(1.0, 2.0 / (1.0 + alpha))
        envelope = max(10 * 1e-8, 2.0 * cont.eps_values[-1] ** rate)
        assert cont.deltas[-1] <= envelope * report.upper.max()
        assert cont.deltas_monotone


def test_alpha_zero_continuation_is_eps_independent(lab):
    grid = lab.grid(64)
    u_lin, _ = solve_spd(assemble_laplacian(grid), np.ones(grid.num_interior), tol=1e-13)
    spec = ProblemSpec(alpha=0.0, beta=0.0, n=64)
    cont = epsilon_continuation(spec, 1e-2, 0.1, 3, u_lin, tol=1e-12)
    assert np.all(cont.deltas <= 1e-9 * u_lin.max())


def test_continuation_away_from_the_reference_warns(lab):
    # the eps-solutions grow toward u as eps drops, so their distance to 0 grows
    spec = ProblemSpec(alpha=0.5, beta=0.0, n=32)
    with pytest.warns(UserWarning, match="did not decrease monotonically"):
        cont = epsilon_continuation(spec, 1e-1, 0.1, 3, np.zeros(31))
    assert not cont.deltas_monotone
