import numpy as np
import pytest
import scipy.sparse as sp

from sel import grid as grid_module
from sel import monotone
from sel.barriers import BORDERLINE_WARNING, resolve_regime
from sel.grid import assemble_laplacian, interval, power_weight, rectangle
from sel.linear_core import MAX_REFINEMENTS, SPDFactor, solve_spd
from sel.monotone import (
    OrderingViolationError,
    iterate_step,
    monotone_shift,
    residual,
    solve_ladder,
    solve_monotone,
    uniqueness_gap,
)
from sel.problem import ProblemSpec, SolveConfig
from sel.spectral import linearized_smallest_eigenvalue


def step(grid, lower, prev, alpha, beta):
    """iterate_step from prev with the shift taken at lower."""
    a0 = assemble_laplacian(grid)
    factor = SPDFactor(a0 + sp.diags_array(monotone_shift(grid, lower, alpha, beta)))
    u, _ = iterate_step(grid, factor, prev, alpha, beta)
    return u


def test_alpha_zero_converges_in_one_iteration(lab):
    spec = ProblemSpec(alpha=0.0, beta=0.0, n=64)
    report = solve_monotone(spec, lab.pair(0.0, 0.0, 64))
    assert report.converged
    assert report.iterations == 1
    u_lin, _ = solve_spd(assemble_laplacian(lab.grid(64)), np.ones(63), tol=1e-13)
    np.testing.assert_allclose(report.upper, u_lin, atol=1e-11)
    assert uniqueness_gap(report) <= 1e-12


def test_step_fixes_the_fixed_point(lab):
    grid, pair, report = lab.solved(0.5, 0.0, 128, tol=1e-10)
    out = step(grid, report.lower, report.upper, 0.5, 0.0)
    np.testing.assert_allclose(out, report.upper, atol=1e-9 * report.upper.max())


def test_single_step_descends_from_supersolution(lab):
    grid = lab.grid(128)
    pair = lab.pair(0.5, 0.0, 128)
    out = step(grid, pair.sub, pair.super, 0.5, 0.0)
    assert np.all(out <= pair.super)
    assert np.all(out > 0)


def test_step_rejects_nonpositive_iterate(lab):
    grid = lab.grid(32)
    pair = lab.pair(0.5, 0.0, 32)
    bad = pair.sub.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError):
        step(grid, pair.sub, bad, 0.5, 0.0)


def test_chain_and_gap_history(lab):
    grid, pair, report = lab.solved(0.5, 0.0, 64, tol=1e-10)
    assert report.converged
    assert report.ordering_violation <= 1e-12 * pair.super.max()
    gaps = np.array(report.gap_history)
    assert np.all(np.diff(gaps) <= 1e-12)
    assert len(report.gap_history) == report.iterations
    # converged limits stay inside the order interval and its d^t sandwich
    dt = grid.d**pair.t
    assert np.all(report.lower >= pair.sub - 1e-12)
    assert np.all(report.upper <= pair.super + 1e-12)
    assert np.all(report.upper <= pair.c2 * dt + 1e-12)
    assert np.all(report.lower >= pair.c1 * dt - 1e-12)


def test_limits_coincide(lab):
    for alpha in (0.5, 2.0):
        _, _, report = lab.solved(alpha, 0.0, 128)
        assert uniqueness_gap(report) <= 100 * 1e-8


def test_uniqueness_gap_requires_convergence(lab):
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=64, config=SolveConfig(tol=1e-10, max_iter=2))
    report = solve_monotone(spec, lab.pair(2.0, 0.0, 64))
    assert not report.converged
    assert report.iterations == 2
    assert len(report.gap_history) == 2
    with pytest.raises(ValueError):
        uniqueness_gap(report)


def test_h1_seminorm_stabilizes_under_refinement(lab):
    norms = []
    for n in (128, 256):
        grid, _, report = lab.solved(2.0, 0.0, n)
        u = report.upper
        norms.append(float(np.sqrt((u @ (assemble_laplacian(grid) @ u)) * grid.cell_volume)))
    assert abs(norms[1] - norms[0]) <= 0.10 * norms[0]


def test_residual_properties(lab):
    grid, pair, report = lab.solved(2.0, 0.0, 128, tol=1e-10)
    assert residual(grid, report.upper, 2.0, 0.0) <= 1e-6
    defect = assemble_laplacian(grid) @ pair.sub - power_weight(grid, 0.0) * pair.sub**-2.0
    assert np.all(defect < 0.0)
    # an exact discrete fixed point has a round-off-level weighted defect
    grid64, u_exact = lab.newton(2.0, 0.0, 64, tol=1e-12)
    assert residual(grid64, u_exact, 2.0, 0.0) <= 1e-11


def test_interval_iteration_count_and_ordering(lab):
    _, _, report = lab.solved(2.0, 0.5, 1024, tol=1e-8)
    assert report.converged
    assert report.iterations == 4
    assert report.ordering_violation == 0.0


def test_inner_iterations_recorded_per_outer_step(lab):
    _, _, report = lab.solved(2.0, 0.0, 64)
    assert len(report.inner_iterations) == report.iterations
    # interval steps count banded solves: one, plus any refinement steps
    assert all(1 <= it <= 1 + MAX_REFINEMENTS for step in report.inner_iterations for it in step)


def test_rectangle_inner_solves_take_few_pcg_iterations():
    # the multigrid V-cycle keeps each inner PCG solve near 7 iterations
    (level,) = solve_ladder(2.0, 0.0, rectangle(1.0, 1.0), [128], SolveConfig(tol=1e-8))
    report = level.report
    assert report.converged
    assert len(report.inner_iterations) == report.iterations
    assert max(max(step) for step in report.inner_iterations) <= 10


def test_too_small_shift_breaks_ordering(lab, monkeypatch):
    monkeypatch.setattr(monotone, "monotone_shift", lambda grid, lower, a, b: 0.0 * lower)
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=64, config=SolveConfig(tol=1e-10, max_iter=200))
    with pytest.raises(OrderingViolationError):
        solve_monotone(spec, lab.pair(2.0, 0.0, 64))


def test_uncertified_pair_is_rejected(lab):
    import dataclasses

    pair = lab.pair(2.0, 0.0, 64)
    bogus = dataclasses.replace(pair, sub=pair.super * 10.0)
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=64)
    with pytest.raises(ValueError):
        solve_monotone(spec, bogus)


def test_borderline_solves_through_t1_path(lab):
    spec = ProblemSpec(alpha=0.5, beta=0.5, n=64, config=SolveConfig(tol=1e-9, max_iter=1000))
    report = solve_monotone(spec, lab.pair(0.5, 0.5, 64))
    assert report.converged
    assert resolve_regime(0.5, 0.5).warnings == (BORDERLINE_WARNING,)
    assert uniqueness_gap(report) <= 1e-7


def test_ladder_stops_at_first_unconverged_level(lab):
    # at tol 1e-9, alpha=2 takes 4 / 5 / 5 iterations at n = 16 / 32 / 64
    config = SolveConfig(tol=1e-9, max_iter=4)
    levels = solve_ladder(2.0, 0.0, interval(1.0), (16, 32, 64), config)
    assert [level.grid.n for level in levels] == [16, 32]
    assert levels[0].report.converged
    assert not levels[1].report.converged
    assert levels[1].report.iterations == 4
    # each level is the grid -> eigenpair -> barriers -> monotone pipeline
    _, pair, report = lab.solved(2.0, 0.0, 16, tol=1e-9)
    assert levels[0].eig.value == lab.eig(16).value
    np.testing.assert_array_equal(levels[0].pair.super, pair.super)
    np.testing.assert_array_equal(levels[0].report.upper, report.upper)


@pytest.mark.parametrize("shape, axes", [(interval(1.0), 1), (rectangle(1.0, 1.0), 2)])
def test_ladder_level_assembles_its_laplacian_once(monkeypatch, shape, axes):
    # eigenpair residual, both barriers, both certificates, solve_monotone,
    # mu_1 and the residual all share the level grid's one Laplacian
    calls = []
    second_difference = grid_module._second_difference
    monkeypatch.setattr(
        grid_module, "_second_difference", lambda m: calls.append(m) or second_difference(m)
    )
    levels = solve_ladder(2.0, 0.0, shape, (16, 32), SolveConfig(tol=1e-8))
    assert all(level.report.converged for level in levels)
    assert len(calls) == 2 * axes
    for level in levels:
        u = level.report.upper
        linearized_smallest_eigenvalue(level.grid, u, 2.0, 0.0)
        residual(level.grid, u, 2.0, 0.0)
    assert len(calls) == 2 * axes


def test_spec_grid_is_built_once():
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=32)
    assert spec.make_grid() is spec.make_grid()
    assert ProblemSpec(alpha=2.0, beta=0.0, n=32).make_grid() is not spec.make_grid()
