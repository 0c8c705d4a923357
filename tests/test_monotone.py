import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from sel import grid as grid_module
from sel import barriers, cli, linear_core, monotone, oracle
from sel.barriers import (
    BORDERLINE_WARNING, BarrierPair, build_barrier_pair, resolve_regime, verify_barrier
)
from sel.grid import assemble_laplacian, build_grid, interval, mirror_fold, power_weight, rectangle
from sel.linear_core import MAX_REFINEMENTS, SPDFactor, solve_spd
from sel.monotone import (
    OrderingViolationError,
    iterate_step,
    residual,
    solve_ladder,
    solve_monotone,
    uniqueness_gap,
)
from sel.oracle import dense_newton_solve, newton_solve
from sel.problem import ProblemSpec, SolveConfig
from sel.regularized import epsilon_continuation
from sel.spectral import _forcing, dirichlet_eigenpair, linearized_smallest_eigenvalue, monotone_shift


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_iterate_is_invalid_input(lab, bad):
    # a ValueError before any arithmetic, not a SolverFailure from the solve
    grid = lab.grid(64)
    pair = lab.pair(0.5, 0.0, 64)
    field = pair.super.copy()
    field[10] = bad
    with pytest.raises(ValueError, match="field has a NaN or inf entry"):
        step(grid, pair.sub, field, 0.5, 0.0)
    with pytest.raises(ValueError, match="field has a NaN or inf entry"):
        residual(grid, field, 0.5, 0.0)


def _log_uniform_long_double(rng):
    return (10.0 ** rng.uniform(-8.0, 2.0, 100_000)).astype(np.longdouble)


def _forcing_power(s, alpha):
    # _forcing of a long-double field at beta = 0, where the weight d^0 is 1.0
    return _forcing(build_grid(interval(1.0), s.size + 1), s, alpha, 0.0)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.5, 4.0, 7.3, 12.0, 12.5, 50.0])
def test_forcing_power_is_within_long_double_round_off_of_pow(rng, alpha):
    # exp(-alpha log s) against the long-double ** reference: the log's
    # round-off is amplified by alpha |ln s|, the exp's and the product's are not
    s = _log_uniform_long_double(rng)
    reference = s ** (-alpha)
    eps = np.finfo(np.longdouble).eps
    bound = 4 * eps * (1 + alpha * np.abs(np.log(s)))
    assert np.all(np.abs(_forcing_power(s, alpha) / reference - 1) <= bound)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0])
def test_forcing_power_at_small_integer_alpha_is_pow(rng, alpha):
    s = _log_uniform_long_double(rng)
    np.testing.assert_array_equal(_forcing_power(s, alpha), s ** (-alpha))


@pytest.mark.parametrize("alpha, iterations", [(0.5, 3), (2.0, 4), (2.5, 4)])
def test_fine_interval_iteration_counts_and_ordering(lab, alpha, iterations):
    _, _, report = lab.solved(alpha, 0.0, 4096, tol=1e-6)
    assert report.converged
    assert report.iterations == iterations
    assert report.ordering_violation == 0.0


def test_unit_square_small_alpha_iteration_count_and_ordering():
    (level,) = solve_ladder(0.5, 0.0, rectangle(1.0, 1.0), [64], SolveConfig(tol=1e-8))
    assert level.report.converged
    assert level.report.iterations == 4
    assert level.report.ordering_violation == 0.0


@pytest.mark.parametrize("beta, n", [(0.0, 24), (0.5, 40), (0.9, 28)])
def test_unit_square_linear_problem_starts_at_the_solution(beta, n):
    # at alpha = 0 both barriers scale psi, the solution itself: the chain
    # closes in one step, exactly ordered
    spec = ProblemSpec(0.0, beta, rectangle(1.0, 1.0), n, SolveConfig(tol=1e-8))
    pair = build_barrier_pair(spec.make_grid(), 0.0, beta)
    assert pair.c < 1.0 < pair.C
    report = solve_monotone(spec, pair)
    assert report.converged and report.iterations == 1
    assert report.ordering_violation == 0.0


@pytest.mark.parametrize(
    "shape, beta, n",
    [(interval(), 1.5, 4096), (interval(), 1.99, 4096), (rectangle(), 1.5, 64), (rectangle(), 1.99, 32)],
    ids=["interval-1.5-n4096", "interval-1.99-n4096", "square-1.5-n64", "square-1.99-n32"],
)
def test_linear_problem_above_the_split_is_ordered_by_construction(shape, beta, n):
    # at alpha = 0 both sides reach the solution in one step; the gap's
    # right-hand side is exactly 0, so its solve takes no iteration and the
    # two sides cannot cross
    spec = ProblemSpec(0.0, beta, shape, n, SolveConfig(tol=1e-8))
    report = solve_monotone(spec, build_barrier_pair(spec.make_grid(), 0.0, beta))
    assert report.converged and report.iterations == 1
    assert report.inner_iterations[0][1] == 0
    assert report.ordering_violation == 0.0


GAP_RUNS = [
    (interval(), 256, 0.5, 0.0),
    (interval(), 256, 2.5, 0.0),
    (interval(), 1024, 0.3, 0.5),
    (interval(), 2048, 7.3, 1.2),
    (interval(), 4096, 0.0, 1.5),
    (rectangle(), 32, 2.0, 0.0),
    (rectangle(), 64, 0.5, 0.0),
    (rectangle(), 32, 0.0, 1.99),
]


@pytest.mark.parametrize(
    "shape, n, alpha, beta",
    GAP_RUNS,
    ids=[f"{'interval' if s.dim == 1 else 'square'}-n{n}-{a}-{b}" for s, n, a, b in GAP_RUNS],
)
def test_gap_solve_is_nonnegative_nodewise(monkeypatch, shape, n, alpha, beta):
    # each outer step solves twice with its factor: the lower step's
    # increment, then the gap upper - lower, which must be >= 0 at every node
    solutions = []

    class Recording(SPDFactor):
        def solve(self, f, tol=1e-12):
            x, stats = super().solve(f, tol)
            solutions.append(x)
            return x, stats

    monkeypatch.setattr(monotone, "SPDFactor", Recording)
    spec = ProblemSpec(alpha, beta, shape, n, SolveConfig(tol=1e-8))
    report = solve_monotone(spec, build_barrier_pair(spec.make_grid(), alpha, beta))
    assert report.converged
    assert len(solutions) == 2 * report.iterations
    for gap in solutions[1::2]:
        assert gap.min() >= 0.0


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
    with pytest.raises(ValueError, match="field must be positive nodewise"):
        residual(grid, -report.upper, 2.0, 0.0)


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
    monkeypatch.setattr(monotone, "_scaled_shift", lambda weight, lower, a: 0.0 * lower)
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=64, config=SolveConfig(tol=1e-10, max_iter=200))
    with pytest.raises(OrderingViolationError):
        solve_monotone(spec, lab.pair(2.0, 0.0, 64))


def test_uncertified_pair_is_rejected(lab):
    pair = lab.pair(2.0, 0.0, 64)
    bogus = dataclasses.replace(pair, sub=pair.super * 10.0)
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=64)
    with pytest.raises(ValueError):
        solve_monotone(spec, bogus)


@pytest.mark.parametrize("side", ["sub", "super"])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("shape, n", [(interval(), 64), (rectangle(), 32)], ids=["interval", "square"])
def test_pair_scaled_past_its_exact_constant_fails_certification(monkeypatch, shape, n, alpha, side):
    # a relative 1e-8 past the exact constant gives a positive signed defect:
    # rejected by the exact sign before any factor is built
    spec = ProblemSpec(alpha=alpha, beta=0.0, shape=shape, n=n)
    pair = build_barrier_pair(spec.make_grid(), alpha, 0.0)
    if side == "sub":
        pair = dataclasses.replace(pair, sub=pair.sub * (1.0 + 1e-8))
    else:
        pair = dataclasses.replace(pair, super=pair.super * (1.0 - 1e-8))
    monkeypatch.setattr(monotone, "SPDFactor", lambda a: pytest.fail("a factor was built"))
    with pytest.raises(ValueError, match=f"{side}solution fails certification"):
        solve_monotone(spec, pair)


def test_borderline_solves_through_t1_path(lab):
    spec = ProblemSpec(alpha=0.5, beta=0.5, n=64, config=SolveConfig(tol=1e-9, max_iter=1000))
    report = solve_monotone(spec, lab.pair(0.5, 0.5, 64))
    assert report.converged
    assert resolve_regime(0.5, 0.5).warnings == (BORDERLINE_WARNING,)
    assert uniqueness_gap(report) <= 1e-7
    # every borderline cell on both domains: certified t = 1 barriers, an ordered chain
    for alpha, beta in ((0, 1), (1, 0), (0.2, 0.8), (0.9, 0.1), (0.3, 0.7), (0.75, 0.25)):
        for shape, n in ((interval(1.0), 256), (rectangle(1.0, 1.0), 32)):
            (level,) = solve_ladder(alpha, beta, shape, [n], SolveConfig())
            assert level.pair.t == 1.0
            assert level.report.converged, (alpha, beta, n)
            assert level.report.ordering_violation == 0.0, (alpha, beta, n)


def test_ladder_stops_at_first_unconverged_level(lab):
    # at tol 1e-9, alpha=2 takes 4 / 5 / 5 iterations at n = 16 / 32 / 64
    config = SolveConfig(tol=1e-9, max_iter=4)
    levels = solve_ladder(2.0, 0.0, interval(1.0), (16, 32, 64), config)
    assert [level.grid.n for level in levels] == [16, 32]
    assert levels[0].report.converged
    assert not levels[1].report.converged
    assert levels[1].report.iterations == 4
    # each level is the grid -> barriers -> monotone pipeline
    _, pair, report = lab.solved(2.0, 0.0, 16, tol=1e-9)
    np.testing.assert_array_equal(levels[0].pair.super, pair.super)
    np.testing.assert_array_equal(levels[0].report.upper, report.upper)


@pytest.mark.parametrize("shape, axes", [(interval(1.0), 1), (rectangle(1.0, 1.0), 2)])
def test_ladder_level_assembles_its_laplacian_once(monkeypatch, shape, axes):
    # eigenpair residual, both barriers, both certificates, solve_monotone,
    # mu_1 and the residual all share the level grid's one Laplacian
    calls = []
    assemble = grid_module._assemble
    monkeypatch.setattr(grid_module, "_assemble", lambda g: calls.append(g.dim) or assemble(g))
    levels = solve_ladder(2.0, 0.0, shape, (16, 32), SolveConfig(tol=1e-8))
    assert all(level.report.converged for level in levels)
    assert calls == [axes, axes]
    for level in levels:
        u = level.report.upper
        linearized_smallest_eigenvalue(level.grid, u, 2.0, 0.0)
        residual(level.grid, u, 2.0, 0.0)
    assert calls == [axes, axes]


def _counted_verify(monkeypatch) -> list:
    # verify_barrier, as barriers and monotone call it, recording (alpha, beta, side)
    calls, verify = [], barriers.verify_barrier

    def counted(grid, field, alpha, beta, side):
        calls.append((alpha, beta, side))
        return verify(grid, field, alpha, beta, side)

    for module in (barriers, monotone):
        monkeypatch.setattr(module, "verify_barrier", counted)
    return calls


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["interval", "square"])
def test_each_ladder_level_certifies_its_pair_once(monkeypatch, shape):
    # build_barrier_pair certifies both sides; solve_monotone does not repeat it
    calls = _counted_verify(monkeypatch)
    levels = solve_ladder(2.0, 0.0, shape, (16, 32), SolveConfig(tol=1e-8))
    assert all(level.report.converged for level in levels)
    assert calls == [(2.0, 0.0, "sub"), (2.0, 0.0, "super")] * 2


@pytest.mark.parametrize("alpha, beta, failing", [(0.5, 0.0, "sub"), (2.0, 0.5, "super")])
def test_pair_certified_for_another_instance_is_verified_again(monkeypatch, alpha, beta, failing):
    grid = build_grid(interval(1.0), 32)
    pair = build_barrier_pair(grid, 2.0, 0.0)
    calls = _counted_verify(monkeypatch)
    spec = ProblemSpec(alpha=alpha, beta=beta, n=32)
    assert spec.make_grid() is grid
    with pytest.raises(ValueError, match=f"{failing}solution fails certification"):
        solve_monotone(spec, pair)
    assert calls[-1] == (alpha, beta, failing)


def test_pair_certified_on_another_grid_object_is_verified_again(monkeypatch):
    pair = build_barrier_pair(build_grid(interval(1.0), 32), 2.0, 0.0)
    grid_module._shared_grid.cache_clear()  # the spec's grid: equal, but another object
    calls = _counted_verify(monkeypatch)
    assert solve_monotone(ProblemSpec(alpha=2.0, beta=0.0, n=32), pair).converged
    assert calls == [(2.0, 0.0, "sub"), (2.0, 0.0, "super")]


def test_hand_built_pair_is_verified(monkeypatch):
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=32)
    built = build_barrier_pair(spec.make_grid(), 2.0, 0.0)
    fields = {f.name: getattr(built, f.name) for f in dataclasses.fields(built) if f.init}
    calls = _counted_verify(monkeypatch)
    for pair in (BarrierPair(**fields), dataclasses.replace(built)):
        assert pair.certified_for is None
        assert solve_monotone(spec, pair).converged
    assert calls == [(2.0, 0.0, "sub"), (2.0, 0.0, "super")] * 2


@pytest.mark.parametrize(
    "shape, n", [(interval(1.0), 256), (rectangle(1.0, 1.0), 32)], ids=["interval", "square"]
)
def test_outer_steps_factor_by_the_grid(monkeypatch, shape, n):
    # no monotone or Newton step scans a matrix pattern: the factor is
    # routed by the grid, not by the shape of its matrix
    spec = ProblemSpec(alpha=2.0, beta=0.0, shape=shape, n=n)
    grid = spec.make_grid()
    pair = build_barrier_pair(grid, 2.0, 0.0)
    for module in (grid_module, linear_core, monotone, oracle):
        if hasattr(module, "is_tridiagonal"):
            monkeypatch.setattr(module, "is_tridiagonal", lambda *args: pytest.fail("pattern scan"))
    assert solve_monotone(spec, pair).converged
    u = newton_solve(grid, 2.0, 0.0, pair.super, tol=1e-9)
    assert residual(grid, u, 2.0, 0.0) <= 1e-9


@pytest.mark.parametrize("max_iter", [2.5, 3.0])
def test_non_integer_max_iter_rejected(max_iter):
    # rejected as invalid input here, not later as a bare TypeError from range
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolveConfig(max_iter=max_iter)


def test_spec_grid_is_built_once():
    spec = ProblemSpec(alpha=2.0, beta=0.0, n=32)
    assert spec.make_grid() is spec.make_grid()
    # one grid per (shape, n) per process, whatever spec asks for it
    assert ProblemSpec(alpha=0.5, beta=1.0, n=32).make_grid() is spec.make_grid()
    assert ProblemSpec(alpha=2.0, beta=0.0, n=64).make_grid() is not spec.make_grid()
    assert ProblemSpec(alpha=2.0, beta=0.0, shape=rectangle(), n=32).make_grid() is not spec.make_grid()


@pytest.mark.parametrize(
    "shape, ns", [(rectangle(1.0, 1.0), (32, 64, 128)), (rectangle(2.0, 0.5), (32, 64))]
)
def test_rectangle_outer_iterations_do_not_grow_with_n(shape, ns):
    # barriers built from the corner-aware profile start the gap near 0.08
    for n in ns:
        spec = ProblemSpec(alpha=2.0, beta=0.0, shape=shape, n=n, config=SolveConfig(tol=1e-8))
        report = solve_monotone(spec, build_barrier_pair(spec.make_grid(), 2.0, 0.0))
        assert report.converged
        assert report.iterations <= 5, n
        assert report.ordering_violation == 0.0


@pytest.mark.parametrize(
    "alpha, beta, n", [(0.1, 0.0, 4096), (0.4, 0.0, 8192), (0.5, 0.0, 16384), (0.05, 0.0, 4096)]
)
def test_fine_interval_small_alpha_certifies(alpha, beta, n):
    # a double x floors a banded solve's relative residual near
    # eps ||A|| ||x|| / ||f||, which grows like n^2 and passes INNER_TOL = 1e-10
    # here (and the psi solve's 1e-9 at n=16384); refined in long double it does not
    (level,) = solve_ladder(alpha, beta, interval(), [n], SolveConfig())
    assert level.report.converged
    assert level.report.ordering_violation == 0.0


class _NegativeFactor:
    """A factor whose solve returns -3 at every node."""

    def solve(self, rhs, tol):
        return np.full(rhs.shape, -3.0), None


def test_step_that_loses_positivity_is_an_ordering_violation(lab):
    grid, pair = lab.grid(32), lab.pair(0.5, 0.0, 32)
    assert pair.super.max() < 3.0
    with pytest.raises(OrderingViolationError, match="iterate lost positivity"):
        iterate_step(grid, _NegativeFactor(), pair.super, 0.5, 0.0)


class _NaNSolve(SPDFactor):
    """A factor whose solve number `poisoned` (1: the lower step's increment,
    2: the gap) returns a NaN at one node."""

    poisoned = 2

    def solve(self, f, tol=1e-12):
        x, stats = super().solve(f, tol)
        self.solves = getattr(self, "solves", 0) + 1
        if self.solves == self.poisoned:
            x = x.copy()
            x[x.size // 2] = np.nan
        return x, stats


NAN_RUNS = [(interval(), 64), (rectangle(), 32)]


@pytest.mark.parametrize("poisoned", [1, 2], ids=["lower", "gap"])
@pytest.mark.parametrize("shape, n", NAN_RUNS, ids=["interval", "square"])
def test_nan_iterate_is_an_ordering_violation(monkeypatch, shape, n, poisoned):
    # a NaN from an inner solve is a solver failure on valid input, caught
    # where the iterate is made, not an invalid-input ValueError downstream
    poisoned_factor = type("Poisoned", (_NaNSolve,), {"poisoned": poisoned})
    monkeypatch.setattr(monotone, "SPDFactor", poisoned_factor)
    spec = ProblemSpec(0.5, 0.0, shape, n, SolveConfig(tol=1e-8))
    side = "lower" if poisoned == 1 else "upper"
    match = f"{side} iterate lost positivity or finiteness"
    with pytest.raises(OrderingViolationError, match=match):
        solve_monotone(spec, build_barrier_pair(spec.make_grid(), 0.5, 0.0))


@pytest.mark.parametrize("shape, n", NAN_RUNS, ids=["interval", "square"])
def test_chain_gate_carries_a_nan_through(monkeypatch, shape, n):
    # with the iterate check out of the way, the chain gate itself rejects
    # the NaN: its maximum propagates it and the test is `not <= tol`
    monkeypatch.setattr(monotone, "SPDFactor", _NaNSolve)
    monkeypatch.setattr(monotone, "_check_iterate", lambda u, side: u)
    spec = ProblemSpec(0.5, 0.0, shape, n, SolveConfig(tol=1e-8))
    with pytest.raises(OrderingViolationError, match="chain violation nan"):
        solve_monotone(spec, build_barrier_pair(spec.make_grid(), 0.5, 0.0))


def test_nan_iterate_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(monotone, "SPDFactor", _NaNSolve)
    assert cli.main(["solve", "--alpha", "0.5", "--n", "64", "--out", str(tmp_path / "nan")]) == 2
    assert "upper iterate lost positivity or finiteness" in capsys.readouterr().err


def test_each_outer_step_validates_two_fields(monkeypatch):
    # the step's two iterates are each checked once where they are made
    # (_check_iterate), on the cell; the shift is checked finite by
    # MirrorFold.shifted, and F and the weighted gap take those arrays as
    # they are: no grid-field check runs inside the loop
    spec = ProblemSpec(0.5, 0.0, interval(), 256, SolveConfig(tol=1e-8))
    pair = build_barrier_pair(spec.make_grid(), 0.5, 0.0)
    calls = {"check_field": 0, "check_positive": 0, "_check_iterate": 0}
    for name in calls:
        owner = monotone if name == "_check_iterate" else grid_module.Grid
        original = getattr(owner, name)
        if owner is monotone:

            def counted(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

        else:

            def counted(self, u, original=original, name=name):
                calls[name] += 1
                return original(self, u)

        monkeypatch.setattr(owner, name, counted)

    def checks(max_iter):
        for name in calls:
            calls[name] = 0
        config = SolveConfig(tol=1e-8, max_iter=max_iter)
        report = solve_monotone(dataclasses.replace(spec, config=config), pair)
        assert report.iterations == max_iter and not report.converged
        return tuple(calls.values())

    once, twice = checks(1), checks(2)
    assert tuple(b - a for a, b in zip(once, twice)) == (0, 0, 2)


@pytest.mark.parametrize("shape, n", [(interval(), 64), (rectangle(1.0, 1.0), 16)])
@pytest.mark.parametrize("alpha, beta", [(0.5, 0.0), (2.0, 0.5)])
def test_each_entry_checks_its_field_once(monkeypatch, shape, n, alpha, beta):
    # verify_barrier and residual check the field they are given, and
    # build_barrier_pair each scaled side through verify_barrier; F and the
    # defect take those fields as they are
    grid = build_grid(shape, n)
    pair = build_barrier_pair(grid, alpha, beta)
    calls = []
    original = grid_module.Grid.check_positive

    def counted(self, u):
        calls.append(u)
        return original(self, u)

    monkeypatch.setattr(grid_module.Grid, "check_positive", counted)

    def checks(entry):
        calls.clear()
        entry()
        return len(calls)

    assert checks(lambda: barriers.verify_barrier(grid, pair.sub, alpha, beta, "sub")) == 1
    assert checks(lambda: residual(grid, pair.super, alpha, beta)) == 1
    assert checks(lambda: build_barrier_pair(grid, alpha, beta)) == 2


def _fresh_grid():
    # a second Grid of one (shape, n), as build_grid makes after LRU eviction
    return grid_module._shared_grid.__wrapped__(interval(), 16)


def _level():
    return solve_ladder(2.0, 0.0, interval(), [16], SolveConfig())[0]


IDENTITY_BUILDS = {
    "Grid": _fresh_grid,
    "EigenPair": lambda: dirichlet_eigenpair(_fresh_grid()),
    "BarrierPair": lambda: build_barrier_pair(build_grid(interval(), 16), 2.0, 0.0),
    "SolveReport": lambda: _level().report,
    "LadderLevel": _level,
    "ContinuationReport": lambda: epsilon_continuation(
        ProblemSpec(2.0, 0.0, interval(), 16), 0.1, 0.1, 1, build_grid(interval(), 16).d
    ),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_BUILDS))
def test_array_holding_dataclasses_compare_by_identity(name):
    # a generated __eq__ would compare their arrays and raise on the truth
    # value of an array, and a frozen one would hash them
    first, second = IDENTITY_BUILDS[name](), IDENTITY_BUILDS[name]()
    assert type(first).__name__ == name
    assert first is not second
    assert first != second and not first == second
    assert first == first
    if type(first).__dataclass_params__.frozen:
        assert hash(first) == hash(first) and len({first, second}) == 2


CELL_CASES = [(0.5, 0.0), (2.0, 0.5), (3.5, 1.5)]


@pytest.mark.parametrize("alpha, beta", CELL_CASES)
@pytest.mark.parametrize(
    "shape, n",
    [(interval(), 31), (interval(), 32), (rectangle(), 16), (rectangle(), 17), (rectangle(2.0, 0.5), 32)],
)
def test_cell_limits_match_the_dense_oracle(shape, n, alpha, beta):
    # the monotone loop runs on the mirror cell; its mirrored limits are the
    # full grid's discrete solution, which dense-Cholesky Newton finds on
    # the full grid
    spec = ProblemSpec(alpha, beta, shape, n, SolveConfig(tol=1e-11, max_iter=2000))
    report = solve_monotone(spec, build_barrier_pair(spec.make_grid(), alpha, beta))
    assert report.converged and report.ordering_violation == 0.0
    oracle = dense_newton_solve(spec)
    for side in (report.lower, report.upper):
        assert np.max(np.abs(side - oracle)) <= 1e-10 * np.max(oracle)


@pytest.mark.parametrize("alpha, beta", CELL_CASES)
@pytest.mark.parametrize(
    "shape, n, tol", [(interval(), 4095, 1e-8), (rectangle(), 33, 1e-11)], ids=["interval", "square"]
)
def test_cell_limits_match_full_grid_newton_at_odd_n(shape, n, tol, alpha, beta):
    # at odd n the midlines fall between nodes: every cell node stands for
    # two per axis, and the two beside a midline couple in K
    spec = ProblemSpec(alpha, beta, shape, n, SolveConfig(tol=1e-11, max_iter=2000))
    grid = spec.make_grid()
    pair = build_barrier_pair(grid, alpha, beta)
    report = solve_monotone(spec, pair)
    assert report.converged and report.ordering_violation == 0.0
    u = newton_solve(grid, alpha, beta, pair.super, tol=tol)
    for side in (report.lower, report.upper):
        assert np.max(np.abs(side - u)) <= 1e-10 * np.max(u)


@pytest.mark.parametrize("shape, n", [(interval(), 64), (rectangle(), 17)], ids=["interval", "square"])
def test_an_asymmetric_pair_folds_inside_itself(shape, n):
    # A hand-built certified pair with no mirror symmetry: solve_monotone
    # starts the cell from the orbit max of sub and the orbit min of super.
    # A max of subsolutions is a subsolution and a min of supersolutions a
    # supersolution (the operator is an M-matrix and F depends on the node
    # alone), and each side's mirror images are sides too, so the folded
    # pair certifies, lies inside the given one, and leads to the solution.
    alpha, beta = 2.0, 0.0
    grid = build_grid(shape, n)
    x = np.meshgrid(*grid.axes, indexing="ij")[0].ravel()
    phi = dirichlet_eigenpair(grid).field * (1.0 + 0.2 * x)
    base = barriers._corner_profile(grid, phi) ** resolve_regime(alpha, beta).t
    c, C = barriers._exact_scale(assemble_laplacian(grid), _forcing(grid, base, alpha, beta), base, alpha)
    pair = BarrierPair(sub=c * base, super=C * base, c=c, C=C, t=2.0 / 3.0, c1=c, c2=C)
    fold = mirror_fold(grid)
    assert not np.array_equal(pair.sub, pair.sub[fold.rep][fold.idx])
    sub = fold.orbit_reduce(pair.sub, np.maximum)[fold.idx]
    sup = fold.orbit_reduce(pair.super, np.minimum)[fold.idx]
    for side, fld in (("sub", pair.sub), ("super", pair.super), ("sub", sub), ("super", sup)):
        assert verify_barrier(grid, fld, alpha, beta, side).passed
    assert np.all(pair.sub <= sub) and np.all(sub <= sup) and np.all(sup <= pair.super)
    spec = ProblemSpec(alpha, beta, shape, n, SolveConfig(tol=1e-11))
    report = solve_monotone(spec, pair)
    assert report.converged and report.ordering_violation == 0.0
    assert np.all(sub <= report.lower) and np.all(report.upper <= sup)
    symmetric = solve_monotone(spec, build_barrier_pair(grid, alpha, beta))
    np.testing.assert_allclose(report.upper, symmetric.upper, rtol=1e-12)


@pytest.mark.parametrize("n", [8, 17, 64, 65, 90])
def test_square_limits_are_symmetric_about_the_diagonal(monkeypatch, n):
    # the square's cell is an eighth, so the limits are mirrored from it
    # about the diagonal too, to the bit; mu_1 at them is solved on that
    # cell alone: a fallback to the full grid fails here
    alpha, beta = 2.0, 0.7
    (level,) = solve_ladder(alpha, beta, rectangle(), [n], SolveConfig(tol=1e-8))
    assert level.report.converged
    for u in (level.report.lower, level.report.upper):
        bits = u.view(np.uint64).reshape(n - 1, n - 1)
        np.testing.assert_array_equal(bits, bits.T)
    monkeypatch.setattr(SPDFactor, "on_grid", lambda *_a: pytest.fail("solved on the full grid"))
    sizes = []
    on_cell = SPDFactor.on_cell
    monkeypatch.setattr(
        SPDFactor, "on_cell", lambda *a: sizes.append(a[1].size) or on_cell(*a)
    )
    mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, alpha, beta)
    c = n // 2
    assert sizes == [c * (c + 1) // 2] and mu.field.min() > 0.0
