import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sel import linear_core
from sel.grid import (
    assemble_laplacian,
    build_grid,
    interval,
    mirror_fold,
    power_weight,
    rectangle,
    shifted_laplacian,
)
from sel.linear_core import (
    DIRECT_UNKNOWNS,
    ComparisonPrincipleViolationError,
    SolverStagnationError,
    SPDFactor,
    _cell_prolongation,
    _prolongation,
    _weighted_norm,
    extended_residual,
    is_tridiagonal,
    solve_spd,
)
from sel.spectral import principal_eigenpair

# the smallest n whose factor builds a hierarchy: the first whose full grid
# ((n-1)^2 unknowns) or mirror cell exceeds DIRECT_UNKNOWNS, the quarter
# cell ((n//2)^2) of rectangle(2, 0.5) or the eighth cell of a square
# (c(c+1)/2, c = n//2)
SIDE = math.isqrt(DIRECT_UNKNOWNS)
GRID_MULTIGRID_N, CELL_MULTIGRID_N = SIDE + 2, 2 * (SIDE + 1)
SQUARE_MULTIGRID_N = 2 * next(c for c in itertools.count() if c * (c + 1) // 2 > DIRECT_UNKNOWNS)


def shifted(g, M, gamma):
    """-lap_h + M d^(-gamma): an SPD M-matrix with a singular diagonal."""
    return (assemble_laplacian(g) + sp.diags_array(M * power_weight(g, gamma))).tocsr()


def test_tridiagonal_pattern_test():
    assert is_tridiagonal(assemble_laplacian(build_grid(interval(1.0), 16)))
    assert not is_tridiagonal(assemble_laplacian(build_grid(rectangle(1.0, 1.0), 4)))
    # unsorted column indices, an empty row, and one entry two off the diagonal
    a = sp.csr_array(([1.0, 2.0, 3.0], [1, 0, 2], [0, 2, 2, 3]), shape=(3, 3))
    assert is_tridiagonal(a)
    assert not is_tridiagonal(sp.csr_array(([1.0], [2], [0, 1, 1, 1]), shape=(3, 3)))
    # few enough entries for a tridiagonal matrix: the pattern decides, not the count
    far = sp.csr_array(([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0, 4, 1, 2, 3, 4], [0, 2, 3, 4, 5, 6]))
    assert far.nnz <= 3 * 5 - 2 and not is_tridiagonal(far)
    assert is_tridiagonal(sp.csr_array(np.array([[2.0]])))
    assert not is_tridiagonal(assemble_laplacian(build_grid(rectangle(1.0, 1.0), 3)))


def test_zero_shift_matches_laplacian():
    g = build_grid(interval(1.0), 16)
    a = assemble_laplacian(g)
    b = shifted(g, 0.0, 2.0)
    assert (a != b).nnz == 0


def test_shifted_diagonal_example():
    g = build_grid(interval(1.0), 4)
    a = shifted(g, 1.0, 2.0)
    np.testing.assert_allclose(a.diagonal(), [48.0, 36.0, 48.0])


def test_shift_raises_smallest_eigenvalue():
    g = build_grid(interval(1.0), 16)
    lam0 = scipy.linalg.eigvalsh(assemble_laplacian(g).toarray())[0]
    lam1 = scipy.linalg.eigvalsh(shifted(g, 0.5, 1.5).toarray())[0]
    assert lam1 > lam0


def test_poisson_quadratic_solution():
    g = build_grid(interval(1.0), 16)
    u, stats = solve_spd(assemble_laplacian(g), np.ones(15), tol=1e-13)
    x = g.axes[0]
    np.testing.assert_allclose(u, x * (1 - x) / 2, atol=1e-13)
    assert u[7] == pytest.approx(0.125, abs=1e-13)
    assert stats.relative_residual <= 1e-13


def test_zero_rhs_gives_zero():
    g = build_grid(interval(1.0), 16)
    u, stats = solve_spd(assemble_laplacian(g), np.zeros(15))
    np.testing.assert_array_equal(u, np.zeros(15))
    assert stats.iterations == 0


def test_manufactured_forward_apply_roundtrip():
    g = build_grid(interval(1.0), 64)
    x = g.axes[0]
    exact = (x * (1 - x)) ** 2
    a = assemble_laplacian(g)
    u, _ = solve_spd(a, a @ exact, tol=1e-12)
    np.testing.assert_allclose(u, exact, atol=1e-11)


def test_operator_symmetry(rng):
    for shape, n in ((interval(1.0), 32), (rectangle(1.0, 1.0), 8)):
        g = build_grid(shape, n)
        a = shifted(g, 2.0, 1.7)
        v = rng.standard_normal(g.num_interior)
        w = rng.standard_normal(g.num_interior)
        assert (a @ v) @ w == pytest.approx(v @ (a @ w), rel=1e-12)


def test_positivity_100_random_nonnegative_rhs(rng):
    g = build_grid(interval(1.0), 32)
    a = shifted(g, 1.0, 1.5)
    for _ in range(100):
        f = rng.random(g.num_interior)
        u, _ = solve_spd(a, f, tol=1e-12)
        assert u.min() >= -1e-12 * np.abs(u).max()


def test_solution_decreases_as_shift_grows(rng):
    g = build_grid(interval(1.0), 32)
    f = rng.random(g.num_interior) + 0.1
    prev = None
    for M in (0.0, 1.0, 5.0, 25.0):
        u, _ = solve_spd(shifted(g, M, 1.5), f, tol=1e-13)
        if prev is not None:
            assert np.all(u <= prev + 1e-12 * np.abs(prev).max())
        prev = u


def test_energy_identity(rng):
    g = build_grid(interval(1.0), 64)
    a = shifted(g, 1.0, 2.0)
    f = rng.standard_normal(g.num_interior)
    tol = 1e-12
    u, _ = solve_spd(a, f, tol=tol)
    energy = (a @ u) @ u
    assert abs(energy - f @ u) <= 10 * tol * abs(energy)


def test_stagnation_below_roundoff_floor():
    g = build_grid(interval(1.0), 256)
    a = assemble_laplacian(g)
    f = np.sin(np.pi * g.axes[0]) + 0.3 * np.cos(3 * np.pi * g.axes[0])
    with pytest.raises(SolverStagnationError):
        solve_spd(a, f, tol=1e-16)


def test_banded_solve_evaluates_one_residual_per_iteration(monkeypatch):
    # the residual at x = 0 is f itself, so a banded solve never evaluates it
    g = build_grid(interval(1.0), 512)
    calls = []
    residual = linear_core.extended_residual
    monkeypatch.setattr(
        linear_core, "extended_residual", lambda *args: calls.append(1) or residual(*args)
    )
    _, stats = SPDFactor(assemble_laplacian(g)).solve(np.ones(g.num_interior), tol=1e-13)
    assert len(calls) == stats.iterations >= 2


def test_reused_factor_matches_fresh_factors(rng):
    g = build_grid(interval(1.0), 128)
    a = shifted(g, 3.0, 2.0)
    factor = SPDFactor(a)
    for _ in range(20):
        f = rng.standard_normal(g.num_interior)
        reused, _ = factor.solve(f, tol=1e-10)
        fresh, _ = SPDFactor(a).solve(f, tol=1e-10)
        np.testing.assert_array_equal(reused, fresh)


def test_extended_precision_refinement_reaches_tight_tolerance():
    # One banded solve leaves a relative residual of a few 1e-12 here; the
    # refinement against an extended-precision residual closes the rest.
    g = build_grid(interval(1.0), 512)
    a = assemble_laplacian(g)
    f = np.ones(g.num_interior)
    u, stats = SPDFactor(a).solve(f, tol=1e-13)
    assert stats.iterations >= 2
    assert stats.relative_residual <= 1e-13
    assert np.linalg.norm(f - a @ u) <= 1e-13 * np.linalg.norm(f)


def test_refined_banded_solve_meets_a_tolerance_below_the_double_floor():
    # the psi solve of a fine interval: a double x stalls near 1.05e-9 > 1e-9,
    # the refinements added in long double do not, and x is returned unrounded
    g = build_grid(interval(1.0), 16384)
    a, f = assemble_laplacian(g), power_weight(g, 0.5)
    u, stats = SPDFactor(a).solve(f, tol=1e-9)
    assert u.dtype == np.longdouble and stats.iterations >= 2
    assert np.linalg.norm(extended_residual(a, f, u)) <= 1e-9 * np.linalg.norm(f)


@pytest.mark.parametrize("n", [GRID_MULTIGRID_N, 64, 127, 128])
def test_rectangle_operator_uses_multigrid_pcg(n):
    # A V-cycle preconditioner keeps the PCG count bounded independently of
    # n, odd and prime n included.
    g = build_grid(rectangle(1.0, 1.0), n)
    factor = SPDFactor.on_grid(g, power_weight(g, 2.0))
    assert factor._levels
    a = factor.A
    f = np.ones(g.num_interior)
    u, stats = factor.solve(f, tol=1e-10)
    assert 2 <= stats.iterations <= 10
    assert np.linalg.norm(f - a @ u) <= 1e-10 * np.linalg.norm(f)


@pytest.mark.parametrize("n", [17, 33, GRID_MULTIGRID_N, 64])
def test_pcg_applies_one_vcycle_per_iteration(monkeypatch, n):
    # n = 17 and 33 are the direct level alone, whose banded Cholesky solve
    # preconditions; GRID_MULTIGRID_N, the smallest multigrid n, and 64
    # apply V-cycles
    g = build_grid(rectangle(1.0, 1.0), n)
    factor = SPDFactor.on_grid(g, power_weight(g, 2.0))
    assert bool(factor._levels) == (n >= GRID_MULTIGRID_N)
    calls = []
    vcycle = factor.precondition
    monkeypatch.setattr(
        factor, "precondition", lambda r, level=0: calls.append(level) or vcycle(r, level)
    )
    _, stats = factor.solve(np.ones(g.num_interior), tol=1e-10)
    assert calls.count(0) == stats.iterations >= 1


def test_pcg_iteration_cap_is_typed(monkeypatch):
    monkeypatch.setattr(linear_core, "MAX_PCG_ITERS", 1)
    g = build_grid(rectangle(1.0, 1.0), 64)
    with pytest.raises(SolverStagnationError, match="after 1 iterations"):
        SPDFactor.on_grid(g, power_weight(g, 2.0)).solve(np.ones(g.num_interior), tol=1e-10)


@pytest.mark.parametrize("sign_changing", [False, True])
def test_pcg_flags_indefinite_rectangle_operator(sign_changing):
    # -lap_h - 30 on the unit square is indefinite (lambda_1 ~ 2 pi^2), and
    # the one-level path and the multigrid path must say so rather than
    # return a solution: the banded Cholesky of the direct level, or of the
    # Galerkin coarsest level, fails as the factor is built.  Both right-hand
    # sides have a component along the principal mode.
    for n, multigrid in [(GRID_MULTIGRID_N - 1, False), (GRID_MULTIGRID_N, True), (64, True)]:
        g = build_grid(rectangle(1.0, 1.0), n)
        assert bool(SPDFactor.on_grid(g, np.zeros(g.num_interior))._levels) == multigrid
        f = np.ones(g.num_interior)
        if sign_changing:
            f = np.sin(np.pi * g.points()[:, 0]) - 0.5
        with pytest.raises(SolverStagnationError, match="not positive definite"):
            SPDFactor.on_grid(g, np.full(g.num_interior, -30.0)).solve(f, tol=1e-10)


@pytest.mark.parametrize("n", [3, 5, 16, 32])
def test_small_rectangle_is_one_direct_level(n):
    # Below GRID_MULTIGRID_N the hierarchy is the direct coarsest solve
    # alone, so PCG converges in one step, on the grid and on its mirror cell.
    g = build_grid(rectangle(1.0, 1.0), n)
    a = shifted(g, 1.0, 2.0)
    f = np.ones(g.num_interior)
    u, stats = SPDFactor(a).solve(f, tol=1e-12)
    assert n < GRID_MULTIGRID_N and stats.iterations == 1
    assert np.linalg.norm(f - a @ u) <= 1e-12 * np.linalg.norm(f)
    m = power_weight(g, 2.0)
    fold = mirror_fold(g)
    for factor in (SPDFactor.on_grid(g, m), SPDFactor.on_cell(g, fold.w * m[fold.rep])):
        assert factor._levels == []


def on_route(shape, n, route):
    """(factor, A) of -lap_h + 2 d^-2 by SPDFactor.on_grid or on the mirror cell."""
    g = build_grid(shape, n)
    m = power_weight(g, 2.0)
    if route == "on_grid":
        return SPDFactor.on_grid(g, m), shifted_laplacian(g, m)
    fold = mirror_fold(g)
    m = fold.w * m[fold.rep]
    return SPDFactor.on_cell(g, m), fold.shifted(m)


@pytest.mark.parametrize(
    "shape, n, route",
    [
        (rectangle(1.0, 1.0), CELL_MULTIGRID_N - 2, "on_cell"),
        (rectangle(1.0, 1.0), CELL_MULTIGRID_N - 1, "on_cell"),
        (rectangle(1.0, 1.0), GRID_MULTIGRID_N - 1, "on_grid"),
        # the 4:1 rectangle, whose V-cycle takes 21-25 PCG steps
        (rectangle(2.0, 0.5), CELL_MULTIGRID_N - 2, "on_cell"),
        (rectangle(2.0, 0.5), CELL_MULTIGRID_N - 1, "on_cell"),
        # the square's largest eighth cells
        (rectangle(1.0, 1.0), SQUARE_MULTIGRID_N - 2, "on_cell"),
        (rectangle(1.0, 1.0), SQUARE_MULTIGRID_N - 1, "on_cell"),
    ],
)
def test_largest_direct_level_solves_in_one_step(shape, n, route):
    # up to DIRECT_UNKNOWNS the whole operator is one banded Cholesky level,
    # and PCG preconditioned by its exact solve stops after one step
    factor, a = on_route(shape, n, route)
    assert a.shape[0] <= DIRECT_UNKNOWNS and factor._levels == []
    f = np.ones(a.shape[0])
    u, stats = factor.solve(f, tol=1e-12)
    assert stats.iterations == 1
    assert np.linalg.norm(extended_residual(a, f, u)) <= 1e-12 * np.linalg.norm(f)


def test_smallest_multigrid_cell_builds_a_hierarchy():
    # one eighth-cell row past DIRECT_UNKNOWNS: one V-cycle level above a
    # direct level of at most DIRECT_UNKNOWNS (the full grid's smallest
    # multigrid n is test_rectangle_operator_uses_multigrid_pcg's)
    factor, a = on_route(rectangle(1.0, 1.0), SQUARE_MULTIGRID_N, "on_cell")
    c = SQUARE_MULTIGRID_N // 2
    assert a.shape[0] == c * (c + 1) // 2 > DIRECT_UNKNOWNS and len(factor._levels) == 1
    assert factor._coarsest.shape[1] <= DIRECT_UNKNOWNS
    f = np.ones(a.shape[0])
    u, stats = factor.solve(f, tol=1e-10)
    assert 2 <= stats.iterations <= 10
    assert np.linalg.norm(extended_residual(a, f, u)) <= 1e-10 * np.linalg.norm(f)


def test_smallest_multigrid_quarter_cell_builds_a_hierarchy():
    # rectangle(2, 0.5) keeps the midline fold: one quarter-cell unknown per
    # axis past DIRECT_UNKNOWNS builds one V-cycle level, whose anisotropic
    # operator takes 25 PCG steps
    factor, a = on_route(rectangle(2.0, 0.5), CELL_MULTIGRID_N, "on_cell")
    assert a.shape[0] == (CELL_MULTIGRID_N // 2) ** 2 > DIRECT_UNKNOWNS
    assert len(factor._levels) == 1 and factor._coarsest.shape[1] <= DIRECT_UNKNOWNS
    f = np.ones(a.shape[0])
    u, stats = factor.solve(f, tol=1e-10)
    assert 2 <= stats.iterations <= 30
    assert np.linalg.norm(extended_residual(a, f, u)) <= 1e-10 * np.linalg.norm(f)


def test_direct_level_stores_the_upper_band_of_its_matrix(rng):
    # bare SPD matrices whose bandwidth kd is not their grid's: random
    # entries within 3 of the diagonal, and one off-diagonal 5 away with
    # nothing between; the factor's band has kd + 1 rows, and its solve is
    # exact to rounding
    N = 40
    d = sp.random_array((N, N), density=0.2, rng=rng)
    d = sp.triu(sp.tril(d, 3), -3)
    random = (d + d.T + sp.diags_array(np.full(N, 10.0))).tocsr()
    ones = np.ones(N - 5)
    gapped = sp.diags_array([ones, np.full(N, 4.0), ones], offsets=[-5, 0, 5]).tocsr()
    # gapped's first diagonal entry stored as two duplicates, 2 + 2: CSR
    # products sum them, and so must the band
    data = np.concatenate([[2.0, 2.0], gapped.data[1:]])
    indices = np.concatenate([[0, 0], gapped.indices[1:]])
    split = sp.csr_array((data, indices, gapped.indptr + (np.arange(N + 1) > 0)), shape=(N, N))
    assert not split.has_canonical_format
    for matrix, kd in ((random, 3), (gapped, 5), (split, 5)):
        factor = SPDFactor(matrix)
        assert factor._coarsest.shape == (kd + 1, N)
        f = rng.standard_normal(N)
        x, stats = factor.solve(f, tol=1e-13)
        np.testing.assert_allclose(x, np.linalg.solve(matrix.toarray(), f), rtol=1e-12)
        assert stats.iterations == 1


def test_sel_imports_no_sparse_linalg():
    # the direct level is LAPACK's banded Cholesky: sel and its CLI import
    # no scipy.sparse.linalg (SuperLU) at all
    src = str(Path(linear_core.__file__).parents[1])
    code = "import sys, sel, sel.cli; sys.exit('scipy.sparse.linalg' in sys.modules)"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


@pytest.mark.parametrize("shape", [rectangle(1.0, 1.0), rectangle(2.0, 0.5)], ids=["square", "4:1"])
def test_every_multigrid_size_has_the_five_point_entry_count(shape):
    # a grid fact: the 5-point Laplacian stores (n-1)^2 rows and 5m^2 - 4m
    # entries, m = n-1, and no explicit zero (no factor reads these counts)
    for n in range(GRID_MULTIGRID_N, 129):
        a = assemble_laplacian(build_grid(shape, n))
        m = n - 1
        assert a.shape[0] == m * m and a.nnz == 5 * m * m - 4 * m, n


def test_square_sized_matrix_without_a_grid_pattern_is_solved_directly():
    # tridiagonal plus two corner entries, N = 64^2: a bare matrix has no
    # grid, so no hierarchy (a guessed one stagnated at residual 6.6)
    N = 4096
    a = sp.diags_array([-np.ones(N - 1), 2.0 * np.ones(N), -np.ones(N - 1)], offsets=[-1, 0, 1])
    a = (a + sp.csr_array(([-0.5, -0.5], ([0, N - 1], [N - 1, 0])), shape=(N, N))).tocsr()
    factor = SPDFactor(a)
    assert factor._levels == []
    f = np.ones(N)
    u, stats = factor.solve(f, tol=1e-8)
    assert stats.iterations == 1
    assert np.linalg.norm(f - a @ u) <= 1e-8 * np.linalg.norm(f)


@pytest.mark.parametrize("n", [16, 17, 33])
def test_prolongation_interpolates_linearly(n):
    # Linear interpolation from ceil(n/2) subdivisions, nested or not, is off
    # by at most max|f''| H^2 / 8 per axis; P and P^T are built once per n.
    P, PT = _prolongation(n)
    assert _prolongation(n)[0] is P
    assert (PT != P.T).nnz == 0
    nc = -(-n // 2)
    fine = np.sin(np.pi * build_grid(rectangle(1.0, 1.0), n).points()).prod(axis=1)
    coarse = np.sin(np.pi * build_grid(rectangle(1.0, 1.0), nc).points()).prod(axis=1)
    assert np.max(np.abs(P @ coarse - fine)) <= 2 * np.pi**2 / (8 * nc**2)


def assert_cell_prolongation_commutes(shape, n):
    """P E_c = E_f P_c for the mirror folds of shape at n and ceil(n/2)."""
    nc = -(-n // 2)
    fine, coarse = (mirror_fold(build_grid(shape, m)) for m in (n, nc))

    def expansion(fold):
        return sp.csr_array((np.ones(fold.idx.size), (np.arange(fold.idx.size), fold.idx)))

    P, _ = _prolongation(n)
    P_c, PT_c = _cell_prolongation(n, fine.diagonal)
    assert _cell_prolongation(n, fine.diagonal)[0] is P_c and (PT_c != P_c.T).nnz == 0
    assert P_c.shape == (fine.w.size, coarse.w.size)
    left = (P @ expansion(coarse)).toarray()
    right = (expansion(fine) @ P_c).toarray()
    if n % 2 == 0:
        np.testing.assert_array_equal(left, right)
    else:
        np.testing.assert_allclose(left, right, rtol=0, atol=64 * np.finfo(float).eps)


@pytest.mark.parametrize("n", [17, 18, 33, 34, 64, 65, 128])
def test_cell_prolongation_commutes_with_the_fold(n):
    # P E_c = E_f P_c: interpolating a mirrored coarse cell field is
    # mirroring the interpolated fine cell field, between the eighth cells
    # of a square and between the quarter cells of rectangle(2, 0.5); to the
    # bit at even n, where every interpolation weight is 0, 1/2 or 1, and to
    # rounding at odd n, enough for a preconditioner
    for shape in (rectangle(1.0, 1.0), rectangle(2.0, 0.5)):
        assert_cell_prolongation_commutes(shape, n)


@pytest.mark.parametrize("n", [3, 8, 9, 64, 65])
def test_eighth_cell_prolongation_commutes_with_the_fold(n):
    # down to the smallest square with a coarse grid (n = 3, one cell node
    # on either level)
    assert _cell_prolongation(n, True)[0].shape[0] == (n // 2) * (n // 2 + 1) // 2
    assert_cell_prolongation_commutes(rectangle(1.0, 1.0), n)


def test_cell_factor_solves_the_folded_system(rng):
    # on_cell factors K + diag(m) by the grid's route; a symmetric solution
    # of the full system is the mirrored cell solution
    for shape, n in ((interval(1.0), 255), (rectangle(1.0, 1.0), 65), (rectangle(2.0, 0.5), 64)):
        g = build_grid(shape, n)
        fold = mirror_fold(g)
        m = power_weight(g, 1.5)
        f = power_weight(g, 0.5)
        cell, stats = SPDFactor.on_cell(g, fold.w * m[fold.rep]).solve(fold.w * f[fold.rep], 1e-12)
        full, _ = SPDFactor.on_grid(g, m).solve(f, 1e-12)
        assert stats.relative_residual <= 1e-12
        np.testing.assert_allclose(cell.astype(float)[fold.idx], full.astype(float), rtol=1e-10)


def test_comparison_principle_check_flags_non_m_matrix():
    # SPD but with positive off-diagonal entries: f >= 0 can produce a
    # genuinely negative component, which must be reported as an assembly bug.
    # The matrix is tridiagonal, so this runs the banded-Cholesky path.
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ComparisonPrincipleViolationError):
        solve_spd(a, np.array([1.0, 0.0]), tol=1e-14)


def test_weighted_norm_values():
    # the L2(Omega, d^(-gamma)) norm with the midpoint rule's weights
    g = build_grid(interval(1.0), 4)
    weight = power_weight(g, 2.0) * g.cell_volume
    assert _weighted_norm(np.zeros(3), weight) == 0.0
    assert _weighted_norm(g.d, weight) == pytest.approx(np.sqrt(0.75), rel=1e-14)
    fine = build_grid(interval(1.0), 2048)
    ones = np.ones(fine.num_interior)
    assert _weighted_norm(ones, ones * fine.cell_volume) == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 512), (rectangle(1.0, 1.0), 32)])
def test_extended_residual_resolves_cancellation(shape, n):
    # f = A x evaluated in double: the exact residual f - A x is the
    # cancellation error of that evaluation, which the same product in
    # double cannot see (it returns 0) and extended precision resolves.
    from fractions import Fraction

    g = build_grid(shape, n)
    a = shifted(g, 1.0, 2.0)
    x = np.prod(np.sin(np.pi * g.points()), axis=1)
    f = a @ x
    exact = np.empty(g.num_interior)
    for i in range(g.num_interior):
        row = slice(a.indptr[i], a.indptr[i + 1])
        ax = sum(Fraction(v) * Fraction(x[j]) for v, j in zip(a.data[row], a.indices[row]))
        exact[i] = float(Fraction(f[i]) - ax)
    err_double = np.max(np.abs((f - a @ x) - exact))
    err_extended = np.max(np.abs(extended_residual(a, f, x) - exact))
    assert err_extended <= 1e-2 * err_double


def test_indefinite_tridiagonal_matrix_fails_banded_cholesky():
    a = -assemble_laplacian(build_grid(interval(1.0), 8))
    assert is_tridiagonal(a)
    with pytest.raises(SolverStagnationError, match="not positive definite"):
        SPDFactor(a)


def test_one_unknown_is_factored():
    # an interval with n = 2: the LAPACK wrappers need an off-diagonal of length >= 1
    x, stats = SPDFactor(sp.csr_array(np.array([[4.0]]))).solve(np.array([2.0]))
    assert x.tolist() == [0.5] and stats.iterations == 1
    with pytest.raises(SolverStagnationError, match="not positive definite"):
        SPDFactor(sp.csr_array(np.array([[-1.0]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_tridiagonal_matrix_with_a_nan_or_inf_entry_is_invalid_input(bad):
    a = assemble_laplacian(build_grid(interval(1.0), 8)).copy()
    a.data[4] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        SPDFactor(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rectangle_matrix_with_a_nan_or_inf_entry_is_invalid_input(bad):
    # the multigrid route rejects it before building its hierarchy, as the
    # banded route does before dpttrf, and principal_eigenpair takes either
    # route through SPDFactor: an off-diagonal or diagonal entry of an
    # interval's or a rectangle's Laplacian is the same ValueError
    for shape in (rectangle(1.0, 1.0), interval(1.0)):
        lap = assemble_laplacian(build_grid(shape, 8))
        on_diagonal = lap.indices == np.repeat(np.arange(lap.shape[0]), np.diff(lap.indptr))
        for entries in (~on_diagonal, on_diagonal):
            a = lap.copy()
            a.data[np.flatnonzero(entries)[2]] = bad
            with pytest.raises(ValueError, match="matrix has a NaN or inf entry"):
                SPDFactor(a)
            with pytest.raises(ValueError, match="matrix has a NaN or inf entry"):
                principal_eigenpair(a)


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["banded", "pcg"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_solve_rejects_a_nan_or_inf_right_hand_side(shape, bad):
    g = build_grid(shape, 8)
    f = np.ones(g.num_interior)
    f[3] = bad
    with pytest.raises(ValueError, match="right-hand side has a NaN or inf entry"):
        SPDFactor(assemble_laplacian(g)).solve(f)


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["banded", "pcg"])
def test_every_factor_holds_its_csr_operator(shape):
    # one representation per operator: the banded route keeps no second copy
    g = build_grid(shape, 24)
    m = power_weight(g, 1.0)
    expected = shifted_laplacian(g, m)
    for factor in (SPDFactor.on_grid(g, m), SPDFactor(expected)):
        assert factor.A.format == "csr"
        for got, want in zip((factor.A.data, factor.A.indices, factor.A.indptr),
                             (expected.data, expected.indices, expected.indptr)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["banded", "pcg"])
@pytest.mark.parametrize("shift", [-3, 3, "2-D"])
def test_solve_rejects_a_right_hand_side_of_the_wrong_shape(capfd, shape, shift):
    # checked before any arithmetic: LAPACK is never handed a wrong length,
    # so it prints nothing to stderr
    g = build_grid(shape, 24)
    factor = SPDFactor.on_grid(g, power_weight(g, 1.0))
    m = g.num_interior
    f = np.ones((m, 1)) if shift == "2-D" else np.ones(m + shift)
    with pytest.raises(ValueError, match=rf"right-hand side has shape \({f.shape[0]},.*expected \({m},\)"):
        factor.solve(f)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["banded", "pcg"])
@pytest.mark.parametrize("tol", [np.nan, np.inf], ids=["nan", "inf"])
def test_solve_rejects_a_non_finite_tolerance(shape, tol):
    g = build_grid(shape, 8)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        SPDFactor(assemble_laplacian(g)).solve(np.ones(g.num_interior), tol=tol)


@pytest.mark.parametrize("n", [2, 64, 4096])
def test_tridiagonal_factor_is_one_ldlt_and_one_ldlt_solve_per_iteration(monkeypatch, n):
    calls = {"dpttrf": 0, "dpttrs": 0}

    def counted(name):
        kernel = getattr(linear_core, name)

        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    for name in calls:
        monkeypatch.setattr(linear_core, name, counted(name))
    g = build_grid(interval(1.0), n)
    factor = SPDFactor(shifted(g, 3.0, 0.5))
    assert calls == {"dpttrf": 1, "dpttrs": 0}
    iterations = 0
    for tol in (1e-8, 1e-13):
        _, stats = factor.solve(np.ones(g.num_interior), tol=tol)
        iterations += stats.iterations
    assert calls == {"dpttrf": 1, "dpttrs": iterations}


def test_singular_matrix_fails_the_coarsest_direct_solve():
    a = 0.0 * assemble_laplacian(build_grid(rectangle(1.0, 1.0), 3))
    assert not is_tridiagonal(a)
    with pytest.raises(SolverStagnationError, match="not positive definite"):
        SPDFactor(a)


@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["banded", "pcg"])
@pytest.mark.parametrize("tol", [0.0, -1e-8])
def test_solve_rejects_a_nonpositive_tolerance(shape, tol):
    g = build_grid(shape, 8)
    with pytest.raises(ValueError, match="tol must be positive"):
        SPDFactor(assemble_laplacian(g)).solve(np.ones(g.num_interior), tol=tol)


def test_asymmetric_tridiagonal_matrix_is_invalid_input():
    # dpttrf reads one off-diagonal: this matrix would be solved as another
    ones = np.ones(4)
    a = sp.diags_array([-0.5 * ones, 2.0 * np.ones(5), -ones], offsets=[-1, 0, 1]).tocsr()
    with pytest.raises(ValueError, match="not symmetric"):
        SPDFactor(a)


ON_GRID = [(interval(1.0), n) for n in (2, 3, 64, 4096)] + [
    (rectangle(1.0, 1.0), n) for n in (16, 33, GRID_MULTIGRID_N, 64)
]


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize(
    "shape, n", ON_GRID, ids=[f"{'interval' if s.dim == 1 else 'square'}-n{n}" for s, n in ON_GRID]
)
def test_factor_on_grid_is_bitwise_the_matrix_factor(rng, shape, n, tol):
    # bitwise the bare matrix's factor, except where only the grid's factor
    # builds a hierarchy: a bare rectangle matrix is one direct level
    g = build_grid(shape, n)
    m = 3.0 * power_weight(g, 1.7)
    factor = SPDFactor.on_grid(g, m)
    hierarchy = shape.dim == 2 and n >= GRID_MULTIGRID_N
    if shape.dim == 2:
        assert bool(factor._levels) == hierarchy
    for f in (rng.random(g.num_interior), rng.standard_normal(g.num_interior)):
        x, stats = factor.solve(f, tol)
        if hierarchy:
            a = shifted_laplacian(g, m)
            assert np.linalg.norm(extended_residual(a, f, x)) <= tol * np.linalg.norm(f)
            continue
        expected, expected_stats = SPDFactor(shifted_laplacian(g, m)).solve(f, tol)
        # equal values of one dtype: a long double's tobytes holds padding
        assert x.dtype == expected.dtype
        np.testing.assert_array_equal(x, expected)
        assert stats.iterations == expected_stats.iterations


@pytest.mark.parametrize(
    "shape, n", ON_GRID, ids=[f"{'interval' if s.dim == 1 else 'square'}-n{n}" for s, n in ON_GRID]
)
def test_relative_residual_is_bitwise_the_np_linalg_norm_ratio(rng, shape, n):
    # solve takes each 2-norm as the square root of np.add.reduce(r * r),
    # NumPy's pairwise sum and no BLAS, which must stay the bits of
    # np.linalg.norm(r, axis=0) (that form reduces with np.add.reduce): the
    # refinement's stopping test and the reported residual depend on them
    g = build_grid(shape, n)
    m = 3.0 * power_weight(g, 1.7)
    factor = SPDFactor.on_grid(g, m)
    for f in (rng.random(g.num_interior), rng.standard_normal(g.num_interior)):
        x, stats = factor.solve(f, 1e-10)
        r = extended_residual(shifted_laplacian(g, m), f, x)
        norm_r, norm_f = np.linalg.norm(r, axis=0), np.linalg.norm(f, axis=0)
        assert stats.relative_residual == float(norm_r) / float(norm_f)


def longdouble_reference(a, f, x):
    """f - a x summed row by row in np.longdouble, in stored order, rounded once."""
    prod = a.data.astype(np.longdouble) * x.astype(np.longdouble)[a.indices]
    return (f - np.add.reduceat(prod, a.indptr[:-1])).astype(float)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 64), (rectangle(1.0, 1.0), 24)])
def test_extended_operator_residual_is_bitwise_the_per_call_conversion(rng, shape, n):
    g = build_grid(shape, n)
    f, x = rng.random(g.num_interior), rng.random(g.num_interior)
    for a in (assemble_laplacian(g), shifted_laplacian(g, rng.random(g.num_interior))):
        np.testing.assert_array_equal(extended_residual(a, f, x), longdouble_reference(a, f, x))


@pytest.mark.parametrize(
    "shape, n",
    [(interval(1.0), 64), (interval(1.0), 4096), (rectangle(1.0, 1.0), 24), (rectangle(1.0, 1.0), 128)],
)
def test_extended_residual_of_a_longdouble_forcing_is_bitwise_the_reference(rng, shape, n):
    # the form of iterate_step's defect: a long-double f against a double operator
    g = build_grid(shape, n)
    x = 0.5 + rng.random(g.num_interior)
    f = power_weight(g, 0.5) * x.astype(np.longdouble) ** -2.5
    assert f.dtype == np.longdouble
    for a in (assemble_laplacian(g), shifted_laplacian(g, rng.random(g.num_interior))):
        np.testing.assert_array_equal(extended_residual(a, f, x), longdouble_reference(a, f, x))


@pytest.mark.parametrize(
    "diagonal, expected",
    [([2.0, 0.0, 3.0], [-1.0, 1.0, -2.0]), ([2.0, 3.0, 0.0], [-1.0, -14.0, 1.0])],
)
def test_extended_residual_reads_a_row_without_entries_as_zero(diagonal, expected):
    # the dense constructor stores no zero, so one row of a stores no entry
    a = sp.csr_array(np.diag(diagonal))
    assert np.diff(a.indptr).min() == 0
    f, x = np.ones(3), np.array([1.0, 5.0, 1.0])
    np.testing.assert_array_equal(extended_residual(a, f, x), expected)
