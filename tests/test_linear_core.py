import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sel import linear_core
from sel.grid import (
    assemble_laplacian,
    build_grid,
    interval,
    power_weight,
    rectangle,
    shifted_laplacian,
)
from sel.linear_core import (
    COARSEST_N,
    ComparisonPrincipleViolationError,
    SolverStagnationError,
    SPDFactor,
    _prolongation,
    extended_residual,
    is_tridiagonal,
    solve_spd,
    weighted_norm,
)


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


@pytest.mark.parametrize("n", [17, 64, 127, 128])
def test_rectangle_operator_uses_multigrid_pcg(n):
    # A V-cycle preconditioner keeps the PCG count bounded independently of
    # n, odd and prime n included.
    g = build_grid(rectangle(1.0, 1.0), n)
    a = shifted(g, 1.0, 2.0)
    f = np.ones(g.num_interior)
    u, stats = SPDFactor(a).solve(f, tol=1e-10)
    assert 2 <= stats.iterations <= 10
    assert np.linalg.norm(f - a @ u) <= 1e-10 * np.linalg.norm(f)


def test_pcg_iteration_cap_is_typed(monkeypatch):
    monkeypatch.setattr(linear_core, "MAX_PCG_ITERS", 1)
    g = build_grid(rectangle(1.0, 1.0), 64)
    with pytest.raises(SolverStagnationError, match="after 1 iterations"):
        SPDFactor(shifted(g, 1.0, 2.0)).solve(np.ones(g.num_interior), tol=1e-10)


@pytest.mark.parametrize("sign_changing", [False, True])
def test_pcg_flags_indefinite_rectangle_operator(sign_changing):
    # -lap_h - 30 on the unit square is indefinite (lambda_1 ~ 2 pi^2), and
    # the multigrid path must say so rather than return a solution.  Both
    # right-hand sides have a component along the principal mode.
    g = build_grid(rectangle(1.0, 1.0), 32)
    a = shifted_laplacian(g, np.full(g.num_interior, -30.0))
    f = np.ones(g.num_interior)
    if sign_changing:
        f = np.sin(np.pi * g.points()[:, 0]) - 0.5
    with pytest.raises(SolverStagnationError, match="not positive definite"):
        SPDFactor(a).solve(f, tol=1e-10)


@pytest.mark.parametrize("n", [3, 5, 16])
def test_small_rectangle_is_one_direct_level(n):
    # At n <= COARSEST_N the hierarchy is the direct coarsest solve alone,
    # so PCG converges in one step.
    g = build_grid(rectangle(1.0, 1.0), n)
    a = shifted(g, 1.0, 2.0)
    f = np.ones(g.num_interior)
    u, stats = SPDFactor(a).solve(f, tol=1e-12)
    assert n <= COARSEST_N and stats.iterations == 1
    assert np.linalg.norm(f - a @ u) <= 1e-12 * np.linalg.norm(f)


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


def test_comparison_principle_check_flags_non_m_matrix():
    # SPD but with positive off-diagonal entries: f >= 0 can produce a
    # genuinely negative component, which must be reported as an assembly bug.
    # The matrix is tridiagonal, so this runs the banded-Cholesky path.
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ComparisonPrincipleViolationError):
        solve_spd(a, np.array([1.0, 0.0]), tol=1e-14)


def test_weighted_norm_values():
    g = build_grid(interval(1.0), 4)
    assert weighted_norm(np.zeros(3), g, 2.0) == 0.0
    assert weighted_norm(g.d, g, 2.0) == pytest.approx(np.sqrt(0.75), rel=1e-14)
    fine = build_grid(interval(1.0), 2048)
    assert weighted_norm(np.ones(fine.num_interior), fine, 0.0) == pytest.approx(1.0, rel=1e-3)


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
