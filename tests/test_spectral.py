import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from sel import spectral
from sel.grid import (
    assemble_laplacian,
    build_grid,
    interval,
    power_weight,
    rectangle,
    shifted_laplacian,
)
from sel.linear_core import SPDFactor
from sel.monotone import solve_ladder
from sel.problem import SolveConfig
from sel.spectral import (
    EigenNonConvergenceError,
    dirichlet_eigenpair,
    linearized_smallest_eigenvalue,
    monotone_shift,
    principal_eigenpair,
)


def linearized_at_one(shape, n):
    """mu_1 at u = 1 with alpha = 0: lambda_1 of -lap_h through the grid's route."""
    g = build_grid(shape, n)
    return linearized_smallest_eigenvalue(g, np.ones(g.num_interior), 0.0, 0.0)


def discrete_lambda1_interval(n):
    h = 1.0 / n
    return 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2


def test_principal_pair_tiny_grid_closed_form():
    g = build_grid(interval(1.0), 4)
    eig = principal_eigenpair(assemble_laplacian(g), tol=1e-12)
    assert eig.value == pytest.approx(discrete_lambda1_interval(4), rel=1e-12)
    np.testing.assert_allclose(eig.field, np.sin(np.pi * g.axes[0]), atol=1e-10)


@pytest.mark.parametrize(
    "shape, n",
    [
        (interval(1.0), 64),
        (interval(1.0), 4096),
        (rectangle(1.0, 1.0), 24),
        (rectangle(2.0, 0.5), 16),
        # eps * ||A||_inf is 6.0e-9 of lambda here: only a Rayleigh quotient holds rel 1e-10
        (interval(1.0), 8192),
    ],
)
def test_closed_form_pair_matches_library_eigensolver(shape, n):
    g = build_grid(shape, n)
    a = assemble_laplacian(g)
    exact = dirichlet_eigenpair(g)
    computed = principal_eigenpair(a, tol=1e-12)
    assert exact.value == pytest.approx(computed.value, rel=1e-10)
    np.testing.assert_allclose(exact.field, computed.field, rtol=0.0, atol=1e-8)
    assert exact.field.max() == 1.0
    # exact up to rounding: the residual is of the order of eps * ||A||_inf
    assert exact.residual <= np.finfo(float).eps * scipy.sparse.linalg.norm(a, np.inf)


def test_lambda1_approaches_pi_squared_monotonically():
    vals = []
    for n in (64, 128, 256):
        g = build_grid(interval(1.0), n)
        eig = principal_eigenpair(assemble_laplacian(g), tol=1e-11)
        assert eig.value == pytest.approx(discrete_lambda1_interval(n), rel=1e-9)
        vals.append(eig.value)
    assert vals[0] < vals[1] < vals[2] < np.pi**2


def test_2d_lambda1_closed_form_and_limit():
    g = build_grid(rectangle(1.0, 1.0), 24)
    eig = principal_eigenpair(assemble_laplacian(g), tol=1e-11)
    assert eig.value == pytest.approx(2 * discrete_lambda1_interval(24), rel=1e-9)
    assert eig.value == pytest.approx(2 * np.pi**2, rel=3e-3)


def test_eigenvector_normalization_and_positivity():
    g = build_grid(interval(1.0), 128)
    eig = principal_eigenpair(assemble_laplacian(g), tol=1e-11)
    assert np.max(np.abs(eig.field)) == pytest.approx(1.0)
    assert eig.field.min() > 0.0


def test_rayleigh_quotient_consistency():
    g = build_grid(interval(1.0), 128)
    a = assemble_laplacian(g)
    tol = 1e-11
    eig = principal_eigenpair(a, tol=tol)
    rq = (eig.field @ (a @ eig.field)) / (eig.field @ eig.field)
    assert abs(eig.value - rq) <= 10 * tol * eig.value


def test_linearized_alpha_zero_degenerates_to_lambda1():
    g = build_grid(interval(1.0), 64)
    u = np.full(g.num_interior, 0.3)
    mu = linearized_smallest_eigenvalue(g, u, alpha=0.0, beta=0.0, tol=1e-11)
    lam = principal_eigenpair(assemble_laplacian(g), tol=1e-11)
    assert mu.value == pytest.approx(lam.value, rel=1e-10)


def test_linearized_shifts_spectrum_up(lab):
    grid, _, report = lab.solved(0.5, 0.0, 128)
    mu = linearized_smallest_eigenvalue(grid, report.upper, 0.5, 0.0, tol=1e-10)
    lam = lab.eig(128).value
    assert mu.value >= lam
    assert mu.field.min() > 0.0


def test_linearized_rejects_nonpositive_point():
    g = build_grid(interval(1.0), 16)
    with pytest.raises(ValueError, match="field must be positive nodewise"):
        linearized_smallest_eigenvalue(g, np.zeros(g.num_interior), 1.0, 0.0)


def test_linearized_matches_dense_eigensolve():
    cases = [
        (interval(1.0), 64),
        (interval(1.0), 2),  # one unknown
        (interval(1.0), 3),
        (rectangle(1.0, 1.0), 3),  # four unknowns: the smallest Lanczos case
        (rectangle(1.0, 1.0), 16),
        (rectangle(1.0, 1.0), 33),  # LOBPCG on the grid's two-level V-cycle
    ]
    for shape, n in cases:
        (level,) = solve_ladder(0.5, 0.0, shape, [n], SolveConfig(tol=1e-10))
        grid, u = level.grid, level.report.upper
        mu = linearized_smallest_eigenvalue(grid, u, 0.5, 0.0, tol=1e-10)
        potential = np.diag(0.5 * power_weight(grid, 0.0) * u**-1.5)
        mu_dense = scipy.linalg.eigvalsh(assemble_laplacian(grid).toarray() + potential)[0]
        assert mu.value == pytest.approx(mu_dense, rel=1e-10), (shape, n)
        assert mu.field.min() > 0.0 and mu.field.max() == 1.0


@pytest.mark.parametrize(
    "shape, n, solver",
    [(interval(1.0), 64, (spectral, "_inverse_iteration")),
     (rectangle(1.0, 1.0), 16, (scipy.sparse.linalg, "lobpcg"))],
)
def test_residual_check_rejects_perturbed_eigenvector(monkeypatch, shape, n, solver):
    module, name = solver
    library = getattr(module, name)
    wobble = 1.0 + 1e-3 * np.cos(np.arange(build_grid(shape, n).num_interior))

    def perturbed(*args, **kwargs):
        out = library(*args, **kwargs)
        if isinstance(out, tuple):  # LOBPCG's (values, vectors)
            return out[0], out[1] * wobble[:, None]
        return out * wobble  # the interval kernel's vector

    monkeypatch.setattr(module, name, perturbed)
    with pytest.raises(EigenNonConvergenceError, match="eigen-residual"):
        linearized_at_one(shape, n)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["interval", "square"])
def test_eigen_tol_must_be_positive_and_finite(monkeypatch, shape, tol):
    # invalid input on both routes, checked before either eigensolver runs
    g = build_grid(shape, 16)
    u = dirichlet_eigenpair(g).field
    for module, name in ((spectral, "_inverse_iteration"), (scipy.sparse.linalg, "lobpcg")):
        monkeypatch.setattr(module, name, lambda *_a, **_k: pytest.fail("solved before the check"))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        linearized_smallest_eigenvalue(g, u, 2.0, 0.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        principal_eigenpair(assemble_laplacian(g), tol=tol)


@pytest.mark.parametrize("n", [8, 32])
def test_lobpcg_non_convergence_is_typed(monkeypatch, n):
    # One LOBPCG iteration per run cannot reach the residual gate, and LOBPCG
    # itself only warns; the stall must surface as the typed error.
    library = scipy.sparse.linalg.lobpcg

    def stalled(*args, **kwargs):
        return library(*args, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", stalled)
    with pytest.raises(EigenNonConvergenceError, match="eigen-residual"):
        linearized_at_one(rectangle(1.0, 1.0), n)


def test_lobpcg_breakdown_is_typed(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Rayleigh-Ritz Gram matrix is not positive definite")

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", broken)
    with pytest.raises(EigenNonConvergenceError, match="LOBPCG"):
        linearized_at_one(rectangle(1.0, 1.0), 8)


def test_sign_changing_eigenvector_is_a_non_convergence():
    # the lowest eigenvector of [[2, 1], [1, 2]] is (1, -1): no principal pair
    with pytest.raises(EigenNonConvergenceError, match="not strictly positive"):
        principal_eigenpair(scipy.sparse.csr_array(np.array([[2.0, 1.0], [1.0, 2.0]])))


def test_interval_mu1_builds_no_matrix_and_matches_its_csr_operator():
    # the kernel's eigenvector is judged on the factor's CSR operator, so
    # mu_1 and its residual are bitwise those of shifted_laplacian, every
    # inner product a pairwise np.add.reduce (no BLAS ddot, whose bits
    # differ from it at n = 65536 and depend on the thread count)
    for n in (4096, 65536):
        g = build_grid(interval(1.0), n)
        u = g.d ** (2.0 / 3.0)
        A = shifted_laplacian(g, monotone_shift(g, u, 2.0, 0.3))
        eig = linearized_smallest_eigenvalue(g, u, 2.0, 0.3)
        x = eig.field
        ax = A @ x
        xx = np.add.reduce(x * x)
        assert eig.value == float(np.add.reduce(x * ax) / xx)
        r = ax - eig.value * x
        assert eig.residual == math.sqrt(np.add.reduce(r * r)) / math.sqrt(xx)


def test_principal_pair_rejects_a_non_symmetric_tridiagonal_matrix():
    a = scipy.sparse.csr_array(np.array([[2.0, -1.0], [-0.5, 2.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        principal_eigenpair(a)


@pytest.mark.parametrize("n", [2, 3, 16, 257, 1024])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 10.0, 50.0])
@pytest.mark.parametrize("beta", [0.0, 0.7, 1.99])
def test_interval_mu1_matches_dense_eigvalsh(n, alpha, beta):
    (level,) = solve_ladder(alpha, beta, interval(1.0), [n], SolveConfig(tol=1e-6))
    grid, u = level.grid, level.report.upper
    mu = linearized_smallest_eigenvalue(grid, u, alpha, beta)
    dense = assemble_laplacian(grid).toarray() + np.diag(monotone_shift(grid, u, alpha, beta))
    mu_dense = scipy.linalg.eigvalsh(dense, subset_by_index=[0, 0])[0]
    # eigvalsh is exact only for a matrix within about eps * ||A|| of A
    # (Weyl): at n = 1024 it is off by up to 1.6e-10 of mu_1, while the
    # long-double Rayleigh quotient of mu.field agrees with mu.value to 3e-13
    dense_error = np.finfo(float).eps * np.abs(dense).sum(axis=1).max()
    assert mu.value == pytest.approx(mu_dense, rel=1e-10, abs=dense_error)
    assert mu.field.min() > 0.0 and mu.field.max() == 1.0


@pytest.mark.parametrize("n", [4096, 65536])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_interval_mu1_takes_at_most_ten_ldlt_solves(monkeypatch, n, alpha):
    (level,) = solve_ladder(alpha, 0.0, interval(1.0), [n], SolveConfig(tol=1e-6))
    solves = []
    kernel = spectral.dpttrs

    def counted(*args):
        solves.append(args[0].size)
        return kernel(*args)

    monkeypatch.setattr(spectral, "dpttrs", counted)
    mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, alpha, 0.0)
    assert 2 < len(solves) <= 10 and set(solves) == {n - 1}
    assert mu.field.min() > 0.0


def test_tridiagonal_with_a_positive_off_diagonal_fails_before_any_solve(monkeypatch):
    # SPD, but its principal eigenvector changes sign: (0.63, 0.71, -0.32)
    a = scipy.sparse.csr_array(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.5], [0.0, 0.5, 2.0]]))
    monkeypatch.setattr(spectral, "dpttrs", lambda *_a: pytest.fail("solved before the sign rule"))
    with pytest.raises(EigenNonConvergenceError, match="not strictly positive"):
        principal_eigenpair(a)


@pytest.mark.parametrize("n", [2, 3, 4, 17, 4096])
def test_banded_inf_norm_is_the_csr_row_sum(rng, n):
    # the banded route reads ||A||_inf from the factor's diagonals, summed
    # per row in CSR stored order, (|e_(i-1)| + |d_i|) + |e_i|: the bits of
    # np.add.reduceat over A's stored entries
    g = build_grid(interval(1.0), n)
    for scale in (1e-3, 1.0, 1e5, 1e9):
        factor = SPDFactor.on_grid(g, scale * rng.random(g.num_interior))
        A = factor.A
        rows = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
        assert spectral._banded_inf_norm(*factor.diagonals) == float(rows.max())
