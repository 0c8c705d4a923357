import itertools
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
from sel.linear_core import DIRECT_UNKNOWNS, SPDFactor
from sel.monotone import solve_ladder
from sel.problem import SolveConfig
from sel.spectral import (
    EigenNonConvergenceError,
    dirichlet_eigenpair,
    linearized_smallest_eigenvalue,
    monotone_shift,
    principal_eigenpair,
)


# the smallest n whose factor builds a hierarchy: the first whose full grid
# ((n-1)^2 unknowns) or mirror cell exceeds DIRECT_UNKNOWNS, the quarter
# cell ((n//2)^2) of rectangle(2, 0.5) or the eighth cell of a square
# (c(c+1)/2, c = n//2)
SIDE = math.isqrt(DIRECT_UNKNOWNS)
GRID_MULTIGRID_N, CELL_MULTIGRID_N = SIDE + 2, 2 * (SIDE + 1)
SQUARE_MULTIGRID_N = 2 * next(c for c in itertools.count() if c * (c + 1) // 2 > DIRECT_UNKNOWNS)


def cell_size(shape, n):
    """The mirror cell's node count: an eighth of a square, else a quarter."""
    c = n // 2
    return c * (c + 1) // 2 if shape.extents[0] == shape.extents[1] else c * c


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
        (rectangle(1.0, 1.0), 33),  # LOBPCG on the cell's direct banded level
    ]
    for shape, n in cases:
        (level,) = solve_ladder(0.5, 0.0, shape, [n], SolveConfig(tol=1e-10))
        grid, u = level.grid, level.report.upper
        mu = linearized_smallest_eigenvalue(grid, u, 0.5, 0.0, tol=1e-10)
        potential = np.diag(0.5 * power_weight(grid, 0.0) * u**-1.5)
        mu_dense = scipy.linalg.eigvalsh(assemble_laplacian(grid).toarray() + potential)[0]
        assert mu.value == pytest.approx(mu_dense, rel=1e-10), (shape, n)
        assert mu.field.min() > 0.0 and mu.field.max() == 1.0


def multigrid(factor):
    # the factor preconditions with a V-cycle: not banded, and levels above
    # the direct coarsest one
    return factor.diagonals is None and bool(factor._levels)


def recording(monkeypatch, constructor):
    # every factor SPDFactor.<constructor> builds, in order
    factors = []
    build = getattr(SPDFactor, constructor)
    monkeypatch.setattr(
        SPDFactor, constructor, lambda *a: factors.append(build(*a)) or factors[-1]
    )
    return factors


@pytest.mark.parametrize(
    "shape, n",
    [(interval(1.0), 64), (rectangle(1.0, 1.0), 17), (rectangle(2.0, 0.5), 16),
     (rectangle(1.0, 1.0), 33), (rectangle(1.0, 1.0), GRID_MULTIGRID_N)],
)
def test_asymmetric_potential_takes_the_full_grid_route(monkeypatch, shape, n):
    # only the API can pass a u that is not mirror-symmetric: its mu_1 is
    # solved on the full grid, never on the mirror cell; from
    # GRID_MULTIGRID_N by LOBPCG with the full grid's V-cycle, at n = 33 with
    # the direct level alone
    g = build_grid(shape, n)
    u = dirichlet_eigenpair(g).field * (1.0 + 0.2 * g.points()[:, 0])
    monkeypatch.setattr(SPDFactor, "on_cell", lambda *_a: pytest.fail("solved on the cell"))
    factors = recording(monkeypatch, "on_grid")
    mu = linearized_smallest_eigenvalue(g, u, 2.0, 0.0)
    assert [multigrid(f) for f in factors] == [shape.dim == 2 and n >= GRID_MULTIGRID_N]
    dense = assemble_laplacian(g).toarray() + np.diag(monotone_shift(g, u, 2.0, 0.0))
    dense_error = np.finfo(float).eps * np.abs(dense).sum(axis=1).max()
    assert mu.value == pytest.approx(scipy.linalg.eigvalsh(dense)[0], rel=1e-10, abs=dense_error)
    assert mu.field.min() > 0.0 and mu.field.max() == 1.0


def long_double_rayleigh(A, x):
    xl = x.astype(np.longdouble)
    return float(xl @ (A @ xl) / (xl @ xl))


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize(
    "shape, n",
    [(interval(1.0), 2), (interval(1.0), 3), (interval(1.0), 4095),
     (rectangle(1.0, 1.0), 3), (rectangle(1.0, 1.0), 17), (rectangle(1.0, 1.0), 33),
     (rectangle(2.0, 0.5), 16), (rectangle(2.0, 0.5), 17), (rectangle(2.0, 0.5), 33),
     (rectangle(1.0, 1.0), CELL_MULTIGRID_N), (rectangle(2.0, 0.5), CELL_MULTIGRID_N),
     (rectangle(1.0, 1.0), SQUARE_MULTIGRID_N)],
)
def test_cell_mu1_matches_the_full_grid_route(monkeypatch, shape, n, alpha):
    # a solve_monotone limit is mirror-symmetric, so mu_1 is solved on the
    # cell; the full grid's route, on the same potential, finds the same
    # pair.  At n = 33 both routes are LOBPCG with the direct level alone,
    # at CELL_MULTIGRID_N both with a V-cycle on rectangle(2, 0.5), and on
    # the square the full grid with a V-cycle and the eighth cell with the
    # direct level alone; at SQUARE_MULTIGRID_N both with a V-cycle.
    (level,) = solve_ladder(alpha, 0.0, shape, [n], SolveConfig(tol=1e-8))
    grid, u = level.grid, level.report.upper
    m = monotone_shift(grid, u, alpha, 0.0)
    A = shifted_laplacian(grid, m)
    full_factor = SPDFactor.on_grid(grid, m)
    full = spectral._eigenpair(full_factor, 1e-10)
    monkeypatch.setattr(SPDFactor, "on_grid", lambda *_a: pytest.fail("solved on the full grid"))
    cells = recording(monkeypatch, "on_cell")
    cell = linearized_smallest_eigenvalue(grid, u, alpha, 0.0)
    rect = shape.dim == 2
    assert [multigrid(f) for f in [full_factor, *cells]] == [
        rect and n >= GRID_MULTIGRID_N, rect and cell_size(shape, n) > DIRECT_UNKNOWNS
    ]
    # each double Rayleigh quotient rounds A x at about eps * ||A||_inf: on
    # the interval at n = 4095 the two differed by up to 7.6e-12 of mu_1
    # over alpha and beta, while the long-double quotients of their fields
    # agree to 1e-15
    rounding = np.finfo(float).eps * spectral._inf_norm(A)
    assert cell.value == pytest.approx(full.value, rel=1e-12, abs=rounding)
    assert long_double_rayleigh(A, cell.field) == pytest.approx(
        long_double_rayleigh(A, full.field), rel=1e-12
    )
    np.testing.assert_allclose(cell.field, full.field, rtol=0.0, atol=1e-8)
    assert cell.field.min() > 0.0 and cell.field.max() == 1.0
    assert cell.residual <= max(1e-10 * cell.value, 16 * rounding)


@pytest.mark.parametrize(
    "shape, n, solver",
    [(interval(1.0), 64, (spectral, "_inverse_iteration")),
     (rectangle(1.0, 1.0), 16, (spectral, "_lobpcg"))],
)
def test_residual_check_rejects_perturbed_eigenvector(monkeypatch, shape, n, solver):
    module, name = solver
    kernel = getattr(module, name)

    def perturbed(*args, **kwargs):
        vec = kernel(*args, **kwargs)
        # sized from the vector returned: the mirror cell's, not the grid's
        return vec * (1.0 + 1e-3 * np.cos(np.arange(len(vec))))

    monkeypatch.setattr(module, name, perturbed)
    with pytest.raises(EigenNonConvergenceError, match="eigen-residual"):
        linearized_at_one(shape, n)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("shape", [interval(1.0), rectangle(1.0, 1.0)], ids=["interval", "square"])
def test_eigen_tol_must_be_positive_and_finite(monkeypatch, shape, tol):
    # invalid input on both routes, checked before either eigensolver runs
    g = build_grid(shape, 16)
    u = dirichlet_eigenpair(g).field
    for name in ("_inverse_iteration", "_lobpcg"):
        monkeypatch.setattr(spectral, name, lambda *_a, **_k: pytest.fail("solved before the check"))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        linearized_smallest_eigenvalue(g, u, 2.0, 0.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        principal_eigenpair(assemble_laplacian(g), tol=tol)


@pytest.mark.parametrize("n", [8, 32])
def test_lobpcg_non_convergence_is_typed(monkeypatch, n):
    # One LOBPCG step cannot reach the residual gate, and the kernel returns
    # its last vector at the cap: the stall must surface as the typed error.
    monkeypatch.setattr(spectral, "MAX_LOBPCG_ITERS", 1)
    with pytest.raises(EigenNonConvergenceError, match="eigen-residual"):
        linearized_at_one(rectangle(1.0, 1.0), n)


def test_lobpcg_breakdown_is_typed(monkeypatch):
    # every Gram matrix G_W handed to the Ritz solve is made indefinite:
    # without p to drop, the first step breaks down
    eigh = scipy.linalg.eigh
    sizes = []

    def indefinite(gram_a, gram_w, **kwargs):
        sizes.append(len(gram_w))
        return eigh(gram_a, -gram_w, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", indefinite)
    with pytest.raises(EigenNonConvergenceError, match="LOBPCG broke down"):
        linearized_at_one(rectangle(1.0, 1.0), 8)
    assert sizes == [2]


def test_lobpcg_drops_p_from_an_indefinite_gram_matrix(monkeypatch):
    # a 3x3 Gram matrix that is not positive definite drops p: the 2x2 step
    # is preconditioned steepest descent, which still reaches the gate
    eigh = scipy.linalg.eigh
    sizes = []

    def indefinite_with_p(gram_a, gram_w, **kwargs):
        sizes.append(len(gram_w))
        return eigh(gram_a, -gram_w if len(gram_w) == 3 else gram_w, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", indefinite_with_p)
    g = build_grid(rectangle(1.0, 1.0), 64)
    eig = linearized_smallest_eigenvalue(g, np.ones(g.num_interior), 0.0, 0.0)
    assert eig.value == pytest.approx(dirichlet_eigenpair(g).value, rel=1e-10)
    assert 3 in sizes and sizes.count(2) == sizes.count(3) + 1


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
    # a solve_monotone limit is mirror-symmetric: every solve is on the cell
    assert 2 < len(solves) <= 10 and set(solves) == {n // 2}
    assert mu.field.min() > 0.0


@pytest.mark.parametrize("n", [33, 64, 128])
@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
def test_rectangle_mu1_takes_at_most_fourteen_vcycles(monkeypatch, n, alpha):
    (level,) = solve_ladder(alpha, 0.0, rectangle(1.0, 1.0), [n], SolveConfig(tol=1e-8))
    sizes = []
    vcycle = SPDFactor.precondition

    def counted(self, r, level=0):
        if level == 0:
            sizes.append(r.size)
        return vcycle(self, r, level)

    monkeypatch.setattr(SPDFactor, "precondition", counted)
    mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, alpha, 0.0)
    # one preconditioner per LOBPCG step, every one on the eighth cell: the
    # direct level alone up to n = 89, a V-cycle at n = 128
    assert 2 < len(sizes) <= 14 and set(sizes) == {cell_size(rectangle(1.0, 1.0), n)}
    assert mu.field.min() > 0.0


@pytest.mark.parametrize("n", [33, 64, 128])
def test_4_to_1_rectangle_mu1_runs_on_the_quarter_cell(monkeypatch, n):
    # rectangle(2, 0.5) has no diagonal mirror: every LOBPCG step is on the
    # (n//2)^2 quarter cell, 20 steps at n = 33 and 64 and 28 at n = 128
    (level,) = solve_ladder(2.0, 0.0, rectangle(2.0, 0.5), [n], SolveConfig(tol=1e-8))
    sizes = []
    vcycle = SPDFactor.precondition

    def counted(self, r, level=0):
        if level == 0:
            sizes.append(r.size)
        return vcycle(self, r, level)

    monkeypatch.setattr(SPDFactor, "precondition", counted)
    mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, 2.0, 0.0)
    assert 2 < len(sizes) <= 30 and set(sizes) == {(n // 2) ** 2}
    assert mu.field.min() > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", [rectangle(1.0, 1.0), rectangle(2.0, 0.5)], ids=["square", "4:1"])
def test_tiny_rectangle_mu1_matches_dense_eigvalsh(monkeypatch, shape, n):
    # cells of 1 or 4 unknowns and full grids of 1 to 16, where the basis
    # [x, T r, p] soon spans the whole space: LOBPCG must stop at the gate
    # (one unknown: at once, r = 0), on the cell and on the full grid
    (level,) = solve_ladder(2.0, 0.0, shape, [n], SolveConfig(tol=1e-8))
    g, u = level.grid, level.report.upper
    steps = []
    vcycle = SPDFactor.precondition
    monkeypatch.setattr(SPDFactor, "precondition", lambda *a: steps.append(1) or vcycle(*a))
    asymmetric = u * (1.0 + 0.2 * g.points()[:, 0])
    for u, route in ((u, "cell"), (asymmetric, "grid")):
        m = monotone_shift(g, u, 2.0, 0.0)
        if route == "cell":
            mu = linearized_smallest_eigenvalue(g, u, 2.0, 0.0)
        else:
            mu = spectral._eigenpair(SPDFactor.on_grid(g, m), 1e-10)
        dense = assemble_laplacian(g).toarray() + np.diag(m)
        dense_error = np.finfo(float).eps * np.abs(dense).sum(axis=1).max()
        assert mu.value == pytest.approx(
            scipy.linalg.eigvalsh(dense)[0], rel=1e-10, abs=dense_error
        ), route
        assert mu.field.min() > 0.0 and mu.field.max() == 1.0, route
        if route == "cell" and n <= 3:
            assert not steps  # the cell's one unknown


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
