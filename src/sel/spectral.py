"""The nonlinearity, its slope, and the principal eigenpairs.

_forcing is the one evaluation of F(u) = d^(-beta) u^(-alpha), monotone_shift
of m = -F'(u).  The principal eigenpair of -lap_h on the uniform tensor grid
is in closed form (dirichlet_eigenpair); -lap_h + m has none, and
its smallest eigenvalue mu_1 comes from the factor
linear_core.SPDFactor.on_grid, by its route: shifted inverse iteration on
an interval's LDL^T kernel (LAPACK dpttrf/dpttrs), lobpcg with the
factor's V-cycle on rectangles (a bare matrix, principal_eigenpair:
SPDFactor(A)'s route).  Either eigenvector is judged on the factor's CSR
operator, with NumPy's pairwise sums in place of BLAS dot products.
The operators are SPD M-matrices, so the principal eigenvector is positive
(discrete Perron-Frobenius), which is checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import Grid, assemble_laplacian, power_weight
from .linear_core import SPDFactor, SolverFailure, check_tol

# An eigenpair exact to rounding still has a 2-norm residual of a few
# eps * ||A||_inf (which grows like n^2); the residual check allows this many.
ROUNDOFF_UNITS = 16
MAX_LOBPCG_ITERS = 100  # per LOBPCG run; a V-cycle keeps runs near a dozen
MAX_INVERSE_ITERS = 50  # shifted solves per interval mu_1; 0-10 reach the rounding floor


class EigenNonConvergenceError(SolverFailure):
    """The eigensolver did not converge, or its eigenpair failed the residual
    or positivity check."""


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Eigenvalue, sup-normalized positive eigenvector, and 2-norm residual."""

    value: float
    field: np.ndarray
    residual: float


def dirichlet_eigenpair(grid: Grid) -> EigenPair:
    """Principal eigenpair of -lap_h on the grid, in closed form.

    The operator separates by axis, and sin(pi x/L) sampled at the nodes is
    an exact eigenvector of each 1D factor: phi = prod sin(pi x_i/L_i)
    (sup-normalized) and lambda_1 = sum 4/h_i^2 sin^2(pi h_i/(2 L_i)).
    Computed on the first call for a grid and cached on it: later calls
    return the same EigenPair, whose field is read-only.
    """
    eig = grid._facts.get("eigenpair")
    if eig is None:
        eig = grid._facts["eigenpair"] = _closed_form_eigenpair(grid)
    return eig


def _closed_form_eigenpair(grid: Grid) -> EigenPair:
    extents = grid.shape.extents
    phi = np.ones(1)
    for ax, length in zip(grid.axes, extents):
        phi = np.multiply.outer(phi, np.sin(np.pi * ax / length)).reshape(-1)
    phi /= phi.max()
    lam = sum(4.0 / h**2 * np.sin(np.pi * h / (2.0 * L)) ** 2 for h, L in zip(grid.h, extents))
    r = assemble_laplacian(grid) @ phi - lam * phi
    # pairwise sums, not BLAS ddot, as in _rayleigh
    resid = math.sqrt(np.add.reduce(r * r)) / math.sqrt(np.add.reduce(phi * phi))
    phi.setflags(write=False)
    return EigenPair(value=float(lam), field=phi, residual=float(resid))


def principal_eigenpair(A: sp.spmatrix, tol: float = 1e-10) -> EigenPair:
    """_eigenpair of a bare SPD M-matrix through SPDFactor(A), its checks (a
    ValueError for a NaN or inf entry or an asymmetric tridiagonal A) and its
    route: a tridiagonal A by inverse iteration on its LDL^T, else one splu
    level (README)."""
    return _eigenpair(SPDFactor(A), tol)


def _eigenpair(factor: SPDFactor, tol: float) -> EigenPair:
    """Smallest eigenvalue and positive eigenvector of factor's SPD M-matrix A.

    A banded factor (factor.diagonals) is solved by _inverse_iteration on
    its LDL^T kernel.  Else scipy.sparse.linalg.lobpcg runs on A from the
    constant vector (so results are deterministic), preconditioned by
    factor.precondition, one V-cycle ~ A^(-1) r.  LOBPCG stops on an
    absolute residual, so it runs twice: to the gate below at the Rayleigh
    quotient of the constant vector (an upper bound of lambda), then, from
    the vector it returned, to half the gate at the eigenvalue it returned.
    The value is the Rayleigh quotient of the sup-normalized eigenvector
    phi on A (_rayleigh).  Unless
    ||A phi - lambda phi||_2 / ||phi||_2 <= max(tol * lambda,
    ROUNDOFF_UNITS * eps * ||A||_inf) and phi > 0: EigenNonConvergenceError.
    ValueError, before any eigensolve, unless tol is finite and > 0.
    """
    check_tol(tol)
    A = factor.A
    # ||A||_inf: each row's |entries| summed in stored order, the bits of
    # scipy.sparse.linalg.norm(A, np.inf) at a quarter of its cost; a banded
    # factor sums its diagonals in that order
    banded = factor.diagonals is not None
    if banded:
        norm_inf = _banded_inf_norm(*factor.diagonals)
    else:
        norm_inf = float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
    floor = ROUNDOFF_UNITS * np.finfo(float).eps * norm_inf
    if banded:
        x = _inverse_iteration(factor, tol, floor)
    else:
        precond = scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=lambda r: factor.precondition(r.ravel()), dtype=float
        )

        def lobpcg(x0: np.ndarray, gate: float) -> tuple[float, np.ndarray]:
            vals, vecs = scipy.sparse.linalg.lobpcg(
                A, x0, M=precond, tol=gate, maxiter=MAX_LOBPCG_ITERS, largest=False
            )
            return float(vals[0]), vecs

        # Tiny problems (fewer than 5 unknowns) make LOBPCG warn and fall back
        # to a dense solver, and a stall only warns; the checks below judge.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                rq_ones = float(A.sum()) / A.shape[0]
                lam, vecs = lobpcg(np.ones((A.shape[0], 1)), max(tol * rq_ones, floor))
                _, vecs = lobpcg(vecs, 0.5 * max(tol * lam, floor))
            except np.linalg.LinAlgError as exc:
                raise EigenNonConvergenceError(f"LOBPCG broke down: {exc}") from exc
        x = vecs[:, 0] / vecs[np.argmax(np.abs(vecs[:, 0])), 0]
    # the Rayleigh quotient squares the eigenvector's error
    lam, resid = _rayleigh(A, x)
    limit = max(tol * lam, floor)
    if not resid <= limit:
        raise EigenNonConvergenceError(f"eigen-residual {resid:.3e} > {limit:.3e}")
    if x.min() <= 0.0:
        raise EigenNonConvergenceError("principal eigenvector is not strictly positive")
    return EigenPair(value=lam, field=x, residual=resid)


def _banded_inf_norm(diag: np.ndarray, off: np.ndarray) -> float:
    """||A||_inf of the symmetric tridiagonal A = (diag, off), each row
    summed in CSR stored order, (|e_(i-1)| + |d_i|) + |e_i|: the bits of
    np.add.reduceat over A's rows, without A's index arrays."""
    rows = np.abs(diag)
    e = np.abs(off)
    rows[1:] = e + rows[1:]
    rows[:-1] += e
    return float(rows.max())


def _rayleigh(A: sp.csr_array, x: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient of x on A, and ||A x - lambda x||_2 / ||x||_2.

    Every inner product is np.add.reduce of elementwise products, NumPy's
    pairwise sum: BLAS ddot splits long vectors across its threads, so its
    bits would depend on the thread count.
    """
    ax = A @ x
    xx = np.add.reduce(x * x)
    lam = float(np.add.reduce(x * ax) / xx)
    r = ax - lam * x
    return lam, math.sqrt(np.add.reduce(r * r)) / math.sqrt(xx)


def _inverse_iteration(factor: SPDFactor, tol: float, floor: float) -> np.ndarray:
    """Sup-normalized principal eigenvector of a banded factor's A by shifted
    inverse iteration.

    A symmetric tridiagonal A has a strictly positive principal eigenvector
    exactly when every off-diagonal is < 0; else EigenNonConvergenceError
    before any solve (from the constant vector, inverse iteration could
    return another eigenvector that is positive, e.g. that of the largest
    eigenvalue of [[2, 1], [1, 2]]).  Then A is an irreducible M-matrix and
    A^(-1) > 0, so each solve x = A^(-1) y of a positive y brackets lambda:
    min y/x <= lambda <= max y/x (Collatz-Wielandt; Varga, Matrix Iterative
    Analysis, ch. 2).  Two solves with factor's LDL^T from the constant
    vector give the shift sigma, that lower bound (0.94-0.97 lambda on the
    cases measured); the shifted solves x <- (A - sigma I)^(-1) x, each
    sup-normalized, then converge at the rate
    (lambda - sigma) / (lambda_2 - sigma) (Ipsen, SIAM Review 39, 1997).
    They stop once the residual (_rayleigh) is within the gate of _eigenpair
    and has stopped halving, i.e. has reached its rounding floor, or after
    MAX_INVERSE_ITERS solves; _eigenpair judges the vector returned.
    """
    diag, off = factor.diagonals
    if (off >= 0.0).any():
        raise EigenNonConvergenceError("principal eigenvector is not strictly positive")
    x = np.ones(diag.size)
    for _ in range(2):
        y = x
        x = dpttrs(*factor._ldl, y)[0]
        sigma = float((y / x).min())
        x /= x.max()
    # the f2py wrappers reject an empty off-diagonal: one unknown gets a dummy 0
    d, e, info = dpttrf(diag - sigma, off if off.size else np.zeros(1))
    # sigma is a lower bound of lambda in exact arithmetic only: A - sigma I
    # may fail to factor, and then the unshifted LDL^T iterates
    ldl = (d, e) if info == 0 else factor._ldl
    lam, resid = _rayleigh(factor.A, x)
    prev = math.inf
    for _ in range(MAX_INVERSE_ITERS):
        # a zero residual is exact
        if resid <= max(tol * lam, floor) and not 0.0 < resid < 0.5 * prev:
            break
        prev = resid
        x = dpttrs(*ldl, x)[0]
        x /= x.max()
        lam, resid = _rayleigh(factor.A, x)
    return x


def _forcing(grid: Grid, u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Nodal nonlinearity F(u) = d^(-beta) u^(-alpha), the one evaluation of
    the right-hand side (_scaled_forcing with the weight d^(-beta)), for a
    double or long-double u that already passed grid.check_positive: each
    caller checks its field once, where it is made or taken in.
    """
    return _scaled_forcing(power_weight(grid, beta), u, alpha)


def _scaled_forcing(weight: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """weight * u^(-alpha): F on the grid (weight d^(-beta)), and w F on a
    mirror cell (weight w d^(-beta), w a power of 2, so the product is w
    times F to the bit).  A long-double u stays in long double: there powl
    takes 30-55 ns per node at alpha = 0, 1, 2, 3 and about 410 ns at any
    other alpha, where exp(-alpha log u) takes about 110 ns within
    4 eps (1 + alpha |ln u|) of it, eps the long-double epsilon (timeit at
    4095 nodes, 2-vCPU Xeon VM).
    """
    if u.dtype == np.longdouble and not (float(alpha).is_integer() and alpha < 4):
        return weight * np.exp(-alpha * np.log(u))
    return weight * u ** (-alpha)


def monotone_shift(grid: Grid, u: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Nodal potential m = alpha d^(-beta) u^(-(1+alpha)) of the linearized
    operator -lap_h + diag(m): the one linearization, of mu_1, Newton's
    Jacobian and the monotone steps (_scaled_shift with the weight
    d^(-beta)).  The smallest m for which s -> d^(-beta) s^(-alpha) + m s
    is nondecreasing for s >= u at every node.  ValueError unless u passes
    grid.check_positive.
    """
    u = grid.check_positive(u)
    return _scaled_shift(power_weight(grid, beta), u, alpha)


def _scaled_shift(weight: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    # alpha weight u^(-(1+alpha)), as _scaled_forcing: w m on a mirror cell
    return alpha * weight * u ** (-(1.0 + alpha))


def linearized_smallest_eigenvalue(
    grid: Grid, u: np.ndarray, alpha: float, beta: float, tol: float = 1e-10
) -> EigenPair:
    """Smallest eigenvalue mu_1 of -lap_h + monotone_shift(grid, u, alpha, beta).

    The potential is nonnegative for u > 0, so mu_1 >= lambda_1 > 0: the
    converged solutions of the nonlinear problem are linearly stable, and
    this is the quantity that certifies it.  The operator and its route are
    those of SPDFactor.on_grid (inverse iteration on the LDL^T kernel of an
    interval, LOBPCG with the V-cycle on a rectangle).  ValueError unless u
    passes grid.check_positive.
    """
    return _eigenpair(SPDFactor.on_grid(grid, monotone_shift(grid, u, alpha, beta)), tol)
