"""Principal Dirichlet eigenpair and the linearized smallest eigenvalue.

On the uniform tensor grid the principal eigenpair of -lap_h is known in
closed form (dirichlet_eigenpair).  The linearized operator
-lap_h + alpha d^(-beta) u^(-(1+alpha)) has no closed form; its smallest
eigenvalue mu_1 comes from a library eigensolver chosen by sparsity pattern:
scipy.linalg.eigh_tridiagonal (LAPACK) on tridiagonal operators (intervals),
scipy.sparse.linalg.lobpcg preconditioned by the multigrid V-cycle of
linear_core.SPDFactor on any other (rectangles).
The operators are SPD M-matrices, so the principal eigenvector is positive
(discrete Perron-Frobenius), which is checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .grid import Grid, assemble_laplacian, power_weight, shifted_laplacian
from .linear_core import SPDFactor, SolverFailure, is_tridiagonal

# An eigenpair exact to rounding still has a 2-norm residual of a few
# eps * ||A||_inf (which grows like n^2); the residual check allows this many.
ROUNDOFF_UNITS = 16
MAX_LOBPCG_ITERS = 100  # per LOBPCG run; a V-cycle keeps runs near a dozen


class EigenNonConvergenceError(SolverFailure):
    """The eigensolver did not converge, or its eigenpair failed the residual
    or positivity check."""


class InvalidLinearizationPointError(ValueError):
    """Linearization requested at a field that is not strictly positive."""


@dataclass
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
    """
    extents = grid.shape.extents
    phi = np.ones(1)
    for ax, length in zip(grid.axes, extents):
        phi = np.multiply.outer(phi, np.sin(np.pi * ax / length)).reshape(-1)
    phi /= phi.max()
    lam = sum(4.0 / h**2 * np.sin(np.pi * h / (2.0 * L)) ** 2 for h, L in zip(grid.h, extents))
    resid = np.linalg.norm(assemble_laplacian(grid) @ phi - lam * phi) / np.linalg.norm(phi)
    return EigenPair(value=float(lam), field=phi, residual=float(resid))


def principal_eigenpair(A: sp.spmatrix, tol: float = 1e-10) -> EigenPair:
    """Smallest eigenvalue and positive eigenvector of an SPD M-matrix.

    Tridiagonal A goes to scipy.linalg.eigh_tridiagonal.  Any other pattern
    goes to scipy.sparse.linalg.lobpcg, started from the constant vector (so
    results are deterministic) and preconditioned by the multigrid V-cycle
    of SPDFactor(A).  LOBPCG stops on an absolute residual, so it runs
    twice: to the gate below at the Rayleigh quotient of the constant
    vector (an upper bound of lambda), then, from the vector it returned,
    to half the gate at the eigenvalue it returned.  The value is the
    Rayleigh quotient of the sup-normalized eigenvector phi.  Unless
    ||A phi - lambda phi||_2 / ||phi||_2 <= max(tol * lambda,
    ROUNDOFF_UNITS * eps * ||A||_inf) and phi > 0: EigenNonConvergenceError.
    """
    A = A.tocsr()
    floor = ROUNDOFF_UNITS * np.finfo(float).eps * scipy.sparse.linalg.norm(A, np.inf)
    if is_tridiagonal(A):
        d, e = A.diagonal(), A.diagonal(1)
        _, vecs = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    else:
        vcycle = SPDFactor(A).precondition
        precond = scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=lambda r: vcycle(r.ravel()), dtype=float
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
    # The Rayleigh quotient squares the eigenvector error; bisection alone is
    # off by up to eps * ||A||, 2.7e-9 relative at interval n=8192.
    lam = float(x @ (A @ x)) / float(x @ x)
    resid = float(np.linalg.norm(A @ x - lam * x)) / float(np.linalg.norm(x))
    limit = max(tol * lam, floor)
    if not resid <= limit:
        raise EigenNonConvergenceError(f"eigen-residual {resid:.3e} > {limit:.3e}")
    if x.min() <= 0.0:
        raise EigenNonConvergenceError("principal eigenvector is not strictly positive")
    return EigenPair(value=lam, field=x, residual=resid)


def linearized_smallest_eigenvalue(
    grid: Grid, u: np.ndarray, alpha: float, beta: float, tol: float = 1e-10
) -> EigenPair:
    """Smallest eigenvalue mu_1 of -lap_h + alpha d^(-beta) u^(-(1+alpha)).

    The potential is nonnegative for u > 0, so mu_1 >= lambda_1 > 0: the
    converged solutions of the nonlinear problem are linearly stable, and
    this is the quantity that certifies it.
    """
    u = grid.check_field(u)
    if u.min() <= 0.0:
        raise InvalidLinearizationPointError("linearization point must be positive nodewise")
    potential = alpha * power_weight(grid, beta) * u ** (-(1.0 + alpha))
    return principal_eigenpair(shifted_laplacian(grid, potential), tol=tol)
