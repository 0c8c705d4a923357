"""Principal Dirichlet eigenpair and the linearized smallest eigenvalue.

On the uniform tensor grid the principal eigenpair of -lap_h is known in
closed form (dirichlet_eigenpair).  The linearized operator
-lap_h + alpha d^(-beta) u^(-(1+alpha)) has no closed form; its smallest
eigenvalue mu_1 comes from inverse power iteration, every inner solve
through one SPDFactor of the operator (banded Cholesky on intervals,
preconditioned CG on rectangles).  Only the smallest eigenvalue is ever
needed, the operators are SPD M-matrices, and the principal eigenvector is
positive (discrete Perron-Frobenius), so Lanczos or deflation would be
overkill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, assemble_laplacian, power_weight
from .linear_core import SPDFactor

# The 2-norm eigen-residual of a sup-normalized eigenvector bottoms out at
# the inner solver's round-off floor (eps * cond(A)), not at zero; this is
# the absolute level below which the back-check stops being meaningful.
RESIDUAL_FLOOR = 1e-7
# Relative residual of the inner solves.  Inner accuracy is not precious: the
# Rayleigh quotient squares the eigenvector error.
INNER_TOL = 1e-9
MAX_INVERSE_ITERS = 500


class EigenNonConvergenceError(RuntimeError):
    """Inverse power iteration stagnated."""


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

    Convergence is declared on relative eigenvalue increments <= tol, with a
    residual back-check ||A phi - lambda phi||_2 / ||phi||_2 <= tol * lambda.
    Every inner solve runs at INNER_TOL; one that cannot reach it raises
    SolverStagnationError.
    """
    factor = SPDFactor(A)
    x = np.ones(A.shape[0])
    lam = float(x @ (A @ x)) / float(x @ x)
    for _ in range(MAX_INVERSE_ITERS):
        y, _ = factor.solve(x, tol=INNER_TOL, x0=x / lam)
        y /= float(np.max(np.abs(y)))
        lam_new = float(y @ (A @ y)) / float(y @ y)
        increment_small = abs(lam_new - lam) <= tol * abs(lam_new)
        x, lam = y, lam_new
        if increment_small:
            resid = float(np.linalg.norm(A @ x - lam * x)) / float(np.linalg.norm(x))
            if resid <= max(tol * lam, RESIDUAL_FLOOR):
                if x.min() <= 0.0:
                    raise EigenNonConvergenceError(
                        "principal eigenvector is not strictly positive"
                    )
                return EigenPair(value=lam, field=x, residual=resid)
    raise EigenNonConvergenceError(f"no convergence after {MAX_INVERSE_ITERS} inverse iterations")


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
    A = (assemble_laplacian(grid) + sp.diags_array(potential)).tocsr()
    return principal_eigenpair(A, tol=tol)
