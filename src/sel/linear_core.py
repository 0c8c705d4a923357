"""SPD solves for -lap_h plus a nonnegative diagonal, and extended-precision residuals.

A nonnegative diagonal keeps the M-matrix structure of the Laplacian:
solutions of systems with nonnegative right-hand sides are nonnegative
(discrete comparison principle), which is checked after every solve.
The operators arrive as CSR matrices (grid.shifted_laplacian builds them on
the pattern of the grid's cached Laplacian), and SPDFactor prepares each
once for all the right-hand sides it will see: interval operators are
tridiagonal (is_tridiagonal, read off indptr and indices) and get a banded
Cholesky factor with iterative refinement; rectangle operators are solved
by conjugate gradients preconditioned with a geometric multigrid V-cycle
(Galerkin coarse operators, damped-Jacobi smoothing, a direct solve on the
coarsest grid), which takes a handful of iterations at any resolution.
extended_residual evaluates f - A x for any sparsity pattern with the
products and row sums in np.longdouble; the refinement, the final residual
check and the monotone iteration's defect all use it.

SolverFailure is the base of every error a solver or certificate raises on
valid input (stagnation here, and the eigen, barrier, ordering and Newton
failures of the other modules); the CLI maps it to exit code 2.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .grid import Grid, power_weight


class SolverFailure(RuntimeError):
    """A solver or certificate failed on valid input: exit code 2."""


class SolverStagnationError(SolverFailure):
    """A solve failed to reach the requested relative residual."""


class ComparisonPrincipleViolationError(RuntimeError):
    """f >= 0 produced a significantly negative solution component.

    This signals an assembly bug (the matrix is not the M-matrix it should
    be), not a solver accuracy problem.
    """


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float
    wall_time: float


def extended_residual(A: sp.csr_matrix, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f - A x with every product and row sum in np.longdouble, rounded once.

    A is CSR and every row stores at least one entry (true of any SPD
    matrix); f may itself be np.longdouble.  In double, the cancellation in
    f - A x loses up to cond(A) ulps of the result; the 64-bit mantissa of
    np.longdouble (x86) loses 2^11 times less.
    """
    prod = A.data.astype(np.longdouble) * x.astype(np.longdouble)[A.indices]
    return (f - np.add.reduceat(prod, A.indptr[:-1])).astype(float)


def is_tridiagonal(A: sp.csr_array) -> bool:
    """Every stored entry of the CSR matrix A lies on or next to the diagonal
    (intervals); read from indptr and indices, without a format conversion."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return bool(np.all(np.abs(A.indices - rows) <= 1))


MAX_REFINEMENTS = 3  # refinement steps after the first banded solve
MAX_PCG_ITERS = 100  # PCG iteration cap; a V-cycle keeps solves near 7 at any n
COARSEST_N = 16  # subdivisions per axis at and below which splu solves directly
JACOBI_WEIGHT = 0.8  # damping of the Jacobi smoother
SMOOTHING_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


@functools.lru_cache(maxsize=8)
def _prolongation(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(P, P^T): linear interpolation from ceil(n/2) to n subdivisions per axis.

    The coarse nodes need not be fine nodes (odd n), so each fine node
    interpolates between the two coarse nodes around it, the boundary
    value 0 standing in for a missing one.  P = kron(P1, P1) on the square
    interior of a rectangle grid.
    """
    nc = -(-n // 2)
    pos = np.arange(1, n) * (nc / n)  # fine interior nodes in coarse spacings
    left = np.floor(pos).astype(int)
    frac = pos - left
    rows = np.concatenate([np.arange(n - 1)] * 2)
    cols = np.concatenate([left, left + 1])
    vals = np.concatenate([1.0 - frac, frac])
    keep = (cols >= 1) & (cols <= nc - 1) & (vals > 0.0)
    P1 = sp.csr_matrix((vals[keep], (rows[keep], cols[keep] - 1)), shape=(n - 1, nc - 1))
    P = sp.kron(P1, P1, format="csr")
    return P, P.T.tocsr()


class SPDFactor:
    """An SPD M-matrix prepared once for many solves.

    A tridiagonal matrix (every interval grid) is factored by banded
    Cholesky (LAPACK pbtrf).  Each solve then runs the triangular sweeps and
    at most MAX_REFINEMENTS steps of iterative refinement against the
    extended_residual, so the relative residual drops to the level set by
    rounding x itself rather than by the round-off of the residual.

    Any other pattern (rectangles) is solved by conjugate gradients
    preconditioned with one geometric multigrid V-cycle (precondition).
    The hierarchy is built here, once per operator: linear interpolation P
    from n to ceil(n/2) subdivisions per axis, Galerkin coarse operators
    P^T A P (the nodal shift needs no rediscretization), SMOOTHING_SWEEPS
    damped-Jacobi sweeps before and after each coarse correction, and splu
    at the coarsest level, n <= COARSEST_N.  Smaller grids, or a matrix
    that is not a square grid's, are a one-level hierarchy: splu alone.
    """

    def __init__(self, A: sp.spmatrix):
        self.A = A = A.tocsr()
        if is_tridiagonal(A):
            upper = np.zeros((2, A.shape[0]))
            upper[0, 1:] = A.diagonal(1)
            upper[1] = A.diagonal(0)
            try:
                self._chol = scipy.linalg.cholesky_banded(upper, lower=False)
            except np.linalg.LinAlgError as exc:
                raise SolverStagnationError("matrix is not positive definite") from exc
            return
        self._chol = None
        # (A_l, JACOBI_WEIGHT / diag(A_l), P, P^T) for every level above the coarsest
        self._levels = []
        side = math.isqrt(A.shape[0])
        n = side + 1 if side * side == A.shape[0] else 0
        while n > COARSEST_N:
            P, PT = _prolongation(n)
            self._levels.append((A, JACOBI_WEIGHT / A.diagonal(), P, PT))
            A = (PT @ A @ P).tocsr()
            n = -(-n // 2)
        try:
            # lexicographic order: the fill stays within the band of a small grid
            self._coarsest = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="NATURAL")
        except RuntimeError as exc:  # exactly singular
            raise SolverStagnationError("matrix is not positive definite") from exc

    def solve(self, f: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, SolveStats]:
        """x with ||f - A x||_2 <= tol ||f||_2, else SolverStagnationError.

        PCG stops after MAX_PCG_ITERS iterations.  If f >= 0 nodewise, the
        result is checked against the discrete comparison principle.
        SolveStats.iterations counts banded solves or PCG steps.
        """
        if tol <= 0:
            raise ValueError("tol must be positive")
        f = np.asarray(f, dtype=float)
        m = f.shape[0]
        t_start = time.perf_counter()
        norm_f = float(np.linalg.norm(f))
        if norm_f == 0.0:
            return np.zeros(m), SolveStats(0, 0.0, time.perf_counter() - t_start)
        target = tol * norm_f
        x, iters = self._pcg(f, target) if self._chol is None else (np.zeros(m), 0)
        r = extended_residual(self.A, f, x)
        while self._chol is not None and np.linalg.norm(r) > target and iters <= MAX_REFINEMENTS:
            x += scipy.linalg.cho_solve_banded((self._chol, False), r, check_finite=False)
            iters += 1
            r = extended_residual(self.A, f, x)

        rel = float(np.linalg.norm(r)) / norm_f
        if not rel <= tol:
            raise SolverStagnationError(
                f"solve stagnated: residual {rel:.3e} > tol {tol:.3e} after {iters} iterations"
            )
        if np.all(f >= 0.0):
            floor = -tol * float(np.max(np.abs(x), initial=0.0))
            if float(x.min(initial=0.0)) < floor:
                raise ComparisonPrincipleViolationError(
                    f"f >= 0 but min(u) = {x.min():.3e} < {floor:.3e}"
                )
        return x, SolveStats(iters, rel, time.perf_counter() - t_start)

    def precondition(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """One symmetric V-cycle from x = 0 on A_level x = r: about A^(-1) r.

        Only for the multigrid (non-tridiagonal) path.
        """
        if level == len(self._levels):
            return self._coarsest.solve(r)
        A, w_inv_diag, P, PT = self._levels[level]
        x = w_inv_diag * r
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += w_inv_diag * (r - A @ x)
        x += P @ self.precondition(PT @ (r - A @ x), level + 1)
        for _ in range(SMOOTHING_SWEEPS):
            x += w_inv_diag * (r - A @ x)
        return x

    def _pcg(self, f: np.ndarray, target: float) -> tuple[np.ndarray, int]:
        # V-cycle-preconditioned CG from x = 0; the caller checks the true residual.
        A = self.A
        x = np.zeros(f.shape[0])
        r = f.copy()
        z = self.precondition(r)
        p = z.copy()
        rz = float(r @ z)
        iters = 0
        while np.linalg.norm(r) > target and iters < MAX_PCG_ITERS:
            Ap = A @ p
            pAp = float(p @ Ap)
            if pAp <= 0.0:
                raise SolverStagnationError("matrix is not positive definite")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            iters += 1
            z = self.precondition(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        return x, iters


def solve_spd(A: sp.spmatrix, f: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, SolveStats]:
    """One solve of A x = f through a fresh SPDFactor; see SPDFactor.solve."""
    return SPDFactor(A).solve(f, tol)


def weighted_norm(u: np.ndarray, grid: Grid, gamma: float) -> float:
    """Discrete L2(Omega, d^(-gamma)) norm by the midpoint rule."""
    u = grid.check_field(u)
    return float(np.sqrt(np.sum(u * u * power_weight(grid, gamma)) * grid.cell_volume))
