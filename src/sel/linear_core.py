"""SPD solves for -lap_h plus a nonnegative diagonal, and extended-precision residuals.

A nonnegative diagonal keeps the M-matrix structure of the Laplacian:
solutions of systems with nonnegative right-hand sides are nonnegative
(discrete comparison principle), which is checked after every solve.
SPDFactor prepares one CSR operator (SPDFactor.A) once for all the
right-hand sides it will see.  Newton's steps factor by the grid
(SPDFactor.on_grid(grid, m): grid.shifted_laplacian, -lap_h + diag(m)
on the pattern of the grid's cached Laplacian), and the monotone steps and
mu_1 by its mirror cell (SPDFactor.on_cell(grid, m): K + diag(m) on the
pattern of the fold's K, grid.mirror_fold, half an interval, a quarter of
a rectangle and an eighth of a square; mu_1 of a potential that is not
mirror-symmetric by the grid), both routed by grid.dim: an
interval's tridiagonal operator gets an LDL^T factor (LAPACK ?pttrf/?pttrs)
with iterative refinement; a rectangle's is solved by conjugate gradients
preconditioned with a geometric multigrid V-cycle (Galerkin coarse
operators, damped-Jacobi smoothing, a banded Cholesky solve on the coarsest
grid, LAPACK ?pbtrf/?pbtrs), which takes a handful of iterations at any
resolution, and one where the whole operator is that direct level; mu_1
takes the same factor and route (spectral: inverse iteration on the LDL^T
kernel, its own LOBPCG with the V-cycle, both W-weighted on the cell).  A
bare CSR matrix (SPDFactor(A), behind solve_spd and principal_eigenpair)
has no grid: a tridiagonal one (is_tridiagonal) gets the LDL^T factor, any
other one direct banded Cholesky level in its own bandwidth; no program
path takes it, and it goes with those two callers (ROADMAP item 2).
extended_residual evaluates f - A x as one scipy CSR product in
np.longdouble, rounded to double once: the refinement, the final residual
check and the monotone iteration's defect all use it.  This assumes the
64-bit mantissa of x86 np.longdouble: where np.longdouble is plain double,
the defects lose the precision the monotone ordering is kept with.  scipy's
product converts the double operator's values to np.longdouble inside the
call, with the same result as a stored long-double copy, so no such copy
is made or kept (the README's numerical notes give the measurements).

SolverFailure is the base of every error a solver or certificate raises on
valid input (stagnation and comparison-principle violations here, and the
eigen, barrier, ordering and Newton failures of the other modules); the CLI
maps it to exit code 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpttrf, dpttrs

from .grid import Grid, axis_mirror, diagonal_mirror, mirror_fold, shifted_laplacian


class SolverFailure(RuntimeError):
    """A solver or certificate failed on valid input: exit code 2."""


class SolverStagnationError(SolverFailure):
    """A solve failed to reach the requested relative residual."""


class ComparisonPrincipleViolationError(SolverFailure):
    """f >= 0 produced a significantly negative solution component.

    This signals an assembly bug (the matrix is not the M-matrix it should
    be), not a solver accuracy problem.  The check is one of the solver's
    certificates, so the error is a SolverFailure (exit code 2 in the CLI).
    """


def check_tol(tol: float) -> None:
    """ValueError unless tol is finite and > 0: the one check of every
    stopping tolerance (SolveConfig, SPDFactor.solve, the eigensolves and
    Newton), made before any arithmetic uses it."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


@dataclass
class SolveStats:
    iterations: int
    relative_residual: float


def extended_residual(A: sp.csr_array, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """f - A x with every product and row sum in np.longdouble, rounded once.

    f may itself be np.longdouble.  In double, the cancellation in f - A x
    loses up to cond(A) ulps of the result; the 64-bit mantissa of
    np.longdouble (x86) loses 2^11 times less.  A stays in double: scipy's
    CSR product runs in the wider dtype of its operands and converts A's
    values to np.longdouble inside the call, so no long-double copy of A
    is made or kept.
    """
    return (f - A @ x.astype(np.longdouble, copy=False)).astype(float)


def is_tridiagonal(A: sp.csr_array) -> bool:
    """Every stored entry of the CSR matrix A is on or next to its diagonal."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return bool(np.all(np.abs(A.indices - rows) <= 1))


MAX_REFINEMENTS = 3  # refinement steps after the first banded solve
MAX_PCG_ITERS = 100  # PCG iteration cap; a V-cycle keeps solves near 7 at any n
# unknowns at and below which a level is solved directly (banded Cholesky):
# the mirror cell up to n = 89 on a square (its eighth, c(c+1)/2 nodes for
# c = n // 2) and up to n = 65 on other rectangles (a quarter, c^2), the
# full grid up to n = 33
DIRECT_UNKNOWNS = 32 * 32
JACOBI_WEIGHT = 0.8  # damping of the Jacobi smoother
SMOOTHING_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


def _interpolation(n: int) -> sp.csr_matrix:
    # P1: linear interpolation on one axis from ceil(n/2) to n subdivisions.
    # The coarse nodes need not be fine nodes (odd n), so each fine node
    # interpolates between the two coarse nodes around it, the boundary
    # value 0 standing in for a missing one.
    nc = -(-n // 2)
    pos = np.arange(1, n) * (nc / n)  # fine interior nodes in coarse spacings
    left = np.floor(pos).astype(int)
    frac = pos - left
    rows = np.concatenate([np.arange(n - 1)] * 2)
    cols = np.concatenate([left, left + 1])
    vals = np.concatenate([1.0 - frac, frac])
    keep = (cols >= 1) & (cols <= nc - 1) & (vals > 0.0)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep] - 1)), shape=(n - 1, nc - 1))


@functools.lru_cache(maxsize=8)
def _prolongation(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(P, P^T): linear interpolation from ceil(n/2) to n subdivisions per
    axis, P = kron(P1, P1) on the square interior of a rectangle grid."""
    P1 = _interpolation(n)
    P = sp.kron(P1, P1, format="csr")
    return P, P.T.tocsr()


@functools.lru_cache(maxsize=8)
def _cell_prolongation(n: int, diagonal: bool) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(P_c, P_c^T): _prolongation between the mirror cells (grid.MirrorFold)
    of n and ceil(n/2) subdivisions, folded by the diagonal too if diagonal
    (MirrorFold.diagonal, a square).  Between the midline folds' quarter
    cells P_q = P[rep_f] E_c per axis: a fine cell node interpolates from
    the coarse nodes around it, a node beyond the coarse cell read at its
    cell node.  Between the eighth cells of a square P_c = P_q[rep_f] S_c,
    rep_f the fine eighth's nodes in the quarter and S_c the coarse
    eighth's 0/1 expansion to its quarter (grid.diagonal_mirror).
    P E_c = E_f P_c holds to the bit at even n, where every weight is 0,
    1/2 or 1, and to rounding at odd n."""
    nc = -(-n // 2)
    idx_c, w_c = axis_mirror(nc)
    E_c = sp.csr_matrix((np.ones(nc - 1), (np.arange(nc - 1), idx_c)), shape=(nc - 1, w_c.size))
    P1 = (_interpolation(n)[: n // 2] @ E_c).tocsr()
    P = sp.kron(P1, P1, format="csr")
    if diagonal:
        idx_d, _ = diagonal_mirror(w_c.size)
        _, rep_f = diagonal_mirror(n // 2)
        S_c = sp.csr_matrix((np.ones(idx_d.size), (np.arange(idx_d.size), idx_d)))
        P = (P[rep_f] @ S_c).tocsr()
    return P, P.T.tocsr()


class SPDFactor:
    """An SPD M-matrix A (self.A, in CSR) prepared once for many solves.

    Three constructors route to one tridiagonal init and one multigrid init,
    and share solve.  SPDFactor.on_grid(grid, m), the factor of
    -lap_h + diag(m) that Newton uses (and mu_1 of a potential that is not
    mirror-symmetric), and SPDFactor.on_cell(grid, m), that of the mirror
    cell's K + diag(m) that the monotone steps and mu_1 use, route by
    grid.dim: an interval's operator is tridiagonal, a rectangle's
    multigrid takes n from the grid, and its prolongations from the full
    grid's or the cell's interpolation.  SPDFactor(A), behind solve_spd and
    principal_eigenpair, has a bare matrix and no grid to coarsen: a
    tridiagonal A (is_tridiagonal) is factored as L D L^T, any other is one
    direct banded Cholesky level in A's own bandwidth.  A NaN or inf entry
    is a ValueError on either route, and so is a tridiagonal A that is not
    symmetric.  The eigenpairs of spectral take the route: diagonals and the
    LDL^T factor (None on the multigrid route) for inverse iteration, or
    precondition for LOBPCG.

    A tridiagonal operator (every interval grid) is factored as L D L^T by
    LAPACK dpttrf, which fails (info != 0) unless the matrix is positive
    definite; each banded step of a solve is one dpttrs.  At 255 (4095)
    unknowns they take 3 (37) and 2.6 (32) us, against 17 (144) and 13 (87)
    us for scipy's cholesky_banded and cho_solve_banded (timeit, 2-vCPU
    Xeon VM, SciPy 1.17.1).  Each solve runs at most MAX_REFINEMENTS steps
    of iterative refinement against extended_residual(self.A, f, x),
    adding each refinement to x in np.longdouble (mixed-precision
    refinement; Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 12), so the relative residual is not floored at the
    eps ||A|| ||x|| / ||f|| of a double x, a floor that grows like n^2.

    Any other operator (rectangles) is solved by conjugate gradients
    preconditioned with one geometric multigrid V-cycle (precondition) per
    iteration: a solve of SolveStats.iterations steps applies that many
    V-cycles.
    The hierarchy is built here, once per operator: linear interpolation P
    from n to ceil(n/2) subdivisions per axis (between the mirror cells of
    the two grids on the cell, _cell_prolongation, so the cell's Galerkin
    operators are the folds of the full grid's), Galerkin coarse operators
    P^T A P (the nodal shift needs no rediscretization), SMOOTHING_SWEEPS
    damped-Jacobi sweeps before and after each coarse correction, and a
    direct solve at the coarsest level, the first of at most DIRECT_UNKNOWNS
    = 32x32 unknowns: a square's eighth cell is direct up to n = 89 (990
    unknowns; n = 90 has 1035, over a 253-unknown direct level), another
    rectangle's quarter cell up to n = 65, the full grid up to n = 33.
    Smaller operators, and every bare non-tridiagonal matrix, are a
    one-level hierarchy: the direct solve alone, so PCG takes one step.
    The direct level is factored by LAPACK's banded Cholesky dpbtrf on its
    upper band (bandwidth kd, the level's own: about its grid's row length
    in lexicographic order), which fails (info != 0, SolverStagnationError
    when the factor is built) unless the level is positive definite; each
    solve on it is one dpbtrs.  On the 32x32 cell (1024 unknowns, kd = 32)
    the band and its factor take about 0.4 ms, against 2.6 ms for SuperLU's
    splu in natural order (timeit, one OpenBLAS thread, 2-vCPU Xeon VM,
    SciPy 1.17.1).
    """

    def __init__(self, A: sp.spmatrix):
        A = A.tocsr()
        # dpttrf passes a NaN or inf through; dpbtrf or PCG would call it indefinite
        if not np.isfinite(A.data).all():
            raise ValueError("matrix has a NaN or inf entry")
        if is_tridiagonal(A):
            # dpttrf reads one off-diagonal, so the other must equal it
            off = A.diagonal(1)
            if not np.array_equal(A.diagonal(-1), off):
                raise ValueError("tridiagonal matrix is not symmetric")
            self._init_banded(A, A.diagonal(), off)
        else:
            self._init_multigrid(A, 0, None)

    @classmethod
    def on_grid(cls, grid: Grid, m: np.ndarray) -> SPDFactor:
        """The factor of shifted_laplacian(grid, m), routed by grid.dim.

        ValueError unless m passes grid.check_field.
        """
        A = shifted_laplacian(grid, m)
        return cls._routed(grid, A, grid._diagonal_positions, _prolongation)

    @classmethod
    def on_cell(cls, grid: Grid, m: np.ndarray) -> SPDFactor:
        """The factor of K + diag(m) on the grid's mirror cell
        (grid.mirror_fold), routed by grid.dim as on_grid: the cell's
        operator is tridiagonal on an interval, and a rectangle's multigrid
        interpolates between the cells of its levels, eighths on a square
        and quarters on another rectangle (_cell_prolongation).

        ValueError unless m is a finite cell field.
        """
        fold = mirror_fold(grid)
        prolongation = functools.partial(_cell_prolongation, diagonal=fold.diagonal)
        return cls._routed(grid, fold.shifted(m), fold.diagonal_positions, prolongation)

    @classmethod
    def _routed(cls, grid: Grid, A: sp.csr_array, pos: np.ndarray, prolongation) -> SPDFactor:
        # pos: A's diagonal positions; prolongation: n -> (P, P^T) of A's levels
        self = cls.__new__(cls)
        if grid.dim == 1:
            # each row's diagonal entry, and its right neighbour stored next
            # (rows in column order): a third of the cost of A.diagonal(k)
            self._init_banded(A, A.data[pos], A.data[pos[:-1] + 1])
        else:
            self._init_multigrid(A, grid.n, prolongation)
        return self

    def _init_banded(self, A: sp.csr_array, diag: np.ndarray, off: np.ndarray) -> None:
        # diag and off: A's diagonal and off-diagonal
        self.A = A
        self.diagonals = (diag, off)
        # the f2py wrappers reject an empty off-diagonal: one unknown gets a dummy 0
        d, e, info = dpttrf(diag, off if off.size else np.zeros(1))
        if info != 0:
            raise SolverStagnationError("matrix is not positive definite")
        self._ldl = (d, e)

    def _init_multigrid(self, A: sp.csr_array, n: int, prolongation) -> None:
        # n: subdivisions per axis of A's grid, or 0 (no grid) for a one-level
        # hierarchy; prolongation(n): (P, P^T) from A's next coarser level
        self.A = A
        self.diagonals = self._ldl = None
        # (A_l, JACOBI_WEIGHT / diag(A_l), P, P^T) for every level above the coarsest
        self._levels = []
        while prolongation is not None and A.shape[0] > DIRECT_UNKNOWNS:
            P, PT = prolongation(n)
            self._levels.append((A, JACOBI_WEIGHT / A.diagonal(), P, PT))
            A = (PT @ A @ P).tocsr()
            n = -(-n // 2)
        # the upper band of the coarsest level, ab[kd + i - j, j] = A[i, j] for
        # j >= i, kd its own bandwidth: lexicographic order keeps kd near the
        # grid's row length.  add.at sums the duplicate entries a bare CSR
        # matrix may store, as its products do.
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        upper = A.indices >= rows
        rows, cols = rows[upper], A.indices[upper]
        kd = int((cols - rows).max())
        ab = np.zeros((kd + 1, A.shape[0]), order="F")
        np.add.at(ab, (kd + rows - cols, cols), A.data[upper])
        self._coarsest, info = dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise SolverStagnationError("matrix is not positive definite")

    def solve(self, f: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, SolveStats]:
        """x with ||f - A x||_2 <= tol ||f||_2, else SolverStagnationError.

        ValueError, before any arithmetic, unless tol is finite and > 0 and
        f is a finite vector of A's order.  PCG stops after MAX_PCG_ITERS
        iterations.  If f >= 0 nodewise, the result is checked against the
        discrete comparison principle.
        SolveStats.iterations counts banded solves or PCG steps.  A refined
        banded x is judged and returned in np.longdouble; callers round once.
        Every residual is a double vector r, and its 2-norm, like every
        inner product of PCG, is np.add.reduce of elementwise products
        (_norm, _dot): NumPy's pairwise sum, whose bits do not depend on the
        BLAS thread count, where BLAS ddot splits long vectors across threads.
        """
        check_tol(tol)
        f = np.asarray(f, dtype=float)
        m = self.A.shape[0]
        if f.shape != (m,):
            raise ValueError(f"right-hand side has shape {f.shape}, expected ({m},)")
        if not np.isfinite(f).all():
            raise ValueError("right-hand side has a NaN or inf entry")
        norm_f = _norm(f)
        if norm_f == 0.0:
            return np.zeros(m), SolveStats(0, 0.0)
        target = tol * norm_f
        if self._ldl is None:
            x, iters = self._pcg(f, target)
            r = extended_residual(self.A, f, x)
            norm_r = _norm(r)
        else:
            # the residual at x = 0 is f itself
            x, iters, r, norm_r = np.zeros(m), 0, f, norm_f
            while norm_r > target and iters <= MAX_REFINEMENTS:
                dx, _ = dpttrs(*self._ldl, r)
                # the first solve is x itself; each refinement adds in long double
                x = dx if iters == 0 else np.add(x, dx, dtype=np.longdouble)
                iters += 1
                r = extended_residual(self.A, f, x)
                norm_r = _norm(r)

        rel = norm_r / norm_f
        if not rel <= tol:
            raise SolverStagnationError(
                f"solve stagnated: residual {rel:.3e} > tol {tol:.3e} after {iters} iterations"
            )
        if f.min() >= 0.0:  # x is not empty: f != 0
            floor = -tol * float(np.abs(x).max())
            if float(x.min()) < floor:
                raise ComparisonPrincipleViolationError(
                    f"f >= 0 but min(u) = {x.min():.3e} < {floor:.3e}"
                )
        return x, SolveStats(iters, rel)

    def precondition(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """One symmetric V-cycle from x = 0 on A_level x = r: about A^(-1) r.

        Only for the multigrid (non-tridiagonal) path.
        """
        if level == len(self._levels):
            return dpbtrs(self._coarsest, r)[0]
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
        # The loop tests the updated residual before preconditioning it, so a
        # solve applies exactly one V-cycle per iteration.
        A = self.A
        x = np.zeros(f.shape[0])
        r = f.copy()
        iters = 0
        while _norm(r) > target and iters < MAX_PCG_ITERS:
            z = self.precondition(r)
            rz_new = _dot(r, z)
            p = z if iters == 0 else z + (rz_new / rz) * p
            rz = rz_new
            Ap = A @ p
            pAp = _dot(p, Ap)
            if pAp <= 0.0:
                raise SolverStagnationError("matrix is not positive definite")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            iters += 1
        return x, iters


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # inner product by NumPy's pairwise sum, as spectral._rayleigh: no BLAS
    return float(np.add.reduce(a * b))


def _norm(r: np.ndarray) -> float:
    return math.sqrt(_dot(r, r))


def solve_spd(A: sp.spmatrix, f: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, SolveStats]:
    """One solve of A x = f through a fresh SPDFactor; see SPDFactor.solve."""
    return SPDFactor(A).solve(f, tol)


def _weighted_norm(u: np.ndarray, weight: np.ndarray) -> float:
    # discrete L2 norm of a double field with nodal quadrature weights, e.g.
    # d^(-gamma) h^dim for L2(Omega, d^(-gamma)) by the midpoint rule
    return math.sqrt((u * u * weight).sum())
