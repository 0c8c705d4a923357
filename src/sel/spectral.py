"""The nonlinearity, its slope, and the principal eigenpairs.

_forcing is the one evaluation of F(u) = d^(-beta) u^(-alpha), monotone_shift
of m = -F'(u).  The principal eigenpair of -lap_h on the uniform tensor grid
is in closed form (dirichlet_eigenpair); -lap_h + m has none.  For a
mirror-symmetric m, as every solve_monotone limit's is, its smallest
eigenvalue mu_1 is that of the mirror cell's generalized problem
(K + diag(w m_c)) x = mu diag(w) x (linearized_smallest_eigenvalue), from
linear_core.SPDFactor.on_cell by its route: W-weighted shifted inverse
iteration on an interval's LDL^T kernel (LAPACK dpttrf/dpttrs), and on
rectangles a single-vector LOBPCG of our own (_lobpcg) with B = diag(w) and
the cell's V-cycle.  Any other m is solved on the full grid, from
SPDFactor.on_grid by the same routes unweighted, and so is a bare matrix
(principal_eigenpair: SPDFactor(A)'s route).  Every eigenvector is judged
on the full grid's (or the bare) CSR operator.  Every inner product, in
the kernels and the judge, is a NumPy pairwise sum in place of a BLAS dot
product, so no eigenpair's bits depend on the BLAS thread count.
The operators are SPD M-matrices, so the principal eigenvector is positive
(discrete Perron-Frobenius), which is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import Grid, assemble_laplacian, mirror_fold, power_weight, shifted_laplacian
from .linear_core import SPDFactor, SolverFailure, _dot, check_tol

# An eigenpair exact to rounding still has a 2-norm residual of a few
# eps * ||A||_inf (which grows like n^2); the residual check allows this many.
ROUNDOFF_UNITS = 16
MAX_LOBPCG_ITERS = 100  # LOBPCG steps per eigenvector; a V-cycle keeps them at 10-12
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
    route: a tridiagonal A by inverse iteration on its LDL^T, else LOBPCG
    with one direct banded Cholesky level in A's own bandwidth (README)."""
    return _eigenpair(SPDFactor(A), tol)


def _eigenpair(factor: SPDFactor, tol: float) -> EigenPair:
    """Smallest eigenvalue and positive eigenvector of factor's SPD M-matrix A.

    The eigenvector comes from _eigenvector on factor's route, and is judged
    on A itself (_judged).  The floor of the gate is
    ROUNDOFF_UNITS * eps * ||A||_inf: each row's |entries| summed in stored
    order (_inf_norm), the bits of scipy.sparse.linalg.norm(A, np.inf) at a
    quarter of its cost; a banded factor sums its diagonals in that order
    (_banded_inf_norm).  ValueError, before any eigensolve, unless tol is
    finite and > 0.
    """
    check_tol(tol)
    banded = factor.diagonals is not None
    norm_inf = _banded_inf_norm(*factor.diagonals) if banded else _inf_norm(factor.A)
    floor = ROUNDOFF_UNITS * np.finfo(float).eps * norm_inf
    return _judged(factor.A, _eigenvector(factor, tol, floor), tol, floor)


def _eigenvector(
    factor: SPDFactor, tol: float, floor: float, w: np.ndarray | None = None
) -> np.ndarray:
    """Sup-normalized principal eigenvector of A x = lambda x, factor's A, or
    with w of the generalized A x = lambda diag(w) x, w > 0: a banded factor
    (factor.diagonals) by _inverse_iteration on its LDL^T kernel, any other
    by _lobpcg with factor.precondition."""
    if factor.diagonals is not None:
        return _inverse_iteration(factor, tol, floor, w)
    return _lobpcg(factor, tol, floor, w)


def _lobpcg(
    factor: SPDFactor, tol: float, floor: float, w: np.ndarray | None = None
) -> np.ndarray:
    """Sup-normalized principal eigenvector of A x = lambda W x, factor's A
    and W = diag(w) (the identity without w), by single-vector LOBPCG
    (Knyazev, SIAM J. Sci. Comput. 23, 2001) from the constant vector, so
    results are deterministic.

    Each step is a Rayleigh-Ritz (_ritz) on the basis [x, T r, p]: T is
    factor.precondition, one V-cycle ~ A^(-1) r (or, on a one-level
    hierarchy, the exact banded Cholesky solve A^(-1) r),
    r = A x - lambda W x at the Rayleigh quotient lambda, and p the part of
    the last update outside x.  Each new direction is W-orthonormalized
    against x.  A x is a fresh product every step; A p is carried along.
    The steps stop once ||r||_2 / ||x||_W <= half of max(tol * lambda,
    floor), or after MAX_LOBPCG_ITERS of them; the caller judges the vector
    returned (_judged).  With w that residual is at least
    ||W^(-1) A x - lambda x||_W / ||x||_W as w >= 1: on a mirror cell
    (linearized_smallest_eigenvalue) the full grid's 2-norm residual of the
    expanded vector, which so meets the gate too.  A cell of one unknown
    has r = 0 and returns at once.
    """
    A = factor.A
    x = np.ones(A.shape[0])
    p = ap = None
    for _ in range(MAX_LOBPCG_ITERS):
        ax = A @ x
        wx = x if w is None else w * x
        xwx = _dot(x, wx)
        lam = _dot(x, ax) / xwx
        r = ax - lam * wx
        if math.sqrt(_dot(r, r) / xwx) <= 0.5 * max(tol * lam, floor):
            break
        z = factor.precondition(r)
        basis = [(x, ax, wx)]  # each vector with its A- and W-images
        for v, av in [(z, A @ z)] if p is None else [(z, A @ z), (p, ap)]:
            c = _dot(wx, v) / xwx
            v, av = v - c * x, av - c * ax
            wv = v if w is None else w * v
            s = 1.0 / math.sqrt(_dot(v, wv))
            basis.append((s * v, s * av, s * wv))
        y = _ritz(basis)  # 2 coefficients where p was dropped
        p = sum(c * v for c, (v, _, _) in zip(y[1:], basis[1:]))
        ap = sum(c * av for c, (_, av, _) in zip(y[1:], basis[1:]))
        x = y[0] * x + p
    return x / x[np.argmax(np.abs(x))]


def _ritz(basis: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Coefficients y, y^T G_W y = 1, of the smallest Ritz pair of
    G_A y = theta G_W y on the basis's 2 or 3 (vector, A-image, W-image)
    triples: G_A = S^T A S and G_W = S^T W S by pairwise sums (_dot), the
    pencil solved by scipy.linalg.eigh (LAPACK dsygvd).  A G_W that is not
    positive definite drops the third vector (p); without it,
    EigenNonConvergenceError."""
    k = len(basis)
    gram_a = np.empty((k, k))
    gram_w = np.empty((k, k))
    for i, (v, _, _) in enumerate(basis):
        for j in range(i, k):
            _, av, wv = basis[j]
            gram_a[i, j] = gram_a[j, i] = _dot(v, av)
            gram_w[i, j] = gram_w[j, i] = _dot(v, wv)
    try:
        # the entries are finite: A and W are checked where they are made
        _, vecs = scipy.linalg.eigh(gram_a, gram_w, check_finite=False)
    except np.linalg.LinAlgError as exc:
        if k == 3:
            return _ritz(basis[:2])
        raise EigenNonConvergenceError(f"LOBPCG broke down: {exc}") from exc
    return vecs[:, 0]


def _judged(A: sp.csr_array, x: np.ndarray, tol: float, floor: float) -> EigenPair:
    """The EigenPair of A's eigenvector x: its value is the Rayleigh quotient
    of x on A (_rayleigh), which squares the eigenvector's error.  Unless
    ||A x - lambda x||_2 / ||x||_2 <= max(tol * lambda, floor) and x > 0:
    EigenNonConvergenceError."""
    lam, resid = _rayleigh(A, x)
    limit = max(tol * lam, floor)
    if not resid <= limit:
        raise EigenNonConvergenceError(f"eigen-residual {resid:.3e} > {limit:.3e}")
    if x.min() <= 0.0:
        raise EigenNonConvergenceError("principal eigenvector is not strictly positive")
    return EigenPair(value=lam, field=x, residual=resid)


def _inf_norm(A: sp.csr_array) -> float:
    # ||A||_inf: each row's |entries| summed in stored order
    return float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())


def _banded_inf_norm(diag: np.ndarray, off: np.ndarray) -> float:
    """||A||_inf of the symmetric tridiagonal A = (diag, off), each row
    summed in CSR stored order, (|e_(i-1)| + |d_i|) + |e_i|: the bits of
    np.add.reduceat over A's rows, without A's index arrays."""
    rows = np.abs(diag)
    e = np.abs(off)
    rows[1:] = e + rows[1:]
    rows[:-1] += e
    return float(rows.max())


def _rayleigh(
    A: sp.csr_array, x: np.ndarray, w: np.ndarray | None = None
) -> tuple[float, float]:
    """Rayleigh quotient of x on A, and ||A x - lambda x||_2 / ||x||_2.

    With w, those of the generalized A x = lambda diag(w) x in the W-norm:
    x^T A x / x^T W x and ||W^(-1) A x - lambda x||_W / ||x||_W.  On a
    mirror cell (A = K + diag(w m), w the orbit sizes) they are the full
    grid's of the expanded vector E x, in exact arithmetic.

    Every inner product is np.add.reduce of elementwise products, NumPy's
    pairwise sum: BLAS ddot splits long vectors across its threads, so its
    bits would depend on the thread count.
    """
    ax = A @ x
    if w is None:
        xx = np.add.reduce(x * x)
        lam = float(np.add.reduce(x * ax) / xx)
        r = ax - lam * x
        return lam, math.sqrt(np.add.reduce(r * r)) / math.sqrt(xx)
    wx = w * x
    xx = np.add.reduce(x * wx)
    lam = float(np.add.reduce(x * ax) / xx)
    r = ax - lam * wx
    return lam, math.sqrt(np.add.reduce(r * r / w)) / math.sqrt(xx)


def _inverse_iteration(
    factor: SPDFactor, tol: float, floor: float, w: np.ndarray | None = None
) -> np.ndarray:
    """Sup-normalized principal eigenvector of a banded factor's A by shifted
    inverse iteration; with w, of A x = lambda diag(w) x (_eigenvector).

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
    They stop once the residual (_rayleigh) is within the gate
    max(tol * lambda, floor) and has stopped halving, i.e. has reached its
    rounding floor, or after MAX_INVERSE_ITERS solves; the caller judges
    the vector returned (_judged).
    With w every solve takes W y for y, x <- (A - sigma W)^(-1) W x, the
    residual is _rayleigh's in the W-norm, and the bracket holds for
    W^(-1) A, whose inverse A^(-1) W is positive too.
    """
    diag, off = factor.diagonals
    if (off >= 0.0).any():
        raise EigenNonConvergenceError("principal eigenvector is not strictly positive")
    x = np.ones(diag.size)
    for _ in range(2):
        y = x
        x = dpttrs(*factor._ldl, y if w is None else w * y)[0]
        sigma = float((y / x).min())
        x /= x.max()
    shifted = diag - (sigma if w is None else sigma * w)
    # the f2py wrappers reject an empty off-diagonal: one unknown gets a dummy 0
    d, e, info = dpttrf(shifted, off if off.size else np.zeros(1))
    # sigma is a lower bound of lambda in exact arithmetic only: A - sigma I
    # (or W) may fail to factor, and then the unshifted LDL^T iterates
    ldl = (d, e) if info == 0 else factor._ldl
    lam, resid = _rayleigh(factor.A, x, w)
    prev = math.inf
    for _ in range(MAX_INVERSE_ITERS):
        # a zero residual is exact
        if resid <= max(tol * lam, floor) and not 0.0 < resid < 0.5 * prev:
            break
        prev = resid
        x = dpttrs(*ldl, x if w is None else w * x)[0]
        x /= x.max()
        lam, resid = _rayleigh(factor.A, x, w)
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
    """Smallest eigenvalue mu_1 of A = -lap_h + diag(m), m =
    monotone_shift(grid, u, alpha, beta).

    The potential is nonnegative for u > 0, so mu_1 >= lambda_1 > 0: the
    converged solutions of the nonlinear problem are linearly stable, and
    this is the quantity that certifies it.

    A mirror-symmetric m (to the bit, as that of every solve_monotone
    limit) is solved on the grid's mirror cell (grid.mirror_fold, an
    eighth of a square): A is an irreducible M-matrix that commutes with
    the cell's mirrors (the midlines, and a square's diagonal), so its
    principal eigenvector is simple and symmetric, E x, and mu_1 is the
    smallest eigenvalue of the cell's (K + diag(w m_c)) x = mu diag(w) x,
    m_c = m[rep].  _eigenvector solves it on SPDFactor.on_cell's route
    (W-weighted inverse iteration on an interval's LDL^T kernel, _lobpcg
    with B = diag(w) and the cell V-cycle on a rectangle), and E x is
    judged on the full grid's A as _eigenpair judges (_judged, the floor
    from A's ||A||_inf): the value, residual and field are A's.  Any other
    m is solved on the full grid, _eigenpair of SPDFactor.on_grid.
    ValueError unless u passes grid.check_positive, and, before any
    eigensolve, unless tol is finite and > 0.
    """
    m = monotone_shift(grid, u, alpha, beta)
    fold = mirror_fold(grid)
    m_c = m[fold.rep]
    if not np.array_equal(m_c[fold.idx], m):
        return _eigenpair(SPDFactor.on_grid(grid, m), tol)
    check_tol(tol)
    A = shifted_laplacian(grid, m)
    if grid.dim == 1:  # the banded sum, as on the full grid's banded route
        pos = grid._diagonal_positions
        norm_inf = _banded_inf_norm(A.data[pos], A.data[pos[:-1] + 1])
    else:
        norm_inf = _inf_norm(A)
    floor = ROUNDOFF_UNITS * np.finfo(float).eps * norm_inf
    x = _eigenvector(SPDFactor.on_cell(grid, fold.w * m_c), tol, floor, fold.w)
    return _judged(A, x[fold.idx], tol, floor)
