"""Uniform tensor grids with exact boundary distance and the Dirichlet Laplacian.

The domain is a 1D interval or a 2D axis-aligned rectangle.  Fields live on
the interior nodes only, in lexicographic order; the homogeneous Dirichlet
boundary value is implicit.  The distance d(x) to the boundary is evaluated
by the exact formula of the continuous domain, never by nearest-node search,
so singular weights d^(-gamma) are well defined at every node where a field
has a value: per axis the wall distance h min(i, n - i) of the i-th
interior node, and d the nearest of them over the tensor grid.  Written so,
d is mirror-symmetric about every midline to the bit (L - x_i rounds
differently from x_(n-i) where h is not a power of 2), and so is every
weight d^(-gamma).

Grid facts live per (shape, n) per process: build_grid hands every caller
of one (shape, n) the same immutable Grid, from a small least-recently-used
store of GRID_CACHE_SIZE grids, so every sweep cell, ladder level, command
and API loop of a process that asks for that grid shares what it caches.
The Dirichlet Laplacian is such a fact: assemble_laplacian builds it on the
first call for a grid, as the kron sum of each axis' tridiag(-1, 2, -1)/h^2
(first axis slowest, no explicit zero), and caches it on that Grid,
read-only, so every layer working on one grid (eigenpair, barriers, their
certificates, the monotone iteration, mu_1, the residual) shares one
matrix.  Shifted operators -lap_h + diag(m), the one operator of every
linear_core.SPDFactor.on_grid on either domain and the one mu_1 is judged
on, reuse its CSR pattern (shifted_laplacian).  No long-double copy is kept: linear_core's residuals
take the double values and convert them inside the call.  The singular weights d^(-gamma) are
grid facts too: power_weight computes each exponent's on its first call
for a grid and caches it there, read-only, keeping the WEIGHT_CACHE_SIZE
most recent exponents, so the forcing, the monotone shift, the barriers
and the norms of one grid share one array per exponent.  Other layers
keep what they derive from the grid alone in Grid._facts:
spectral.dirichlet_eigenpair's closed-form eigenpair and the CLI's
solution.csv row templates, the constant columns x[, y], d rendered as
%.17g (about 40 bytes per node, against 40 to 64 for the Laplacian's
CSR arrays).  The barriers' corner profile H is not cached: it is built
per axis from the eigenpair on each call, as the fits' edge mask is.
Every array a grid hands out is read-only, so no caller can change what
the next one is given.

The mirror fold (mirror_fold) is a grid fact too: the symmetry cell of
the grid (half an interval, a quarter of a rectangle, an eighth of a
square, whose diagonal is a mirror line too), its index maps and orbit
sizes, and the folded Laplacian K = E^T (-lap_h) E, built in closed form
as one triplet list.  The monotone loop and mu_1 run on the cell
(monotone.solve_monotone, spectral.linearized_smallest_eigenvalue,
linear_core.SPDFactor.on_cell), and the barriers mirror their profile
from it; the certificates, mu_1's judgement, Newton, the fits and the
outputs stay on the full grid, and solution.csv formats only the
distinct values of a mirror-symmetric solution.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

GRID_CACHE_SIZE = 8  # shared grids kept per process, least recently used dropped first
WEIGHT_CACHE_SIZE = 16  # exponents of d^(-gamma) kept per grid, oldest dropped first


class InvalidResolutionError(ValueError):
    """Raised when a grid is requested with a non-integer number of
    subdivisions, or with fewer than 2."""


@dataclass(frozen=True)
class DomainShape:
    """Geometry of the domain: an interval (1D) or a rectangle (2D).

    extents holds the side lengths: (length,) for an interval,
    (width, height) for a rectangle.  All extents must be positive.
    """

    extents: tuple[float, ...]

    def __post_init__(self):
        if len(self.extents) not in (1, 2):
            raise ValueError(f"need 1 or 2 extents, got {len(self.extents)}")
        if any(not np.isfinite(e) or e <= 0 for e in self.extents):
            raise ValueError(f"extents must be positive finite, got {self.extents}")

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def diameter(self) -> float:
        return float(np.sqrt(sum(e * e for e in self.extents)))


def interval(length: float = 1.0) -> DomainShape:
    """Interval (0, length)."""
    return DomainShape((float(length),))


def rectangle(width: float = 1.0, height: float = 1.0) -> DomainShape:
    """Rectangle (0, width) x (0, height)."""
    return DomainShape((float(width), float(height)))


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid over a DomainShape.

    Attributes:
        shape: the continuous domain.
        n: number of subdivisions per axis (same n on every axis).
        h: spacing per axis, extent/n.
        axes: 1D arrays of interior coordinates per axis, each of length n-1.
        d: exact distance to the boundary at each interior node, in
           lexicographic (first-axis-major) order.

    build_grid shares one Grid per (shape, n) per process (module
    docstring), so grids compare and hash by identity.  The grid caches its
    Laplacian once assembled (assemble_laplacian) with its diagonal
    positions, its mirror fold (mirror_fold), the most recent weights
    d^(-gamma) (power_weight), and in _facts the closed-form eigenpair
    (spectral.dirichlet_eigenpair) and the solution.csv row templates, so
    each is computed once per (shape, n) while the grid is held.  Every
    array it hands out, axes and d included, is read-only.
    """

    shape: DomainShape
    n: int
    h: tuple[float, ...]
    axes: tuple[np.ndarray, ...]
    d: np.ndarray

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def num_interior(self) -> int:
        # d holds one entry per interior node
        return self.d.size

    @property
    def cell_volume(self) -> float:
        """Midpoint-rule quadrature weight: h (1D) or hx*hy (2D) per node."""
        return math.prod(self.h)

    def points(self) -> np.ndarray:
        """All interior node coordinates, shape (num_interior, dim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def check_field(self, u: np.ndarray) -> np.ndarray:
        """Validate a nodal field (its shape, and finite: the package's one
        NaN/inf check, _checked_field) and return it as a float array."""
        return _checked_field(u, self.num_interior)

    def check_positive(self, u: np.ndarray) -> np.ndarray:
        """check_field, then every entry > 0: the one positivity check."""
        u = self.check_field(u)
        if u.min() <= 0.0:
            raise ValueError("field must be positive nodewise")
        return u

    @functools.cached_property
    def _laplacian(self) -> sp.csr_array:
        lap = _assemble(self)
        for arr in (lap.data, lap.indices, lap.indptr):
            arr.setflags(write=False)
        return lap

    @functools.cached_property
    def _weights(self) -> dict[float, np.ndarray]:
        # power_weight's arrays, by exponent, oldest first
        return {}

    @functools.cached_property
    def _facts(self) -> dict:
        # what other layers derive from the grid alone, by name: "eigenpair"
        # (spectral.dirichlet_eigenpair) and "csv_templates" (cli's
        # solution.csv rows)
        return {}

    @functools.cached_property
    def _diagonal_positions(self) -> np.ndarray:
        return _diagonal_positions(self._laplacian)

    @functools.cached_property
    def _fold(self) -> MirrorFold:
        return _build_fold(self)


@dataclass(frozen=True, eq=False)
class MirrorFold:
    """A grid's mirror-symmetry cell (mirror_fold): the interior nodes with
    index i <= n/2 on every axis (1-based), half an interval and the
    lower-left quarter of a rectangle, in lexicographic order.  On a square
    (a 2D grid with h[0] == h[1]) the diagonal x <-> y is a mirror line too,
    and the cell is the quarter's nodes with i <= j: c(c + 1)/2 nodes,
    c = n // 2, an eighth of the grid.

    Attributes:
        idx: each interior node's cell node, the one its orbit under the
            mirrors has in the cell.  The expansion E of a cell field v is
            v[idx], and E^T E = diag(w).
        rep: each cell node's lower-left representative, a grid index.
        w: the size of each cell node's orbit, a product of 1 or 2 per
            axis (1 on a midline that falls on nodes, at even n), doubled
            off the diagonal of a square: a power of 2 up to 8.
        n, h: the grid's subdivisions and spacings per axis.

    K, the folded Laplacian, is built on first use: the barriers mirror
    their profile by idx and rep alone.  Every array is read-only.
    """

    idx: np.ndarray
    rep: np.ndarray
    w: np.ndarray
    n: int
    h: tuple[float, ...]

    @property
    def diagonal(self) -> bool:
        """Whether the cell is folded by the diagonal too (a square)."""
        return _is_square(self.h)

    @functools.cached_property
    def K(self) -> sp.csr_array:
        """E^T (-lap_h) E, a symmetric M-matrix: on mirror-symmetric fields
        u = E v, -lap_h u = F(u) is K v = diag(w) F(v).

        Per axis, the fold of tridiag(-1, 2, -1)/h^2 is
        tridiag(-2, 4, -2)/h^2 with 2 in its last diagonal entry at either
        parity (even n: the midline node is its own orbit; odd n: the two
        nodes beside the midline couple), and the quarter's K_q is the fold
        of the kron sum, K_x (x) W_y + W_x (x) K_y, first axis slowest, each
        entry rounded as scipy's kron sum of the per-axis folds rounds it.
        On a square K = S^T K_q S, S the 0/1 expansion from the eighth to
        the quarter: each entry sums one or two equal entries of K_q (the
        five-point stencil couples no node to its own diagonal image), so
        it is exact.  Both are one triplet-to-CSR build: the quarter's
        entries with their rows and columns mapped to the cell.  4/h^2 and
        -2/h^2 are twice 2/h^2 and -1/h^2 in floating point too, so K holds
        the fold's sums to the bit on intervals, squares and
        rectangle(2, 0.5); on other aspect ratios a diagonal entry, rounded
        once here where the triple product sums A's rounded diagonal, may
        differ in its last bit.
        """
        _, w1 = axis_mirror(self.n)
        c, dim = w1.size, len(self.h)
        nodes = np.arange(c**dim).reshape((c,) * dim)
        weights = np.meshgrid(*[w1] * dim, indexing="ij")
        diag, lows, highs, offs = 0.0, [], [], []
        for axis, h in enumerate(self.h):
            # scipy's sparse division by h^2 multiplies by its reciprocal
            scale = 1 / h**2
            main = np.full(c, 4.0)
            main[-1] = 2.0
            # the orbit sizes along the other axes, 1.0 on an interval
            other = math.prod(weights[:axis] + weights[axis + 1 :]) * np.ones((c,) * dim)
            shape = [1] * dim
            shape[axis] = c
            diag = diag + (main * scale).reshape(shape) * other
            # each node and its successor along the axis
            first = [slice(None)] * dim
            second = [slice(None)] * dim
            first[axis], second[axis] = slice(0, c - 1), slice(1, c)
            lows.append(nodes[tuple(first)].ravel())
            highs.append(nodes[tuple(second)].ravel())
            offs.append((-2.0 * scale) * other[tuple(first)].ravel())
        # the couplings by column offset, below the diagonal first axis first
        # and above it last axis first, so that each row's columns come in
        # order and the CSR build need not sort them.  int32 indices, as
        # scipy's kron gave them: a cell with 2^31 nodes would not fit in
        # memory anyway
        rows = np.concatenate([*highs, nodes.ravel(), *lows[::-1]], dtype=np.int32)
        cols = np.concatenate([*lows, nodes.ravel(), *highs[::-1]], dtype=np.int32)
        vals = np.concatenate([*offs, np.ravel(diag), *offs[::-1]])
        if self.diagonal:
            # each quarter node's cell node, where the CSR build sums the
            # pairs of equal entries that land on one cell entry
            cell = self.idx[_quarter(self.n, dim)].astype(np.int32)
            rows, cols = cell[rows], cell[cols]
        size = self.w.size
        K = sp.csr_array((vals, (rows, cols)), shape=(size, size))
        for arr in (K.data, K.indices, K.indptr):
            arr.setflags(write=False)
        return K

    @functools.cached_property
    def diagonal_positions(self) -> np.ndarray:
        """Index into K.data of each row's diagonal entry."""
        return _diagonal_positions(self.K)

    def shifted(self, m: np.ndarray) -> sp.csr_array:
        """K + diag(m) on K's pattern, as shifted_laplacian on the grid.

        ValueError unless m is a finite cell field (_checked_field).
        """
        return _shifted(self.K, self.diagonal_positions, _checked_field(m, self.w.size))

    def orbit_reduce(self, u: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """ufunc (np.maximum, np.minimum) of a grid field u over each cell
        node's orbit: u[rep] itself for a mirror-symmetric u."""
        out = u[self.rep]
        ufunc.at(out, self.idx, u)
        return out


def build_grid(shape: DomainShape, n: int) -> Grid:
    """Uniform grid with n subdivisions (n-1 interior nodes) per axis.

    Raises InvalidResolutionError for an n that is not an integer (a float
    such as 64.9 or 64.0 included) and for n < 2, before any lookup.  A
    valid (shape, n) requested before in the process returns the same Grid
    while it is among the GRID_CACHE_SIZE most recently requested.
    """
    if not isinstance(n, numbers.Integral):
        raise InvalidResolutionError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise InvalidResolutionError(f"need n >= 2 subdivisions, got n={n}")
    return _shared_grid(shape, n)


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def _shared_grid(shape: DomainShape, n: int) -> Grid:
    # build_grid past its checks, n a plain int
    h = tuple(e / n for e in shape.extents)
    axes = tuple(hi * np.arange(1, n) for hi in h)
    # d is the nearest of the per-axis wall distances, first axis slowest
    # h min(i, n - i), exactly mirror-symmetric: L - x_i differs from x_(n-i)
    # in its last bits where h is not a power of 2
    walls = [hi * np.minimum(np.arange(1, n), np.arange(n - 1, 0, -1)) for hi in h]
    d = np.minimum.reduce(np.meshgrid(*walls, indexing="ij")).ravel()
    for arr in (*axes, d):
        arr.setflags(write=False)
    return Grid(shape=shape, n=n, h=h, axes=axes, d=d)


def _assemble(grid: Grid) -> sp.csr_array:
    # -lap_h as the kron sum of each axis' tridiag(-1, 2, -1)/h_a^2, first axis
    # slowest, without the explicit zeros the sum stores on the unit square at n=3
    t = [sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(m, m), format="csr") / h**2
         for m, h in zip(grid.interior_shape, grid.h)]
    lap = functools.reduce(lambda a, b: sp.kronsum(b, a, format="csr"), t)
    lap.eliminate_zeros()
    return lap


def assemble_laplacian(grid: Grid) -> sp.csr_array:
    """Discrete negative Laplacian -lap_h with eliminated Dirichlet rows.

    Standard 3-point (1D) or 5-point (2D) stencil scaled by 1/h^2 per axis.
    The result is a symmetric positive definite M-matrix, which is what makes
    the discrete comparison principle available downstream.  It is assembled
    on the first call for a grid and cached on the grid: later calls return
    the same matrix, whose data, indices and indptr are read-only.
    """
    return grid._laplacian


def _checked_field(u: np.ndarray, size: int) -> np.ndarray:
    # u as a float array, unless its shape is not (size,) or an entry is
    # NaN or inf: the one NaN/inf check of a grid or cell field
    u = np.asarray(u, dtype=float)
    if u.shape != (size,):
        raise ValueError(f"field has shape {u.shape}, expected ({size},)")
    if not np.isfinite(u).all():
        raise ValueError("field has a NaN or inf entry")
    return u


def _diagonal_positions(A: sp.csr_array) -> np.ndarray:
    # index into A.data of each row's diagonal entry
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    pos = np.flatnonzero(A.indices == rows)
    pos.setflags(write=False)
    return pos


def axis_mirror(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, w) of one axis of n subdivisions: the cell node of each of its
    n - 1 interior nodes, i -> min(i, n - i) (1-based), and the orbit size
    of each of its n // 2 cell nodes, 2 but 1 on the midline node of an
    even n."""
    i = np.arange(n - 1)
    w = np.full(n // 2, 2.0)
    if n % 2 == 0:
        w[-1] = 1.0
    return np.minimum(i, n - 2 - i), w


def diagonal_mirror(c: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, rep) of the diagonal mirror of a c x c quarter cell, in
    lexicographic order: the eighth-cell node of each of its c * c nodes,
    (a, b) -> (min(a, b), max(a, b)), and the quarter index of each of the
    c(c + 1)/2 eighth-cell nodes (a, b), a <= b."""
    a, b = np.divmod(np.arange(c * c), c)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # the rows before lo hold c + (c - 1) + ... + (c - lo + 1) nodes
    return lo * c - lo * (lo - 1) // 2 + hi - lo, np.flatnonzero(a <= b)


def _is_square(h: tuple[float, ...]) -> bool:
    # a 2D grid with equal spacings: its diagonal is a mirror line
    return len(h) == 2 and h[0] == h[1]


def _quarter(n: int, dim: int) -> np.ndarray:
    # the grid index of each node of the midline fold's cell, first axis slowest
    rep = np.zeros(1, dtype=np.intp)
    for _ in range(dim):
        rep = np.add.outer(rep * (n - 1), np.arange(n // 2)).ravel()
    return rep


def _build_fold(grid: Grid) -> MirrorFold:
    # the midline fold's index maps, per axis, first axis slowest; on a
    # square composed with the diagonal mirror
    n = grid.n
    idx1, w1 = axis_mirror(n)
    idx, w = np.zeros(1, dtype=np.intp), np.ones(1)
    for _ in grid.h:
        idx = np.add.outer(idx * w1.size, idx1).ravel()
        w = np.multiply.outer(w, w1).ravel()
    rep = _quarter(n, grid.dim)
    if _is_square(grid.h):
        idx_d, rep_d = diagonal_mirror(w1.size)
        # an off-diagonal orbit joins the quarter orbit of the node's image
        idx, rep, w = idx_d[idx], rep[rep_d], np.bincount(idx_d, weights=w)
    for arr in (idx, rep, w):
        arr.setflags(write=False)
    return MirrorFold(idx=idx, rep=rep, w=w, n=n, h=grid.h)


def mirror_fold(grid: Grid) -> MirrorFold:
    """The grid's mirror-symmetry cell and folded Laplacian (MirrorFold).

    d and every weight d^(-gamma) are mirror-symmetric to the bit
    (build_grid), and on a square symmetric about the diagonal too (d is a
    minimum over identical per-axis wall distances), so F(E v) = E F(v) on
    the cell.  Built on the first call for a grid and cached on it, K on
    its first use: later calls return the same MirrorFold.
    """
    return grid._fold


def _shifted(A: sp.csr_array, pos: np.ndarray, m: np.ndarray) -> sp.csr_array:
    # A + diag(m) for the CSR matrix A with diagonal entries at A.data[pos]:
    # a shallow copy sharing A's read-only indices and indptr, data its own
    shifted = copy.copy(A)
    shifted.data = shifted.data.copy()
    shifted.data[pos] += m
    return shifted


def shifted_laplacian(grid: Grid, m: np.ndarray) -> sp.csr_array:
    """-lap_h + diag(m), built on the pattern of the grid's cached Laplacian.

    m is added at the diagonal positions of the Laplacian's CSR data, so the
    result equals assemble_laplacian(grid) + sp.diags_array(m) entry for
    entry without a sparse sum.  It is a shallow copy of the Laplacian,
    sharing its read-only indices and indptr, with data of its own: 4 us,
    where csr_array's constructor re-checks the pattern in 29 us (timeit,
    2-vCPU Xeon VM, SciPy 1.17.1), once per monotone or Newton step.
    """
    return _shifted(grid._laplacian, grid._diagonal_positions, grid.check_field(m))


def power_weight(grid: Grid, gamma: float) -> np.ndarray:
    """Nodal weight d(x)^(-gamma); finite and positive at interior nodes.

    Computed on the first call for a grid and exponent and cached on the
    grid: later calls return the same read-only array while the exponent is
    among the grid's WEIGHT_CACHE_SIZE most recent ones, and an equal one
    after.
    """
    gamma = float(gamma)
    weights = grid._weights
    weight = weights.get(gamma)
    if weight is None:
        if len(weights) >= WEIGHT_CACHE_SIZE:
            del weights[next(iter(weights))]
        weight = weights[gamma] = grid.d ** (-gamma)
        weight.setflags(write=False)
    return weight

