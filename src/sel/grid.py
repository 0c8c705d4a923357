"""Uniform tensor grids with exact boundary distance and the Dirichlet Laplacian.

The domain is a 1D interval or a 2D axis-aligned rectangle.  Fields live on
the interior nodes only, in lexicographic order; the homogeneous Dirichlet
boundary value is implicit.  The distance d(x) to the boundary is evaluated
by the exact formula of the continuous domain, never by nearest-node search,
so singular weights d^(-gamma) are well defined at every node where a field
has a value: per axis the wall distance min(x_i, L_i - x_i) of the interior
coordinates, and d the nearest of them over the tensor grid.

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
linear_core.SPDFactor.on_grid on either domain, reuse its CSR pattern
(shifted_laplacian).  No long-double copy is kept: linear_core's residuals
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
    positions, the most recent weights d^(-gamma) (power_weight), and in
    _facts the closed-form eigenpair (spectral.dirichlet_eigenpair) and the
    solution.csv row templates, so each is computed once per (shape, n)
    while the grid is held.  Every array it hands out, axes and d included,
    is read-only.
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
        NaN/inf check) and return it as a float array."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.num_interior,):
            raise ValueError(f"field has shape {u.shape}, expected ({self.num_interior},)")
        if not np.isfinite(u).all():
            raise ValueError("field has a NaN or inf entry")
        return u

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
        # index into _laplacian.data of each row's diagonal entry
        lap = self._laplacian
        rows = np.repeat(np.arange(lap.shape[0]), np.diff(lap.indptr))
        pos = np.flatnonzero(lap.indices == rows)
        pos.setflags(write=False)
        return pos


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
    walls = [np.minimum(ax, length - ax) for ax, length in zip(axes, shape.extents)]
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


def shifted_laplacian(grid: Grid, m: np.ndarray) -> sp.csr_array:
    """-lap_h + diag(m), built on the pattern of the grid's cached Laplacian.

    m is added at the diagonal positions of the Laplacian's CSR data, so the
    result equals assemble_laplacian(grid) + sp.diags_array(m) entry for
    entry without a sparse sum.  It is a shallow copy of the Laplacian,
    sharing its read-only indices and indptr, with data of its own: 4 us,
    where csr_array's constructor re-checks the pattern in 29 us (timeit,
    2-vCPU Xeon VM, SciPy 1.17.1), once per monotone or Newton step.
    """
    shifted = copy.copy(grid._laplacian)
    shifted.data = shifted.data.copy()
    shifted.data[grid._diagonal_positions] += grid.check_field(m)
    return shifted


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

