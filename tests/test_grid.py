import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sel import grid as grid_module
from sel.analysis import (
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    gradient_integral,
    sobolev_integral,
    uniqueness_identity,
)
from sel.barriers import build_barrier_pair, resolve_regime, verify_barrier
from sel.grid import (
    GRID_CACHE_SIZE,
    WEIGHT_CACHE_SIZE,
    DomainShape,
    InvalidResolutionError,
    assemble_laplacian,
    build_grid,
    interval,
    mirror_fold,
    power_weight,
    rectangle,
    shifted_laplacian,
)
from sel.linear_core import SPDFactor
from sel.monotone import iterate_step, residual
from sel.oracle import newton_solve
from sel.spectral import dirichlet_eigenpair, linearized_smallest_eigenvalue, monotone_shift


def test_interval_grid_basics():
    g = build_grid(interval(1.0), 4)
    assert g.h == (0.25,)
    np.testing.assert_allclose(g.axes[0], [0.25, 0.5, 0.75])
    np.testing.assert_allclose(g.d, [0.25, 0.5, 0.25])


def test_rectangle_distance_is_min_over_edges():
    g = build_grid(rectangle(1.0, 1.0), 4)
    pts = g.points()
    idx = np.where((pts[:, 0] == 0.25) & (pts[:, 1] == 0.5))[0][0]
    assert g.d[idx] == 0.25
    expected = np.minimum.reduce([pts[:, 0], 1 - pts[:, 0], pts[:, 1], 1 - pts[:, 1]])
    np.testing.assert_array_equal(g.d, expected)


@pytest.mark.parametrize("n", [2, 3, 7, 64, 257])
@pytest.mark.parametrize(
    "shape", [interval(), interval(2.5), rectangle(), rectangle(2, 0.5), rectangle(0.3, 7)],
    ids=lambda s: "x".join(f"{e:g}" for e in s.extents),
)
def test_distance_matches_per_dimension_formula(shape, n):
    # the distance to the nearest end (1D) or edge (2D), written out per
    # dimension as h min(i, n - i), mirror-symmetric to the bit; L - x rounds
    # differently where h is not a power of 2, and agrees to the rounding of
    # the coordinates
    g = build_grid(shape, n)
    pts = g.points()
    i = np.arange(1, n)
    walls = [h * np.minimum(i, n - i) for h in g.h]
    if shape.dim == 1:
        (length,) = shape.extents
        expected = walls[0]
        geometric = np.minimum(pts[:, 0], length - pts[:, 0])
    else:
        width, height = shape.extents
        x, y = pts[:, 0], pts[:, 1]
        expected = np.minimum.outer(*walls).ravel()
        geometric = np.minimum.reduce([x, width - x, y, height - y])
    assert np.array_equal(g.d, expected)
    np.testing.assert_allclose(g.d, geometric, rtol=0, atol=4 * np.finfo(float).eps * max(shape.extents))


def test_degenerate_resolution_rejected():
    with pytest.raises(InvalidResolutionError):
        build_grid(interval(1.0), 1)


@pytest.mark.parametrize("n", [64.9, 64.0, np.float64(8.0)])
def test_non_integer_resolution_rejected(n):
    # never truncated to a nearby grid, and 64.0 is no exception
    with pytest.raises(InvalidResolutionError, match="n must be an integer"):
        build_grid(interval(1.0), n)


def test_integer_resolution_of_any_integer_type_accepted():
    g = build_grid(interval(1.0), np.int64(8))
    assert g.n == 8 and type(g.n) is int


@pytest.mark.parametrize("shape", [interval(), rectangle()], ids=["interval", "rectangle"])
def test_check_field_rejects_a_wrongly_shaped_field(shape):
    g = build_grid(shape, 4)
    with pytest.raises(ValueError, match="field has shape"):
        g.check_field(np.ones(g.num_interior + 1))
    with pytest.raises(ValueError, match="field has shape"):
        g.check_field(np.ones((g.num_interior, 1)))


@pytest.mark.parametrize("n", [2, 3, 64])
@pytest.mark.parametrize("shape", [interval(), rectangle(2.0, 0.5)], ids=["interval", "2x0.5"])
def test_grid_sizes_are_exact(shape, n):
    # the sizes equal the products they stand for, bitwise
    g = build_grid(shape, n)
    assert type(g.num_interior) is int
    assert g.num_interior == g.d.size == math.prod(g.interior_shape)
    assert g.cell_volume.hex() == float(np.prod(g.h)).hex()


def test_bad_domain_shapes_rejected():
    with pytest.raises(ValueError):
        DomainShape(())
    with pytest.raises(ValueError):
        DomainShape((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        DomainShape((1.0, -2.0))
    with pytest.raises(ValueError):
        DomainShape((float("nan"),))


def test_laplacian_1d_stencil():
    a = assemble_laplacian(build_grid(interval(1.0), 4)).toarray()
    expected = np.array([[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]])
    np.testing.assert_array_equal(a, expected)


def test_laplacian_smallest_eigenvalue_closed_form():
    g = build_grid(interval(1.0), 4)
    lam = scipy.linalg.eigvalsh(assemble_laplacian(g).toarray())[0]
    h = g.h[0]
    assert lam == pytest.approx(4.0 / h**2 * np.sin(np.pi * h / 2) ** 2, rel=1e-12)


def test_laplacian_2d_eigenvalue_approaches_continuum():
    vals = []
    for n in (8, 16):
        g = build_grid(rectangle(1.0, 1.0), n)
        vals.append(scipy.linalg.eigvalsh(assemble_laplacian(g).toarray())[0])
    target = 2 * np.pi**2
    assert abs(vals[1] - target) < abs(vals[0] - target)
    assert vals[1] == pytest.approx(target, rel=5e-3)


def test_m_matrix_structure():
    for shape, n in ((interval(1.0), 16), (rectangle(1.0, 2.0), 8)):
        a = assemble_laplacian(build_grid(shape, n))
        dense = a.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(dense.diagonal() > 0)
        off = dense - np.diag(dense.diagonal())
        assert np.all(off <= 0)
        # diagonally dominant, strictly so in rows touching the boundary
        rowsum = np.abs(off).sum(axis=1)
        assert np.all(dense.diagonal() >= rowsum - 1e-12)
        assert dense.diagonal()[0] > rowsum[0]


def test_power_weight_examples():
    g = build_grid(interval(1.0), 4)
    np.testing.assert_array_equal(power_weight(g, 0.0), np.ones(3))
    np.testing.assert_allclose(power_weight(g, 2.0), [16.0, 4.0, 16.0])
    assert power_weight(g, 1.5)[0] == pytest.approx(8.0, rel=1e-14)


def test_power_weight_is_cached_on_the_grid_read_only():
    g = build_grid(rectangle(1.0, 2.0), 8)
    w = power_weight(g, 1.5)
    assert power_weight(g, 1.5) is w
    assert power_weight(g, 2) is power_weight(g, 2.0)
    assert power_weight(g, 0.5) is not w
    np.testing.assert_array_equal(w, g.d ** -1.5)
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0
    # one grid per (shape, n): the same array; another n, another grid's
    assert power_weight(build_grid(rectangle(1.0, 2.0), 8), 1.5) is w
    assert power_weight(build_grid(rectangle(1.0, 2.0), 16), 1.5) is not w


def test_cell_volumes_tile_domain_within_h():
    for shape, vol in ((interval(2.0), 2.0), (rectangle(1.0, 3.0), 3.0)):
        for n in (8, 16, 32):
            g = build_grid(shape, n)
            total = g.num_interior * g.cell_volume
            assert abs(total - vol) <= 2.5 * max(g.h) * vol


def test_laplacian_exact_on_quadratic():
    g = build_grid(interval(1.0), 16)
    x = g.axes[0]
    u = x * (1 - x)
    np.testing.assert_allclose(assemble_laplacian(g) @ u, 2.0 * np.ones(15), atol=1e-11)


def test_laplacian_2d_exact_on_quadratic_away_from_edges():
    g = build_grid(rectangle(1.0, 1.0), 8)
    pts = g.points()
    u = pts[:, 0] * (1 - pts[:, 0])
    result = (assemble_laplacian(g) @ u).reshape(g.interior_shape)
    # rows with both y-neighbors interior see the true (constant) -laplacian
    np.testing.assert_allclose(result[:, 1:-1], 2.0, atol=1e-10)


def test_distance_reflection_symmetry():
    g1 = build_grid(interval(1.0), 32)
    np.testing.assert_array_equal(g1.d, g1.d[::-1])
    g2 = build_grid(rectangle(1.0, 2.0), 16)
    d = g2.d.reshape(g2.interior_shape)
    np.testing.assert_array_equal(d, d[::-1, :])
    np.testing.assert_array_equal(d, d[:, ::-1])
    w = power_weight(g2, 1.3).reshape(g2.interior_shape)
    np.testing.assert_array_equal(w, w[::-1, :])


def test_gradient_field_quadratic_exact():
    g = build_grid(interval(1.0), 16)
    x = g.axes[0]
    u = x * (1 - x) / 2
    np.testing.assert_allclose(gradient_field(g, u), np.abs(0.5 - x), atol=1e-13)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 32), (rectangle(1.0, 1.0), 9), (rectangle(2.0, 0.5), 6)])
def test_laplacian_is_assembled_once_per_grid(shape, n):
    g = build_grid(shape, n)
    assert assemble_laplacian(g) is assemble_laplacian(g)
    # one grid per (shape, n) per process; another n or shape, another matrix
    assert build_grid(shape, n) is g
    assert assemble_laplacian(build_grid(shape, n)) is assemble_laplacian(g)
    assert assemble_laplacian(build_grid(shape, n + 1)) is not assemble_laplacian(g)
    wider = DomainShape(tuple(2.0 * e for e in shape.extents))
    assert assemble_laplacian(build_grid(wider, n)) is not assemble_laplacian(g)


@pytest.mark.parametrize("n", [64.0, np.float64(64)], ids=["float", "np.float64"])
def test_float_n_is_rejected_after_its_grid_is_shared(n):
    # n is checked before the lookup: 64.0 == 64 would find the cached grid
    for shape in (interval(1.0), rectangle(1.0, 1.0)):
        build_grid(shape, 64)
        with pytest.raises(InvalidResolutionError, match="n must be an integer"):
            build_grid(shape, n)
    assert build_grid(interval(1.0), np.int64(64)) is build_grid(interval(1.0), 64)


@pytest.mark.parametrize("shape, n", [(interval(1.0), 16), (rectangle(2.0, 0.5), 6)])
def test_every_array_of_a_shared_grid_is_read_only(shape, n):
    g = build_grid(shape, n)
    lap = assemble_laplacian(g)
    eig = dirichlet_eigenpair(g)
    arrays = [*g.axes, g.d, lap.data, lap.indices, lap.indptr, g._diagonal_positions,
              power_weight(g, 1.5), eig.field]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        eig.value = 0.0
    assert dirichlet_eigenpair(build_grid(shape, n)) is eig


def test_shared_grids_and_their_weights_are_bounded():
    grids = [build_grid(interval(1.0), n) for n in range(2, GRID_CACHE_SIZE + 5)]
    assert grid_module._shared_grid.cache_info().currsize == GRID_CACHE_SIZE
    assert build_grid(interval(1.0), grids[-1].n) is grids[-1]
    assert build_grid(interval(1.0), 2) is not grids[0]  # least recently used: rebuilt
    g = grids[-1]
    first = power_weight(g, 0.25)
    for k in range(WEIGHT_CACHE_SIZE + 3):
        power_weight(g, 1.0 + k / 8)
    assert len(g._weights) == WEIGHT_CACHE_SIZE
    again = power_weight(g, 0.25)  # dropped, then computed again to the same bits
    assert again is not first and again.tobytes() == first.tobytes()


@pytest.mark.parametrize("shape, n", [(interval(1.0), 64), (rectangle(2.0, 0.5), 12)])
@pytest.mark.parametrize("alpha, beta", [(0.5, 0.0), (2.0, 0.7), (3.3, 1.5)])
def test_negated_power_weight_is_bitwise_the_distance_power(shape, n, alpha, beta):
    # residual's and newton_solve's weight d^(beta + t alpha), the barriers' d^t
    g = build_grid(shape, n)
    t = resolve_regime(alpha, beta).t
    for x in (beta + t * alpha, t):
        assert power_weight(g, -x).tobytes() == (g.d**x).tobytes()
    pair = build_barrier_pair(g, alpha, beta)
    assert pair.c1 == float(np.min(pair.sub / g.d**t))
    assert pair.c2 == float(np.max(pair.super / g.d**t))
    u = pair.super
    # F from its formula, not from sel's evaluation of it: an independent reference
    defect = assemble_laplacian(g) @ u - power_weight(g, beta) * u ** (-alpha)
    assert residual(g, u, alpha, beta) == float(np.max(np.abs(defect * g.d ** (beta + t * alpha))))


def test_cached_laplacian_is_read_only():
    a = assemble_laplacian(build_grid(rectangle(1.0, 1.0), 8))
    for arr in (a.data, a.indices, a.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(ValueError):
        a.data *= 2.0


@pytest.mark.parametrize("shape, n", [(interval(1.0), 32), (rectangle(1.0, 1.0), 9), (rectangle(2.0, 0.5), 6)])
@pytest.mark.parametrize("kind", ["zero", "weight"])
def test_shifted_laplacian_equals_sparse_sum(shape, n, kind):
    g = build_grid(shape, n)
    m = np.zeros(g.num_interior) if kind == "zero" else 3.0 * power_weight(g, 1.7)
    lap_data = assemble_laplacian(g).data.copy()
    shifted = shifted_laplacian(g, m)
    expected = (assemble_laplacian(g) + sp.diags_array(m)).tocsr()
    np.testing.assert_array_equal(shifted.indptr, expected.indptr)
    np.testing.assert_array_equal(shifted.indices, expected.indices)
    np.testing.assert_array_equal(shifted.data, expected.data)
    # the shift owns its data: the cached Laplacian is untouched
    np.testing.assert_array_equal(assemble_laplacian(g).data, lap_data)


def kron_laplacian(g):
    """-lap_h as tridiag(-1, 2, -1)/h^2 on an interval, or the kron sum of
    the two axes' on a rectangle, in CSR."""

    def second_difference(m, h):
        ones = np.ones(m - 1)
        return sp.diags_array([-ones, 2.0 * np.ones(m), -ones], offsets=[-1, 0, 1]).tocsr() / h**2

    ms = g.interior_shape
    if g.dim == 1:
        return second_difference(ms[0], g.h[0]).tocsr()
    tx, ty = (second_difference(m, h) for m, h in zip(ms, g.h))
    ix, iy = (sp.identity(m, format="csr") for m in ms)
    return (sp.kron(tx, iy) + sp.kron(ix, ty)).tocsr()


ASSEMBLY_GRIDS = (
    [(interval(1.0), n) for n in (2, 3, 64, 4096)]
    + [(rectangle(1.0, 1.0), n) for n in (2, 4, 5, 17, 64)]
    + [(rectangle(w, hgt), n) for w, hgt in ((8.0, 0.125), (2.0, 0.5)) for n in (16, 33)]
)


@pytest.mark.parametrize(
    "shape, n",
    ASSEMBLY_GRIDS,
    ids=[f"{'x'.join(map(str, s.extents))}-n{n}" for s, n in ASSEMBLY_GRIDS],
)
def test_laplacian_is_the_kron_sum_entry_for_entry(shape, n):
    # kron_laplacian builds the matrix as _assemble does: this pins the CSR
    # pattern and its int32 indices; test_laplacian_is_the_stencil_bit_for_bit
    # checks the values against an independent reference
    g = build_grid(shape, n)
    lap, expected = assemble_laplacian(g), kron_laplacian(g)
    assert lap.shape == expected.shape
    for name in ("indptr", "indices"):
        assert getattr(lap, name).dtype == getattr(expected, name).dtype == np.int32
        np.testing.assert_array_equal(getattr(lap, name), getattr(expected, name))
    assert lap.data.tobytes() == expected.data.tobytes()


def stencil_laplacian(g):
    """Dense -lap_h written node by node: the 3-point (1D) or 5-point (2D)
    stencil, 2/h_a^2 per axis on the diagonal and -1/h_a^2 at each interior
    neighbour along axis a."""
    ms = g.interior_shape
    dense = np.zeros((g.num_interior, g.num_interior))
    for node in np.ndindex(*ms):
        row = np.ravel_multi_index(node, ms)
        dense[row, row] = sum(2.0 / h**2 for h in g.h)
        for axis, h in enumerate(g.h):
            for step in (-1, 1):
                neighbour = list(node)
                neighbour[axis] += step
                if 0 <= neighbour[axis] < ms[axis]:
                    dense[row, np.ravel_multi_index(neighbour, ms)] = -1.0 / h**2
    return dense


STENCIL_GRIDS = [
    (shape, n)
    for shape in (interval(1.0), rectangle(1.0, 1.0), rectangle(2.0, 0.5))
    for n in (2, 3, 4, 5, 8, 16, 17)
]


@pytest.mark.parametrize(
    "shape, n",
    STENCIL_GRIDS,
    ids=[f"{'x'.join(map(str, s.extents))}-n{n}" for s, n in STENCIL_GRIDS],
)
def test_laplacian_is_the_stencil_bit_for_bit(shape, n):
    g = build_grid(shape, n)
    assert assemble_laplacian(g).toarray().tobytes() == stencil_laplacian(g).tobytes()


def test_unit_square_at_n3_stores_no_zero():
    # the kron sum stores 16 entries here, 4 of them explicit zeros
    g = build_grid(rectangle(1.0, 1.0), 3)
    lap = assemble_laplacian(g)
    assert lap.nnz == 12
    assert np.all(lap.data != 0.0)
    np.testing.assert_array_equal(lap.toarray(), kron_laplacian(g).toarray())


# Every public function that takes a nodal field, as (grid, field) -> result.
FIELD_FUNCTIONS = {
    "check_field": lambda g, u: g.check_field(u),
    "check_positive": lambda g, u: g.check_positive(u),
    "shifted_laplacian": shifted_laplacian,
    "gradient_field": gradient_field,
    "residual": lambda g, u: residual(g, u, 2.0, 0.0),
    "iterate_step": lambda g, u: iterate_step(g, None, u, 2.0, 0.0),
    "verify_barrier": lambda g, u: verify_barrier(g, u, 2.0, 0.0, "sub"),
    "uniqueness_identity": lambda g, u: uniqueness_identity(g, g.d, u, 2.0, 0.0),
    "sobolev_integral": lambda g, u: sobolev_integral(g, u, 2.0),
    "gradient_integral": lambda g, grad: gradient_integral(g, grad, 2.0),
    "fit_boundary_exponent": fit_boundary_exponent,
    "fit_gradient_exponent": fit_gradient_exponent,
    "linearized_smallest_eigenvalue": lambda g, u: linearized_smallest_eigenvalue(g, u, 2.0, 0.0),
    "newton_solve": lambda g, u: newton_solve(g, 2.0, 0.0, u),
    "monotone_shift": lambda g, u: monotone_shift(g, u, 2.0, 0.0),
    "SPDFactor.on_grid": SPDFactor.on_grid,
}

# The FIELD_FUNCTIONS that evaluate u^(-alpha), its slope, or a power or log
# of u: a field entry <= 0 is invalid input to each.
POSITIVE_FIELD_FUNCTIONS = [
    "check_positive",
    "fit_boundary_exponent",
    "iterate_step",
    "linearized_smallest_eigenvalue",
    "monotone_shift",
    "newton_solve",
    "residual",
    "uniqueness_identity",
    "verify_barrier",
]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(FIELD_FUNCTIONS))
def test_field_with_a_nan_or_inf_entry_is_invalid_input(name, bad):
    # grid.check_field alone decides finiteness, with one ValueError for all
    g = build_grid(interval(1.0), 64)
    u = g.d.copy()
    u[10] = bad
    with pytest.raises(ValueError, match="field has a NaN or inf entry"):
        FIELD_FUNCTIONS[name](g, u)


@pytest.mark.parametrize("bad", [0.0, -1.0])
@pytest.mark.parametrize("name", POSITIVE_FIELD_FUNCTIONS)
def test_field_with_a_nonpositive_entry_is_invalid_input(name, bad):
    # grid.check_positive alone decides positivity, with one ValueError for all
    g = build_grid(interval(1.0), 64)
    u = g.d.copy()
    u[10] = bad
    with pytest.raises(ValueError, match="field must be positive nodewise"):
        FIELD_FUNCTIONS[name](g, u)


FOLD_SHAPES = [interval(1.0), rectangle(1.0, 1.0), rectangle(2.0, 0.5)]


def expansion(grid):
    """E: the 0/1 matrix that mirrors a cell field over the grid, E v = v[idx]."""
    idx = mirror_fold(grid).idx
    return sp.csr_array((np.ones(idx.size), (np.arange(idx.size), idx)))


@pytest.mark.parametrize("n", [2, 3, 16, 17, 64, 65])
@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=["interval", "square", "2x0.5"])
def test_fold_is_the_stencils_fold_entry_for_entry(shape, n):
    # K, built per axis in closed form, is E^T (-lap_h) E with the same
    # pattern and bits; w counts each orbit (E^T E = diag(w)); rep is the
    # lower-left member of its orbit, and d takes one value per orbit
    g = build_grid(shape, n)
    fold = mirror_fold(g)
    E = expansion(g)
    folded = (E.T @ assemble_laplacian(g) @ E).tocsr()
    folded.sort_indices()
    assert fold.K.nnz == folded.nnz
    np.testing.assert_array_equal(fold.K.indptr, folded.indptr)
    np.testing.assert_array_equal(fold.K.indices, folded.indices)
    np.testing.assert_array_equal(fold.K.data, folded.data)
    np.testing.assert_array_equal(E.T @ np.ones(g.num_interior), fold.w)
    np.testing.assert_array_equal(fold.idx[fold.rep], np.arange(fold.w.size))
    cell = np.stack(np.unravel_index(fold.rep, g.interior_shape))
    assert cell.max() == n // 2 - 1  # 0-based: i <= n/2 - 1 on every axis
    np.testing.assert_array_equal(g.d, g.d[fold.rep][fold.idx])
    for arr in (fold.idx, fold.rep, fold.w, fold.K.data, fold.diagonal_positions):
        assert not arr.flags.writeable
    assert mirror_fold(g) is fold and fold.K is fold.K


@pytest.mark.parametrize("shape", FOLD_SHAPES, ids=["interval", "square", "2x0.5"])
def test_orbit_reduce_takes_the_extreme_member(shape, rng):
    g = build_grid(shape, 17)
    fold = mirror_fold(g)
    u = rng.random(g.num_interior)
    E = expansion(g).toarray().astype(bool)
    for ufunc, pick in ((np.maximum, np.max), (np.minimum, np.min)):
        expected = [pick(u[E[:, j]]) for j in range(fold.w.size)]
        np.testing.assert_array_equal(fold.orbit_reduce(u, ufunc), expected)
    np.testing.assert_array_equal(fold.orbit_reduce(g.d, np.maximum), g.d[fold.rep])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_folded_shift_must_be_a_finite_cell_field(bad):
    fold = mirror_fold(build_grid(rectangle(1.0, 1.0), 17))
    m = np.ones(fold.w.size)
    with pytest.raises(ValueError, match="expected"):
        fold.shifted(np.ones(fold.w.size + 1))
    m[3] = bad
    with pytest.raises(ValueError, match="field has a NaN or inf entry"):
        fold.shifted(m)
