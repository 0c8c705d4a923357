import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sel.grid import assemble_laplacian, build_grid, interval, power_weight, rectangle
from sel.linear_core import solve_spd
from sel.oracle import dense_newton_solve, newton_solve, observed_order
from sel.problem import ProblemSpec, SolveConfig
from sel.spectral import linearized_smallest_eigenvalue


def shifted(g, shift):
    """-lap_h + diag(shift) for a nodal shift."""
    return (assemble_laplacian(g) + sp.diags_array(shift)).tocsr()


def manufactured_linear_case(g, shift):
    """(exact, forcing): u* = prod over axes of (s(1-s))^2, s the normalized
    coordinate, and forcing = (-lap_h + diag(shift)) u*.  u* vanishes to
    second order at the boundary, so the forcing stays finite for shifts up
    to d^(-2)."""
    pts = g.points()
    exact = np.ones(g.num_interior)
    for axis, extent in enumerate(g.shape.extents):
        s = pts[:, axis] / extent
        exact = exact * (s * (1.0 - s)) ** 2
    return exact, assemble_laplacian(g) @ exact + shift * exact


def test_manufactured_case_roundtrip():
    g = build_grid(interval(1.0), 32)
    shift = power_weight(g, 2.0)
    exact, forcing = manufactured_linear_case(g, shift)
    assert np.all(np.isfinite(forcing))
    u, _ = solve_spd(shifted(g, shift), forcing, tol=1e-12)
    np.testing.assert_allclose(u, exact, atol=1e-11)


def test_manufactured_case_finite_near_boundary_2d():
    g = build_grid(rectangle(1.0, 1.0), 16)
    shift = 3.0 * power_weight(g, 2.0)
    exact, forcing = manufactured_linear_case(g, shift)
    assert np.all(np.isfinite(forcing))
    # forward application reproduces the forcing to round-off by construction
    a = shifted(g, shift)
    np.testing.assert_allclose(a @ exact, forcing, rtol=0, atol=1e-12)


def test_dense_newton_alpha_zero_is_linear():
    spec = ProblemSpec(alpha=0.0, beta=0.0, n=32)
    u = dense_newton_solve(spec)
    g = spec.make_grid()
    x = g.axes[0]
    np.testing.assert_allclose(u, x * (1 - x) / 2, atol=1e-12)


def test_dense_newton_cap():
    with pytest.raises(ValueError):
        dense_newton_solve(ProblemSpec(alpha=0.5, beta=0.0, n=128))


def test_newton_requires_positive_init(lab):
    grid = lab.grid(32)
    with pytest.raises(ValueError):
        newton_solve(grid, 0.5, 0.0, np.zeros(grid.num_interior))


def test_oracle_equivalence_small(lab):
    _, _, report = lab.solved(2.0, 0.0, 32, tol=1e-11)
    u = dense_newton_solve(ProblemSpec(alpha=2.0, beta=0.0, n=32))
    assert np.max(np.abs(u - report.upper)) <= 1e-8 * np.max(np.abs(u))


def test_newton_jacobian_smallest_eigenvalue_matches_mu1(lab):
    grid, _, report = lab.solved(0.5, 0.0, 32, tol=1e-11)
    jac = assemble_laplacian(grid).toarray() + np.diag(
        0.5 * power_weight(grid, 0.0) * report.upper ** (-1.5)
    )
    vals = scipy.linalg.eigvalsh(jac)
    assert vals[0] > 0.0
    mu = linearized_smallest_eigenvalue(grid, report.upper, 0.5, 0.0, tol=1e-10)
    assert mu.value == pytest.approx(vals[0], rel=1e-6)


def test_observed_order_exact_ratio():
    order, reliable = observed_order([1e-2, 2.5e-3, 6.25e-4], [0.1, 0.05, 0.025])
    assert order == pytest.approx(2.0, abs=1e-12)
    assert reliable


def test_observed_order_flags_non_monotone():
    order, reliable = observed_order([1e-2, 2e-2, 6.25e-4], [0.1, 0.05, 0.025])
    assert not reliable


def test_observed_order_validation():
    with pytest.raises(ValueError):
        observed_order([1e-2, 1e-3], [0.1, 0.05])
    with pytest.raises(ValueError):
        observed_order([1e-2, 1e-3, 1e-4], [0.1, 0.2, 0.05])
    with pytest.raises(ValueError):
        observed_order([1e-2, 0.0, 1e-4], [0.1, 0.05, 0.025])


def test_mms_sine_forcing_second_order():
    errors, hs = [], []
    for n in (16, 32, 64):
        g = build_grid(interval(1.0), n)
        x = g.axes[0]
        u, _ = solve_spd(assemble_laplacian(g), np.pi**2 * np.sin(np.pi * x), tol=1e-13)
        errors.append(np.max(np.abs(u - np.sin(np.pi * x))))
        hs.append(g.h[0])
    order, reliable = observed_order(errors, hs)
    assert reliable
    assert order == pytest.approx(2.0, abs=0.2)
