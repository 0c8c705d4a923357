import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sel import oracle
from sel.grid import assemble_laplacian, build_grid, interval, power_weight, rectangle
from sel.linear_core import solve_spd
from sel.oracle import (
    DENSE_N_CAP,
    NewtonStagnationError,
    dense_newton_solve,
    newton_solve,
    observed_order,
)
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


def test_dense_newton_checks_its_cap_before_densifying(monkeypatch):
    # an API call past the cap must not build the N x N arrays
    grid = build_grid(interval(), DENSE_N_CAP + 1)
    monkeypatch.setattr(
        sp.csr_array, "toarray", lambda self, *a, **k: pytest.fail("toarray was called")
    )
    with pytest.raises(ValueError, match=f"dense oracle is limited to n <= {DENSE_N_CAP}"):
        newton_solve(grid, 0.5, 0.0, np.ones(grid.num_interior), dense=True)


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
    # a NaN or inf error or h, or an h of 0, is invalid input, not a NaN order
    for errors, hs in (
        ([1e-2, np.nan, 1e-4], [0.1, 0.05, 0.025]),
        ([1e-2, np.inf, 1e-4], [0.1, 0.05, 0.025]),
        ([1e-2, 1e-3, 1e-4], [0.1, np.nan, 0.025]),
        ([1e-2, 1e-3, 1e-4], [np.inf, 0.05, 0.025]),
        ([1e-2, 1e-3, 1e-4], [0.1, 0.05, 0.0]),
    ):
        with pytest.raises(ValueError, match="errors and hs must be finite and positive"):
            observed_order(errors, hs)


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


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_newton_tol_must_be_positive_and_finite(lab, monkeypatch, dense, tol):
    # invalid input before any arithmetic: not a NewtonStagnationError after
    # 50 halvings (nan, 0, -1), nor init returned unsolved (inf)
    grid, init = lab.grid(32), lab.pair(2.0, 0.0, 32).super
    monkeypatch.setattr(oracle, "_weighted_defect", lambda *_: pytest.fail("evaluated first"))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        newton_solve(grid, 2.0, 0.0, init, tol=tol, dense=dense)


def test_newton_step_cap_is_a_stagnation(lab, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(NewtonStagnationError, match="Newton did not reach tol=1.0e-12"):
        newton_solve(lab.grid(32), 0.5, 0.0, lab.pair(0.5, 0.0, 32).super)
