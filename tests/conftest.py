import numpy as np
import pytest

from sel import grid as grid_module
from sel.barriers import build_barrier_pair
from sel.grid import build_grid, interval
from sel.monotone import solve_monotone
from sel.oracle import newton_solve
from sel.problem import ProblemSpec, SolveConfig
from sel.spectral import dirichlet_eigenpair


INTERVAL = interval(1.0)


class Lab:
    """Memoizing store for solves shared across test modules.

    The heavy n=4096 runs are computed once per session; everything here is
    deterministic, so caching cannot change outcomes.  Grids, eigenpairs,
    pairs and solves are on the unit interval unless a shape is given.
    """

    def __init__(self):
        self._grids = {}
        self._eigs = {}
        self._solves = {}
        self._newtons = {}

    def grid(self, n, shape=INTERVAL):
        if (shape, n) not in self._grids:
            self._grids[shape, n] = build_grid(shape, n)
        return self._grids[shape, n]

    def eig(self, n, shape=INTERVAL):
        if (shape, n) not in self._eigs:
            self._eigs[shape, n] = dirichlet_eigenpair(self.grid(n, shape))
        return self._eigs[shape, n]

    def pair(self, alpha, beta, n, shape=INTERVAL):
        grid = self.grid(n, shape)
        return build_barrier_pair(grid, alpha, beta)

    def solved(self, alpha, beta, n, tol=1e-8, max_iter=2000, shape=INTERVAL):
        """(grid, pair, report) for a converged monotone run."""
        key = (alpha, beta, n, tol, shape)
        if key not in self._solves:
            spec = ProblemSpec(
                alpha=alpha,
                beta=beta,
                shape=shape,
                n=n,
                config=SolveConfig(tol=tol, max_iter=max_iter),
            )
            grid = self.grid(n, shape)
            pair = self.pair(alpha, beta, n, shape)
            report = solve_monotone(spec, pair)
            self._solves[key] = (grid, pair, report)
        return self._solves[key]

    def newton(self, alpha, beta, n, tol=1e-10):
        """(grid, u) via the Newton path started from the supersolution."""
        key = (alpha, beta, n, tol)
        if key not in self._newtons:
            grid = self.grid(n)
            pair = self.pair(alpha, beta, n)
            u = newton_solve(grid, alpha, beta, pair.super, tol=tol)
            self._newtons[key] = (grid, u)
        return self._newtons[key]


@pytest.fixture(autouse=True)
def fresh_grids():
    """Every test starts with no shared grid, so a test that patches or
    counts grid._assemble sees the grids it builds, whatever ran before."""
    grid_module._shared_grid.cache_clear()


@pytest.fixture(scope="session")
def lab():
    return Lab()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
