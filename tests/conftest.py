import numpy as np
import pytest

from sel.barriers import build_barrier_pair
from sel.grid import build_grid, interval
from sel.monotone import solve_monotone
from sel.oracle import newton_solve
from sel.problem import ProblemSpec, SolveConfig
from sel.spectral import dirichlet_eigenpair


class Lab:
    """Memoizing store for solves shared across test modules.

    The heavy n=4096 runs are computed once per session; everything here is
    deterministic, so caching cannot change outcomes.
    """

    def __init__(self):
        self._grids = {}
        self._eigs = {}
        self._solves = {}
        self._newtons = {}

    def grid(self, n):
        if n not in self._grids:
            self._grids[n] = build_grid(interval(1.0), n)
        return self._grids[n]

    def eig(self, n):
        if n not in self._eigs:
            self._eigs[n] = dirichlet_eigenpair(self.grid(n))
        return self._eigs[n]

    def pair(self, alpha, beta, n):
        grid = self.grid(n)
        return build_barrier_pair(grid, alpha, beta, self.eig(n))

    def solved(self, alpha, beta, n, tol=1e-8, max_iter=2000):
        """(grid, pair, report) for a converged monotone run."""
        key = (alpha, beta, n, tol)
        if key not in self._solves:
            spec = ProblemSpec(
                alpha=alpha,
                beta=beta,
                shape=interval(1.0),
                n=n,
                config=SolveConfig(tol=tol, max_iter=max_iter),
            )
            grid = self.grid(n)
            pair = self.pair(alpha, beta, n)
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


@pytest.fixture(scope="session")
def lab():
    return Lab()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
