"""Problem instances and solver configuration."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

from .barriers import resolve_regime
from .grid import DomainShape, Grid, build_grid, interval
from .linear_core import check_tol


@dataclass(frozen=True)
class SolveConfig:
    """Stopping control for the two-sided monotone iteration.

    tol is the relative two-sided gap in the weighted L2(Omega, b) norm;
    max_iter, an integer >= 1, caps the outer iterations.
    """

    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        check_tol(self.tol)
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of -lap(u) = d^(-beta) u^(-alpha), u = 0 on the boundary."""

    alpha: float
    beta: float = 0.0
    shape: DomainShape = field(default_factory=interval)
    n: int = 64
    config: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        resolve_regime(self.alpha, self.beta)  # ValueError outside the admitted range

    def make_grid(self) -> Grid:
        """The instance's grid, build_grid(shape, n): the process's shared
        Grid of that (shape, n), so every layer solving this spec, and every
        other spec and command of the process on the same grid, shares its
        cached Laplacian, weights and eigenpair."""
        return build_grid(self.shape, self.n)
