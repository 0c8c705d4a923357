#!/usr/bin/env python3
"""Linear stability and the independent solution paths.

Three entirely different routes to the same field: the two-sided monotone
iteration, the eps-regularized Newton continuation, and (at tiny scale)
dense-Cholesky Newton on the raw nonlinear system.  The demo shows their
agreement, then certifies linearized stability: the smallest eigenvalue
mu_1 of -lap + alpha d^(-beta) u^(-(1+alpha)) sits above lambda_1 > 0.
"""

import numpy as np

from sel import (
    ProblemSpec,
    SolveConfig,
    build_barrier_pair,
    dense_newton_solve,
    dirichlet_eigenpair,
    epsilon_continuation,
    interval,
    linearized_smallest_eigenvalue,
    solve_ladder,
    solve_monotone,
)

ALPHA, BETA = 0.5, 0.0

print(f"--- cross-method agreement at n=32, alpha={ALPHA}")
spec32 = ProblemSpec(alpha=ALPHA, beta=BETA, n=32, config=SolveConfig(tol=1e-11, max_iter=2000))
grid32 = spec32.make_grid()
pair32 = build_barrier_pair(grid32, ALPHA, BETA)
u_monotone = solve_monotone(spec32, pair32).upper
u_oracle = dense_newton_solve(spec32)
print(f"monotone vs dense Newton: rel sup difference "
      f"{np.max(np.abs(u_monotone - u_oracle)) / np.max(u_oracle):.2e}")

print(f"\n--- eps-continuation at n=256, alpha={ALPHA}")
spec = ProblemSpec(alpha=ALPHA, beta=BETA, n=256, config=SolveConfig(tol=1e-9, max_iter=1000))
grid = spec.make_grid()
u_ref = solve_monotone(spec, build_barrier_pair(grid, ALPHA, BETA)).upper
cont = epsilon_continuation(spec, 1e-1, 0.1, 5, u_ref, tol=1e-10)
print("regularized solutions approach the singular one from below:")
for eps, delta in zip(cont.eps_values, cont.deltas):
    print(f"  eps = {eps:7.1e}   ||u_eps - u||_inf = {delta:.3e}")
print(f"u_eps <= u at every node and every rung: "
      f"{all(np.all(f <= u_ref + 1e-12) for f in cont.fields)}")

print("\n--- linearized stability across resolutions")
config = SolveConfig(tol=1e-9, max_iter=1000)
for level in solve_ladder(ALPHA, BETA, interval(), (64, 128, 256), config):
    assert level.report.converged
    lam = dirichlet_eigenpair(level.grid)
    mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, ALPHA, BETA, tol=1e-10)
    print(f"  n = {level.grid.n:4d}: lambda_1 = {lam.value:.6f}   mu_1 = {mu.value:.6f}   "
          f"stable (mu_1 > 0): {mu.value > 0}")
print(f"(lambda_1 climbs toward pi^2 = {np.pi**2:.6f}; mu_1 >= lambda_1 since the "
      "linearization adds a nonnegative potential)")
