#!/usr/bin/env python3
"""Two-sided monotone iteration, start to finish.

Builds the certified barrier pair for -lap(u) = u^(-alpha) on (0,1), runs
the shifted fixed-point scheme from both ends, and shows the squeeze: the
upper sequence descends, the lower ascends, the gap collapses, and the two
limits agree far below the stopping tolerance.
"""

import numpy as np

from sel import (
    ProblemSpec,
    SolveConfig,
    build_barrier_pair,
    residual,
    solve_monotone,
    uniqueness_gap,
    verify_barrier,
)

ALPHA, BETA, N = 2.0, 0.0, 512

spec = ProblemSpec(alpha=ALPHA, beta=BETA, n=N, config=SolveConfig(tol=1e-9, max_iter=1000))
grid = spec.make_grid()

print(f"problem: -lap(u) = d^(-{BETA}) u^(-{ALPHA}) on (0,1), n={N}")
pair = build_barrier_pair(grid, ALPHA, BETA)
print(f"regime exponent t = {pair.t:.4f} (theory (2-beta)/(1+alpha) = {(2-BETA)/(1+ALPHA):.4f})")
print(f"subsolution  u_0 = {pair.c:.4f} * phi_1^t")
print(f"supersolution u^0 = {pair.C:.4f} * phi_1^t")
print(f"sandwich constants: {pair.c1:.4f} * d^t <= u <= {pair.c2:.4f} * d^t")

for side, field in (("sub", pair.sub), ("super", pair.super)):
    cert = verify_barrier(grid, field, ALPHA, BETA, side)
    print(f"  {side:5s} inequality: worst signed violation {cert.worst_violation:+.3e} "
          f"(passes at <= 0) -> {'OK' if cert.passed else 'FAIL'}")

report = solve_monotone(spec, pair)
print(f"\nconverged: {report.converged} after {report.iterations} iterations")
print("weighted relative gap per iteration:")
for k, gap in enumerate(report.gap_history, start=1):
    print(f"  iter {k:4d}: gap = {gap:.3e}")

print(f"\nworst ordering violation over the whole run: {report.ordering_violation:.2e}")
print(f"two-sided limits agree to {uniqueness_gap(report):.2e} (relative sup norm)")
print(f"weighted strong-form residual of the limit: {residual(grid, report.upper, ALPHA, BETA):.2e}")

mid = np.argmin(np.abs(grid.axes[0] - 0.5))
print(f"u(0.5) = {report.upper[mid]:.8f}")
