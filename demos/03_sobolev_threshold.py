#!/usr/bin/env python3
"""The sharp Sobolev threshold q_bar and the H^1 membership dichotomy.

For alpha + beta > 1 the gradient blows up like d^((1-alpha-beta)/(1+alpha))
and int |grad u|^q is finite exactly for q < q_bar = (1+alpha)/(alpha+beta-1).
The demo estimates q_bar from the refinement increments of the Sobolev
integrals on three levels, and reads from the same increments that the
integrals converge below the threshold and grow without bound above it.
It then crosses the classical H^1 frontier (q_bar = 2, i.e. alpha = 3 at
beta = 0): alpha = 2.5 is a member, alpha = 3.5 is not.  Both come from
the certified monotone ladder: sub- and supersolutions give a solution for
every alpha > 0 (Crandall, Rabinowitz & Tartar 1977); only membership in
H^1_0 stops at alpha = 3 (Lazer & McKenna 1991).
"""

from sel import (
    SolveConfig,
    h1_membership,
    increment_ratios,
    interval,
    regularity_report,
    resolve_regime,
    sobolev_integral,
    solve_ladder,
)

ALPHA, BETA = 2.0, 0.0
print(f"--- q_bar for alpha={ALPHA}, beta={BETA}")
ladder = solve_ladder(ALPHA, BETA, interval(), (512, 1024, 2048), SolveConfig(tol=1e-7, max_iter=2000))
levels = [(level.grid, level.report.upper) for level in ladder]

q_est = regularity_report(levels, ALPHA, BETA).q_bar_est
print(f"q_bar estimate = {q_est:.3f}   theory (1+alpha)/(alpha+beta-1) = {resolve_regime(ALPHA, BETA).q_bar:.3f}")

print("\nincrement ratios rho = (I(2048) - I(1024)) / (I(1024) - I(512)) of int |grad u|^q,")
print("which tend to 2^-(1 + q sigma): the integral converges exactly when rho < 1")
for q in (1.5, 2.0, 2.5, 3.5, 4.0):
    vals = [sobolev_integral(g, u, q) for g, u in levels]
    (rho,) = increment_ratios(vals)
    tag = "converges" if rho < 1 else "diverges"
    print(f"  q = {q:3.1f}: I(512) = {vals[0]:9.4f}  I(1024) = {vals[1]:9.4f}  "
          f"I(2048) = {vals[2]:9.4f}  rho = {rho:.4f}  -> {tag}")

print("\n--- H^1 membership across alpha = 3 (beta = 0), levels n = 256..1024")
config = SolveConfig(tol=1e-7, max_iter=3000)
for alpha in (2.5, 3.5):
    ladder = [(lv.grid, lv.report.upper)
              for lv in solve_ladder(alpha, 0.0, interval(), (256, 512, 1024), config)]
    verdict = h1_membership(ladder)
    ratios = ", ".join(f"{r:.4f}" for r in verdict.ratios)
    (rho,) = increment_ratios(verdict.values)
    print(f"  alpha = {alpha}: Dirichlet-energy ratios [{ratios}], increment ratio"
          f" {rho:.4f} -> {verdict.verdict}")
