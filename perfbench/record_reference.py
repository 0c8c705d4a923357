#!/usr/bin/env python3
"""Record perfbench/reference.json from the sel in this checkout.

    python3 perfbench/record_reference.py

Runs every solve case of the solve-1d and rectangle workloads, and every
candidate sweep cell, at full and smoke sizes.  A solve that converges is
recorded from its own output; one that ends in exit 2 (the rectangles that
do not converge) is recorded from the independent Newton path instead, so
that a later sel that converges is checked against the discrete solution.
Sweep cells record t_fit, or null when the cell is skipped.  For converged
solves up to n=128 the script also prints how far the output lies from the
Newton solution in units of tol, which bounds benchcases.REF_TOL_PER_TOL
from below.
"""

from __future__ import annotations

import csv
import json
import os
import random
import shutil
import sys
from pathlib import Path

import benchcases
from worker import THREAD_VARS

os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is imported
sys.path.insert(0, str(benchcases.ROOT / "src"))

import numpy as np  # noqa: E402

import sel  # noqa: E402
import sel.cli  # noqa: E402

WORK = benchcases.ROOT / ".perfbench" / "record"
# Converged solves are compared with Newton only up to this n: at n=4096
# the dense Newton can stall for its 200 iterations at round-off.
CALIBRATE_MAX_N = 128


def _grid(case: benchcases.Case):
    domain, _alpha, _beta, n, _tol, _max_iter = case.params
    return sel.build_grid(sel.interval() if domain == "interval" else sel.rectangle(), n)


def newton_values(case: benchcases.Case) -> tuple[dict, np.ndarray]:
    _domain, alpha, beta, _n, _tol, _max_iter = case.params
    grid = _grid(case)
    eig = sel.principal_eigenpair(sel.assemble_laplacian(grid), tol=1e-12)
    pair = sel.build_barrier_pair(grid, alpha, beta, eig)
    u = sel.newton_solve(grid, alpha, beta, pair.super, tol=1e-9)
    idx = [int(round(f * (len(u) - 1))) for f in benchcases.NODE_FRACTIONS]
    values = {
        "u_max": float(np.max(u)),
        "u": [float(u[i]) for i in idx],
        "lambda1": eig.value,
        "mu1": sel.linearized_smallest_eigenvalue(grid, u, alpha, beta, tol=1e-10).value,
        "t_fit": sel.cli._fit_exponents_best_effort(grid, u)[0],
    }
    return values, u


def fit_is_stable(case: benchcases.Case, u: np.ndarray) -> bool:
    """Whether t_fit stays within the reference tolerance when u moves at
    round-off scale.  On coarse rectangles the fit window is degenerate and
    t_fit is noise; such a t_fit is not recorded."""
    grid = _grid(case)
    limit = benchcases.REF_TOL_PER_TOL * case.params[4]
    t0 = sel.cli._fit_exponents_best_effort(grid, u)[0]
    rng = np.random.default_rng(0)
    for _ in range(3):
        noisy = u * (1.0 + 1e-12 * rng.standard_normal(u.size))
        t = sel.cli._fit_exponents_best_effort(grid, noisy)[0]
        if (t is None) != (t0 is None) or (t0 is not None and abs(t - t0) > limit):
            return False
    return True


def record_solve(case: benchcases.Case) -> dict:
    domain, alpha, beta, n, tol, max_iter = case.params
    out = WORK / "solve"
    shutil.rmtree(out, ignore_errors=True)
    rc = sel.cli.main(["solve", "--domain", domain, "--alpha", repr(alpha), "--beta", repr(beta),
                       "--n", str(n), "--tol", repr(tol), "--max-iter", str(max_iter),
                       "--out", str(out)])
    if rc != 0:
        print(f"{case.key}: exit {rc}, reference from Newton", flush=True)
        ref, u = newton_values(case)
        ref["source"] = "newton"
    else:
        values = benchcases.solve_values(out)
        u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)[:, -2]
        ref = {"source": "cli", **{k: values[k] for k in ("u_max", "u", "lambda1", "mu1", "t_fit")}}
        if n <= CALIBRATE_MAX_N:
            _report_distance_to_newton(case, ref)
    if not fit_is_stable(case, u):
        print(f"{case.key}: t_fit {ref['t_fit']} is ill-conditioned, not recorded", flush=True)
        ref["t_fit"] = None
        ref["t_fit_ill_conditioned"] = True
    return ref


def _report_distance_to_newton(case: benchcases.Case, values: dict) -> None:
    tol = case.params[4]
    try:
        newton, _ = newton_values(case)
    except RuntimeError as exc:  # the Newton path may stall at round-off
        print(f"{case.key}: converged; no Newton comparison ({exc})", flush=True)
        return
    scale = newton["u_max"]
    ratios = {
        "u": max(abs(a - b) for a, b in zip(values["u"], newton["u"])) / (tol * scale),
        "lambda1": abs(values["lambda1"] - newton["lambda1"]) / (tol * newton["lambda1"]),
        "mu1": abs(values["mu1"] - newton["mu1"]) / (tol * newton["mu1"]),
    }
    if values["t_fit"] is not None and newton["t_fit"] is not None:
        ratios["t_fit"] = abs(values["t_fit"] - newton["t_fit"]) / tol
    print(f"{case.key}: converged; |output - Newton| / tol: "
          + ", ".join(f"{k} {v:.3g}" for k, v in ratios.items()), flush=True)


def sweep_candidates(smoke: bool) -> list[tuple]:
    """Every cell make_cases can draw: all options of every stratum."""
    options = []

    class Every(random.Random):
        def choice(self, seq):
            options.append(seq)
            return seq[0]

    benchcases.sweep_cells(Every(0), False)
    if smoke:
        options = options[::7]  # the strata sweep_cells keeps in smoke mode
    return sorted({cell for seq in options for cell in seq})


def record_sweep(case: benchcases.Case) -> dict:
    alpha, beta, n, tol = case.params
    path = WORK / "sweep.csv"
    sel.cli.main(["sweep", "--alpha-list", repr(alpha), "--beta-list", repr(beta),
                  "--n", str(n), "--tol", repr(tol), "--out", str(path)])
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    t_fit = float(row["t_fit"]) if row["t_fit"] else None
    print(f"{case.key}: t_fit {t_fit} {row['h1_verdict'][:60]}", flush=True)
    return {"source": "cli", "t_fit": t_fit, "verdict": row["h1_verdict"][:120]}


def main() -> int:
    refs = {}
    for smoke in (True, False):
        for workload in ("solve-1d", "rectangle"):
            for case in benchcases.make_cases(workload, 0, 0, smoke):
                refs[case.key] = record_solve(case)
        n = 128 if smoke else 256
        for alpha, beta in sweep_candidates(smoke):
            case = benchcases.Case("sweep", (alpha, beta, n, 1e-8))
            refs[case.key] = record_sweep(case)
    shutil.rmtree(WORK, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps({"sel": sel.__version__, "cases": refs}, indent=1,
                               sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
