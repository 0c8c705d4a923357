"""Workload cases: how each case calls sel, and how its outputs are checked.

A case is one CLI call (``sel.cli.main(argv)``) or one cross-check through
the public API, as the demos make them.  ``run_case`` times only the call
into sel; the checks run after the clock stops.

Every case ends in one of three outcomes:

* ``certified``: the call ended in a certified result that passed every check;
* ``nonconvergence``: a typed non-convergence, that is exit code 2 or a
  ``skipped:`` sweep row (a known defect at the commit that defined the
  benchmark, counted as a failed case);
* ``wrong``: a crash (traceback, unexpected exception, exit 1 on valid
  input) or an output that fails a check.  A run with a wrong case reports
  ``correct: false``.

Functions of sel are looked up through the package at call time, so the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

CERTIFIED = "certified"
NONCONVERGENCE = "nonconvergence"
WRONG = "wrong"

ROOT = Path(__file__).resolve().parent.parent  # the checkout
WORKLOADS = ("solve-1d", "rectangle", "sweep", "crosscheck")
DEFAULT_SEED = 20261017

# Node fractions (of the flattened interior index) at which u is compared
# with its reference.
NODE_FRACTIONS = (0.02, 0.1, 0.25, 0.5)
# u, lambda1, mu1 and t_fit may differ from the reference by at most
# REF_TOL_PER_TOL * tol (u relative to max u, the eigenvalues relative to
# themselves, t_fit absolutely), tol being the case's gap tolerance.
REF_TOL_PER_TOL = 100.0
# A sweep cell that failed when the references were recorded has no
# reference t_fit; its t_fit must then lie this close to the theory value.
SWEEP_THEORY_BAND = 0.3
ORDERING_SLACK = 1e-12

# Sweep cells: one per stratum of this 7 x 4 partition of
# alpha in [0, 12] x beta in [0, 1.95], at a seeded offset of 0.49 or 0.5 of
# the stratum width on each axis.  Cell cost and outcome change steeply
# inside some strata (near alpha + beta = 1, and at the barrier-failure
# boundary); offsets spread over the stratum made the run-to-run spread of
# the sweep metrics exceed their bounds.  The offset 0.51 is left out
# because two strata straddle the barrier-failure boundary there, so that
# the number of failed cells depended on the seed; with these offsets every
# option of a stratum has the same outcome (test_perfbench checks this
# against reference.json), and the failures do not depend on the seed.
SWEEP_ALPHA_EDGES = (0.0, 0.5, 1.5, 2.5, 3.5, 5.0, 8.0, 12.0)
SWEEP_BETA_EDGES = (0.0, 0.5, 1.0, 1.5, 1.95)
SWEEP_OFFSETS = (0.49, 0.5)
SWEEP_BORDERLINE = 0.05  # cells with |alpha + beta - 1| below this are not drawn

# Wall seconds of one pass of each workload at the commit that defined the
# benchmark (2-vCPU Xeon VM, one thread).  A run of --seconds S makes a
# fixed number of passes sized to S, never a number that depends on how
# fast the passes ran, so the cases of a run, and its attempted and failed
# counts, depend on its arguments alone.
PASS_SECONDS = {"solve-1d": 38.0, "rectangle": 12.0, "sweep": 11.0, "crosscheck": 9.5}


@dataclass(frozen=True)
class Case:
    kind: str  # solve | sweep | oracle | h1 | continuation
    params: tuple

    @property
    def key(self) -> str:
        return f"{self.kind}:" + ":".join(repr(p) for p in self.params)


@dataclass
class Outcome:
    status: str
    wall_s: float
    reason: str = ""
    bytes_written: int = 0


# ---------------------------------------------------------------- case lists


def _solve(domain, alpha, n, tol, max_iter=500, beta=0.0) -> Case:
    return Case("solve", (domain, float(alpha), float(beta), int(n), float(tol), int(max_iter)))


def sweep_cells(rng: random.Random, smoke: bool) -> list[tuple[float, float]]:
    """One (alpha, beta) cell per stratum, at offsets drawn from rng."""
    cells = []
    for a_lo, a_hi in zip(SWEEP_ALPHA_EDGES, SWEEP_ALPHA_EDGES[1:]):
        for b_lo, b_hi in zip(SWEEP_BETA_EDGES, SWEEP_BETA_EDGES[1:]):
            options = [
                (round(a_lo + (a_hi - a_lo) * oa, 4), round(b_lo + (b_hi - b_lo) * ob, 4))
                for oa in SWEEP_OFFSETS
                for ob in SWEEP_OFFSETS
            ]
            options = [(a, b) for a, b in options if abs(a + b - 1.0) >= SWEEP_BORDERLINE]
            if options:  # the stratum around alpha + beta = 1 has none
                cells.append(rng.choice(options))
    if smoke:
        cells = cells[::7]
    return cells


def make_cases(workload: str, seed: int, pass_index: int, smoke: bool = False) -> list[Case]:
    """The cases of one pass.  Sweep cells are drawn from the seed, anew for
    every pass; the other workloads are fixed and run in a fixed order (a
    seeded order moved peak RSS and the first-call costs between cases)."""
    if workload == "solve-1d":
        n = 64 if smoke else 4096
        cases = [_solve("interval", a, n, 1e-6) for a in (0.5, 2.0, 2.5)]
    elif workload == "rectangle":
        sizes = ((0.5, 8), (2.0, 8), (2.0, 16)) if smoke else (
            (0.5, 32), (0.5, 64), (2.0, 32), (2.0, 64), (2.0, 128))
        cases = [_solve("rectangle", a, n, 1e-8) for a, n in sizes]
    elif workload == "sweep":
        n = 128 if smoke else 256
        rng = random.Random(f"{workload}/{seed}/{pass_index}")
        cases = [Case("sweep", (a, b, n, 1e-8)) for a, b in sweep_cells(rng, smoke)]
    elif workload == "crosscheck":
        ladder = (64, 128, 256, 512) if smoke else (512, 1024, 2048, 4096)
        pairs = ((0.5, 0.0),) if smoke else ((0.5, 0.0), (0.5, 0.5), (2.0, 0.0), (2.0, 0.5))
        cases = [Case("oracle", (pairs, 16 if smoke else 32)), Case("h1", (3.5, ladder)),
                 Case("continuation", (0.5, 64 if smoke else 1024))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases


def passes_for(workload: str, seconds: float, smoke: bool = False) -> int:
    """Whole passes in a run of `seconds` (one in smoke mode)."""
    return 1 if smoke else max(1, round(seconds / PASS_SECONDS[workload]))


# ---------------------------------------------------------------- running


# perf_counter() at the start of the latest timed call; the worker uses it
# to find the calibration kernel times that fall inside the call.
last_call_start = 0.0


def _timed(call):
    """(result, exception, seconds) of call(); exceptions are returned."""
    global last_call_start
    t0 = last_call_start = time.perf_counter()
    try:
        result, error = call(), None
    except SystemExit as exc:  # argparse exits instead of returning
        result, error = exc.code, None
    except Exception as exc:  # noqa: BLE001 - a crash is a counted outcome
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _config(sel, tol, max_iter, inner_tol=None):
    # inner_tol is passed only while SolveConfig still has it
    kwargs = {"tol": tol, "max_iter": max_iter}
    names = {f.name for f in dataclasses.fields(sel.SolveConfig)}
    if inner_tol is not None and "inner_tol" in names:
        kwargs["inner_tol"] = inner_tol
    return sel.SolveConfig(**kwargs)


def run_case(case: Case, workdir: Path, refs: dict) -> Outcome:
    import sel
    import sel.cli

    workdir.mkdir(parents=True, exist_ok=True)
    if case.kind == "solve":
        return _run_solve(sel, case, workdir, refs)
    if case.kind == "sweep":
        return _run_sweep(sel, case, workdir, refs)
    if case.kind == "oracle":
        return _run_oracle(sel, case)
    if case.kind == "h1":
        return _run_h1(sel, case)
    if case.kind == "continuation":
        return _run_continuation(sel, case)
    raise ValueError(f"unknown case kind {case.kind!r}")


def _cli_outcome(result, error, wall, workdir) -> Outcome | None:
    """The outcome of a CLI call that did not exit 0, else None."""
    nbytes = _dir_bytes(workdir)
    if error is not None:
        return Outcome(WRONG, wall, f"crash: {_describe(error)}", nbytes)
    if result == 2:
        return Outcome(NONCONVERGENCE, wall, "exit 2", nbytes)
    if result != 0:
        return Outcome(WRONG, wall, f"exit {result} on valid input", nbytes)
    return None


def _run_solve(sel, case: Case, workdir: Path, refs: dict) -> Outcome:
    domain, alpha, beta, n, tol, max_iter = case.params
    argv = ["solve", "--domain", domain, "--alpha", repr(alpha), "--beta", repr(beta),
            "--n", str(n), "--tol", repr(tol), "--max-iter", str(max_iter), "--out", str(workdir)]
    result, error, wall = _timed(lambda: sel.cli.main(argv))
    failed = _cli_outcome(result, error, wall, workdir)
    if failed is not None:
        return failed
    out = Outcome(CERTIFIED, wall, bytes_written=_dir_bytes(workdir))
    try:
        problems = check_solve(solve_values(workdir), tol, refs.get(case.key))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        out.status, out.reason = WRONG, "; ".join(problems)
    return out


def solve_values(workdir: Path) -> dict:
    """The checked quantities of one ``sel solve`` output directory."""
    import numpy as np

    report = json.loads((workdir / "report.json").read_text())
    table = np.loadtxt(workdir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    u = table[:, -2]
    idx = [int(round(f * (len(u) - 1))) for f in NODE_FRACTIONS]
    return {
        "report": report,
        "finite": bool(np.all(np.isfinite(table))),
        "u_max": float(np.max(u)),
        "u": [float(u[i]) for i in idx],
        "lambda1": report["spectral"]["lambda1"],
        "mu1": report["spectral"]["mu1"],
        "t_fit": report["regularity"]["t_fit"],
    }


@functools.cache
def _report_validator():
    import jsonschema

    schema = json.loads((ROOT / "docs" / "report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def check_solve(values: dict, tol: float, ref: dict | None) -> list[str]:
    report = values["report"]
    errors = sorted(_report_validator().iter_errors(report), key=str)
    problems = [f"schema: {e.message}" for e in errors[:3]]
    solve = report["solve"]
    gaps = solve.get("gap_history") or []
    if not solve.get("converged"):
        problems.append("exit 0 without convergence")
    if not gaps or not gaps[-1] <= tol:
        problems.append(f"final gap {gaps[-1] if gaps else None} > tol {tol}")
    violation = solve.get("ordering_violation")
    if violation is None or not violation <= ORDERING_SLACK * values["u_max"]:
        problems.append(f"ordering violation {violation}")
    lam, mu = values["lambda1"], values["mu1"]
    if not (isinstance(lam, float) and isinstance(mu, float) and mu >= lam > 0.0):
        problems.append(f"need mu1 >= lambda1 > 0, got mu1={mu} lambda1={lam}")
    if not values["finite"]:
        problems.append("solution.csv holds NaN or inf")
    if ref is not None:
        problems += compare_reference(values, ref, tol)
    return problems


def compare_reference(values: dict, ref: dict, tol: float) -> list[str]:
    limit = REF_TOL_PER_TOL * tol
    problems = []
    scale = ref["u_max"]
    for frac, got, want in zip(NODE_FRACTIONS, values["u"], ref["u"]):
        if not abs(got - want) <= limit * scale:
            problems.append(f"u at node fraction {frac}: {got!r} vs reference {want!r}")
    for name in ("lambda1", "mu1"):
        got, want = values[name], ref[name]
        if not abs(got - want) <= limit * abs(want):
            problems.append(f"{name} {got!r} vs reference {want!r}")
    got, want = values["t_fit"], ref["t_fit"]
    if want is not None and not (got is not None and abs(got - want) <= limit):
        problems.append(f"t_fit {got!r} vs reference {want!r}")
    return problems


def _run_sweep(sel, case: Case, workdir: Path, refs: dict) -> Outcome:
    alpha, beta, n, tol = case.params
    path = workdir / "sweep.csv"
    argv = ["sweep", "--alpha-list", repr(alpha), "--beta-list", repr(beta),
            "--n", str(n), "--tol", repr(tol), "--out", str(path)]
    result, error, wall = _timed(lambda: sel.cli.main(argv))
    failed = _cli_outcome(result, error, wall, workdir)
    if failed is not None:
        return failed
    out = Outcome(CERTIFIED, wall, bytes_written=_dir_bytes(workdir))
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems = [] if len(rows) == 1 else [f"{len(rows)} sweep rows, expected 1"]
        row = rows[0]
        verdict = row["h1_verdict"]
        if verdict.startswith("skipped:"):
            out.status, out.reason = NONCONVERGENCE, verdict[:160]
            return out
        t_fit = float(row["t_fit"]) if row["t_fit"] else None
        problems += check_sweep(t_fit, row, refs.get(case.key), tol)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        out.status, out.reason = WRONG, "; ".join(problems)
    return out


def check_sweep(t_fit, row: dict, ref: dict | None, tol: float) -> list[str]:
    if t_fit is None or not math.isfinite(t_fit):
        return [f"sweep row has no t_fit ({row.get('h1_verdict')})"]
    if ref is not None and ref.get("t_fit") is not None:
        if not abs(t_fit - ref["t_fit"]) <= REF_TOL_PER_TOL * tol:
            return [f"t_fit {t_fit!r} vs reference {ref['t_fit']!r}"]
        return []
    t_theory = float(row["t_theory"])
    if not abs(t_fit - t_theory) <= SWEEP_THEORY_BAND:
        return [f"t_fit {t_fit!r} vs theory {t_theory!r} (no reference)"]
    return []


def _api_outcome(result, error, wall, check) -> Outcome:
    if isinstance(error, RuntimeError):
        # sel's solver and certificate errors: typed non-convergence
        return Outcome(NONCONVERGENCE, wall, _describe(error))
    if error is not None:
        return Outcome(WRONG, wall, f"crash: {_describe(error)}")
    problems = check(result)
    return Outcome(WRONG if problems else CERTIFIED, wall, "; ".join(problems))


def _run_oracle(sel, case: Case) -> Outcome:
    """Acceptance criterion 4: monotone limit vs dense-LU Newton at n=32,
    for every (alpha, beta) pair."""
    import numpy as np

    pairs, n = case.params

    def call():
        results = []
        for alpha, beta in pairs:
            spec = sel.ProblemSpec(alpha=alpha, beta=beta, n=n,
                                   config=_config(sel, 1e-11, 2000, inner_tol=1e-13))
            grid = spec.make_grid()
            eig = sel.principal_eigenpair(sel.assemble_laplacian(grid), tol=1e-12)
            report = sel.solve_monotone(spec, sel.build_barrier_pair(grid, alpha, beta, eig))
            oracle = sel.dense_newton_solve(sel.ProblemSpec(alpha=alpha, beta=beta, n=n))
            results.append((alpha, beta, report, oracle))
        return results

    def check(results):
        problems = []
        for alpha, beta, report, oracle in results:
            if not report.converged:
                problems.append(f"({alpha}, {beta}): monotone solve did not converge")
                continue
            rel = float(np.max(np.abs(report.upper - oracle)) / np.max(np.abs(oracle)))
            if not rel <= 1e-8:
                problems.append(f"({alpha}, {beta}): monotone vs dense Newton rel-sup {rel:.3e}")
        return problems

    return _api_outcome(*_timed(call), check)


def _run_h1(sel, case: Case) -> Outcome:
    """Acceptance criterion 7: alpha=3.5 is not in H^1 (Newton ladder)."""
    alpha, ladder = case.params

    def call():
        levels = []
        for n in ladder:
            grid = sel.build_grid(sel.interval(1.0), n)
            eig = sel.principal_eigenpair(sel.assemble_laplacian(grid), tol=1e-12)
            pair = sel.build_barrier_pair(grid, alpha, 0.0, eig)
            levels.append((grid, sel.newton_solve(grid, alpha, 0.0, pair.super, tol=1e-9)))
        return sel.h1_membership(levels)

    def check(h1):
        if h1.verdict != "non-member" or not all(r >= 1.1 for r in h1.ratios):
            return [f"h1 verdict {h1.verdict} with ratios {h1.ratios}, expected non-member"]
        return []

    return _api_outcome(*_timed(call), check)


def _run_continuation(sel, case: Case) -> Outcome:
    """Acceptance criterion 9: the eps ladder approaches u from below."""
    import numpy as np

    alpha, n = case.params

    def call():
        spec = sel.ProblemSpec(alpha=alpha, beta=0.0, n=n, config=_config(sel, 1e-8, 2000))
        grid = spec.make_grid()
        report = sel.solve_monotone(spec, sel.build_barrier_pair(grid, alpha, 0.0))
        cont = sel.epsilon_continuation(spec, 1e-1, 0.1, 5, report.upper, tol=1e-10)
        return report, cont

    def check(result):
        report, cont = result
        if not report.converged:
            return ["reference monotone solve did not converge"]
        scale = float(np.max(report.upper))
        problems = []
        if abs(float(cont.eps_values[-1]) - 1e-5) > 1e-12:
            problems.append(f"last eps {cont.eps_values[-1]}")
        if not float(cont.deltas[-1]) <= 1e-3 * scale:
            problems.append(f"final delta {cont.deltas[-1]:.3e} > 1e-3 ||u||")
        if any(float(np.max(f - report.upper)) > 1e-12 * scale for f in cont.fields):
            problems.append("some u_eps exceeds u")
        return problems

    return _api_outcome(*_timed(call), check)
