"""Command-line laboratory: solve, sweep, spectrum, regularity.

Subcommands
    solve       one instance, its monotone enclosure (one solve_ladder
                level); writes report.json + solution.csv
    sweep       (alpha, beta) table of exponents and verdicts; writes CSV
    spectrum    lambda_1 / mu_1 per refinement level + stability verdict
    regularity  full regularity report over a refinement ladder

Every command raises on failure, and main alone prints the error line and
picks the exit code: 0 success, 1 invalid input (ValueError, printed as
"error: <message>"), 2 any linear_core.SolverFailure (a solver or
certificate failed on valid input, printed as "error: <Type>: <message>");
a level that runs out of --max-iter is an IterationLimitError, one of them.
A valid n whose arrays do not fit in memory is exit 2 too, printed as
"error: MemoryError: <message>".
No command makes its output path before its checks and its solve pass;
solve's unconverged report, written before it raises, is the one partial
output.  An --out that cannot be written (a file where solve or regularity
puts a directory, a directory where sweep or spectrum puts a file) is
invalid input, refused before anything is solved; an OSError while the
outputs are written after those checks pass (a full disk, a path changed
during the solve) is exit 1 too, printed as "error: <message>", and the
files written before it stay.  sweep runs its cells
one after another in its own process, where they share the grids that
build_grid caches; a cell records a ValueError or SolverFailure as a
skipped row.
Every command's exponents come from regularity_report: t_fit over
asymptotic_window, the one fit band, and on a ladder of >= 3 levels
sigma_fit, q_bar_est and the H^1 verdict from the refinement increments of
int |grad u|^2.  sweep and regularity refuse a grid too coarse for the band
(exit 1) before solving, and solve writes null t_fit, sigma_fit and
q_bar_est there.
Stopping defaults (--tol, --max-iter) are SolveConfig's.
Every command takes its regime from resolve_regime as it stands: every
alpha >= 0, 0 <= beta < 2 is valid input, and the borderline alpha+beta = 1
is solved like any other instance; solve, spectrum and regularity write its
one warning (BORDERLINE_WARNING) in their JSON's warnings.
Every command answers with the monotone enclosure between certified
barriers or with a typed failure: the Newton and eps-continuation paths
(oracle.newton_solve, regularized.epsilon_continuation) are library
cross-checks, not commands.
Everything is deterministic: identical flags give byte-identical
report/CSV files.  A manifest.json with versions and a timestamp is
written next to each report; the timestamp lives only there.
The argument parser is built on the first main call and kept for the
process: later calls parse with the same parser, and main looks up the
command function at call time.
Importing this module freezes the garbage collector's objects (gc.freeze),
so that no full collection rescans the numpy and scipy imports mid-solve.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    WindowTooThinError,
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    gradient_integral,
    regularity_report,
)
from .barriers import resolve_regime
from .grid import Grid, build_grid, interval, rectangle
from .linear_core import SolverFailure
from .monotone import residual, solve_ladder, uniqueness_gap
from .problem import SolveConfig
from .spectral import dirichlet_eigenpair, linearized_smallest_eigenvalue

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER_FAILURE = 2

# The ~40k objects of the numpy and scipy imports live as long as the
# process.  Unfrozen, every full collection rescans them: a 12-27 ms pause
# (2-vCPU VM) inside whichever solve the allocation count happens to reach.
# Frozen, they are never scanned, and a full collection takes < 1 ms.
gc.freeze()


class IterationLimitError(SolverFailure):
    """A monotone solve ran out of --max-iter before its gap met --tol."""


class _Parser(argparse.ArgumentParser):
    # Usage problems are invalid input, exit code 1 (argparse defaults to 2,
    # which is reserved for solver failures here).
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _csv_templates(grid: Grid) -> tuple[str, ...]:
    """solution.csv's row templates, one per grid line (last axis fastest):
    the grid's constant columns x[, y], d already rendered as %.17g, then
    two %.17g slots for u and grad_u.  Each distinct constant value is
    formatted once.  Built on the first call for a grid and cached on it
    (Grid._facts), about 40 bytes per node."""
    templates = grid._facts.get("csv_templates")
    if templates is None:
        consts = np.column_stack([grid.points(), grid.d])
        values, index = np.unique(consts, return_inverse=True)
        rendered = np.array([f"{v:.17g}" for v in values.tolist()], dtype=object)
        per_line = grid.interior_shape[-1]
        cells = rendered[index].reshape(-1, per_line * consts.shape[1])
        line = ("%s," * consts.shape[1] + "%%.17g,%%.17g\r\n") * per_line
        templates = grid._facts["csv_templates"] = tuple(line % tuple(c) for c in cells.tolist())
    return templates


def _write_solution_csv(path: Path, grid: Grid, u: np.ndarray, grad: np.ndarray) -> None:
    """Header line, then one CRLF row x[, y], d, u, grad_u per node, each value
    as %.17g: the bytes of np.savetxt(fmt="%.17g", delimiter=",",
    newline="\\r\\n").  The constant columns come from the grid's cached row
    templates (_csv_templates), which are held for as long as the grid is;
    each write formats only u and grad_u, one grid line at a time."""
    header = ("x," if grid.dim == 1 else "x,y,") + "d,u,grad_u\r\n"
    lines = np.column_stack([u, grad]).reshape(-1, 2 * grid.interior_shape[-1])
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for template, values in zip(_csv_templates(grid), lines.tolist()):
            fh.write(template % tuple(values))


def _write_manifest(out_dir: Path, args_echo: dict, outputs: list[str]) -> None:
    manifest = {
        "spec": args_echo,
        "versions": {
            "sel": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seeds": None,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _domain(name: str):
    return interval() if name == "interval" else rectangle()


def _fit_exponents_best_effort(grid: Grid, u) -> tuple[float | None, float | None]:
    # (t_fit, sigma_fit) of solve's regularity block, (None, None) on a grid
    # too coarse for asymptotic_window; perfbench/record_reference.py reads it
    try:
        return fit_boundary_exponent(grid, u), fit_gradient_exponent(grid, u)
    except WindowTooThinError:
        return None, None


def _check_fit_window(domain: str, n: int) -> None:
    """ValueError (exit 1) if the n grid cannot host regularity_report's fits.

    The grid is the process's shared one of (domain, n), the finest level of
    the ladder that follows, so the check builds no grid of its own."""
    grid = build_grid(_domain(domain), n)
    try:
        fit_boundary_exponent(grid, grid.d)
    except WindowTooThinError as exc:
        raise ValueError(f"n={n} is too coarse for the boundary fit: {exc}") from exc


def _check_out(out_dir: Path, outputs: list[str]) -> None:
    """ValueError (exit 1) unless the outputs and manifest.json can be written
    in out_dir: none is a directory, the nearest existing path above them
    is a directory, not a file, and each file (if it exists) or that
    directory is writable.  It only checks, so it makes nothing."""
    for path in (out_dir / name for name in (*outputs, "manifest.json")):
        if path.is_dir():
            raise ValueError(f"--out: {path} is a directory")
        above = path.parent
        while not above.exists():  # False under a file too (ENOTDIR)
            above = above.parent
        if not above.is_dir():
            raise ValueError(f"--out: {above} is not a directory")
        target = path if path.exists() else above
        if not os.access(target, os.W_OK):
            raise ValueError(f"--out: {target} is not writable")


def _spec_echo(args, levels: list[int] | None = None) -> dict:
    """The common flags of a report, with --n for solve; a ladder command
    gives its levels instead, as it has no --n."""
    echo = {
        "alpha": args.alpha,
        "beta": args.beta,
        "domain": args.domain,
        "tol": args.tol,
        "max_iter": args.max_iter,
    }
    if levels is None:
        echo["n"] = args.n
    else:
        echo["levels"] = levels
    return echo


def _parse_levels(text: str, minimum: int) -> list[int]:
    """The --levels list: at least minimum values, strictly increasing;
    ValueError (exit 1) otherwise, before anything is solved."""
    levels = [int(v) for v in text.split(",") if v]
    if len(levels) < minimum:
        noun = "level" if minimum == 1 else "levels"
        raise ValueError(f"need at least {minimum} refinement {noun}")
    if any(coarse >= fine for coarse, fine in zip(levels, levels[1:])):
        raise ValueError(f"--levels must strictly increase, got {text!r}")
    return levels


def _iteration_limit(level, tol: float) -> IterationLimitError:
    rep = level.report
    return IterationLimitError(
        f"no convergence at n={level.grid.n}: gap {rep.gap_history[-1]:.3e} > tol {tol:.3e}"
        f" after {rep.iterations} iterations"
    )


def _ladder(alpha: float, beta: float, domain: str, ns, config: SolveConfig):
    """solve_ladder over ns; IterationLimitError when a level does not
    converge."""
    levels = solve_ladder(alpha, beta, _domain(domain), ns, config)
    if not levels[-1].report.converged:
        raise _iteration_limit(levels[-1], config.tol)
    return levels


def cmd_solve(args) -> None:
    regime = resolve_regime(args.alpha, args.beta)
    out_dir = Path(args.out)
    outputs = ["report.json", "solution.csv"]
    _check_out(out_dir, outputs)

    config = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    (level,) = solve_ladder(args.alpha, args.beta, _domain(args.domain), [args.n], config)
    grid, pair, rep = level.grid, level.pair, level.report
    u, converged = rep.upper, rep.converged
    solve_block = {
        "method": "monotone",
        "iterations": rep.iterations,
        "gap_history": rep.gap_history,
        "converged": converged,
        "ordering_violation": rep.ordering_violation,
        "uniqueness_gap": uniqueness_gap(rep) if converged else None,
    }
    mu = linearized_smallest_eigenvalue(grid, u, args.alpha, args.beta)
    regularity = {"t_fit": None, "sigma_fit": None, "q_bar_est": None,
                  "q_bar_theory": regime.q_bar, "h1_verdict": "needs >= 3 levels"}
    try:
        reg = regularity_report([(grid, u)], args.alpha, args.beta)
    except WindowTooThinError:  # the grids sweep and regularity refuse: null fits
        pass
    else:
        regularity.update(t_fit=reg.t_fit, sigma_fit=reg.sigma_fit, q_bar_est=reg.q_bar_est,
                          q_bar_theory=reg.q_bar_theory, h1_verdict=reg.verdicts["h1"])
    report = {
        "spec": {**_spec_echo(args), "method": "monotone"},
        "warnings": regime.warnings,
        "barrier": {
            "c": pair.c,
            "C": pair.C,
            "t": pair.t,
            "c1": pair.c1,
            "c2": pair.c2,
        },
        "solve": solve_block,
        "spectral": {
            "lambda1": dirichlet_eigenpair(grid).value, "mu1": mu.value, "stable": mu.value > 0.0
        },
        "regularity": regularity,
        "residuals": {"solution": residual(grid, u, args.alpha, args.beta)},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)

    _write_solution_csv(out_dir / "solution.csv", grid, u, gradient_field(grid, u))
    _write_manifest(out_dir, report["spec"], outputs)
    if not converged:
        raise _iteration_limit(level, args.tol)


SWEEP_FIELDS = ("alpha", "beta", "t_theory", "t_fit", "sigma_theory", "sigma_fit",
                "q_bar_theory", "q_bar_est", "h1_verdict")


def _sweep_cell(alpha, beta, domain, n, config) -> dict:
    row = {**dict.fromkeys(SWEEP_FIELDS, ""), "alpha": alpha, "beta": beta}
    regime = resolve_regime(alpha, beta)
    # theory columns never need a solve
    row.update(t_theory=regime.t, sigma_theory=regime.sigma, q_bar_theory=regime.q_bar)
    try:
        ladder = _ladder(alpha, beta, domain, (n // 4, n // 2, n), config)
        reg = regularity_report([(lv.grid, lv.report.upper) for lv in ladder], alpha, beta)
    except (ValueError, SolverFailure) as exc:  # the failures main maps; the sweep goes on
        row["h1_verdict"] = f"skipped: {type(exc).__name__}: {exc}"
        return row
    # on three levels the estimates are None, written blank, exactly when
    # the increments are not monotone and h1 reads inconclusive
    row.update(
        t_fit=reg.t_fit,
        sigma_fit=reg.sigma_fit,
        q_bar_est=reg.q_bar_est,
        h1_verdict=reg.verdicts["h1"],
    )
    return row


def cmd_sweep(args) -> None:
    alphas = [float(a) for a in args.alpha_list.split(",") if a]
    betas = [float(b) for b in args.beta_list.split(",") if b]
    if not alphas or not betas:
        raise ValueError("empty --alpha-list / --beta-list")
    if args.n % 4 != 0:
        raise ValueError("sweep needs --n divisible by 4")
    # out-of-range (alpha, beta) or --tol: ValueError, exit 1, before any cell runs
    config = SolveConfig(tol=args.tol)
    cells = [(a, b) for a in alphas for b in betas]
    for alpha, beta in cells:
        resolve_regime(alpha, beta)
    _check_fit_window(args.domain, args.n)
    out = Path(args.out)
    _check_out(out.parent, [out.name])
    rows = [_sweep_cell(a, b, args.domain, args.n, config) for a, b in cells]

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in SWEEP_FIELDS])
    spec = {"alphas": alphas, "betas": betas, "domain": args.domain, "n": args.n, "tol": args.tol}
    _write_manifest(out.parent, spec, [out.name])


def cmd_spectrum(args) -> None:
    regime = resolve_regime(args.alpha, args.beta)
    level_ns = _parse_levels(args.levels, 1)
    out = Path(args.out)
    _check_out(out.parent, [out.name])
    config = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    levels = _ladder(args.alpha, args.beta, args.domain, level_ns, config)
    rows, ordered = [], True
    for level in levels:
        eig = dirichlet_eigenpair(level.grid)
        mu = linearized_smallest_eigenvalue(level.grid, level.report.upper, args.alpha, args.beta)
        rows.append({"n": level.grid.n, "lambda1": eig.value, "mu1": mu.value})
        # mu_1 >= lambda_1 exactly; each computed value is judged within its
        # residual, which bounds its distance to an eigenvalue of the
        # symmetric operator, so mu_1 = lambda_1 at alpha = 0 reads ordered
        ordered &= mu.value + mu.residual >= eig.value - eig.residual
    payload = {
        "spec": _spec_echo(args, levels=level_ns),
        "warnings": regime.warnings,
        "levels": rows,
        "stable": all(r["mu1"] > 0.0 for r in rows),
        "ordered": ordered,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    _write_manifest(out.parent, payload["spec"], [out.name])


def cmd_regularity(args) -> None:
    regime = resolve_regime(args.alpha, args.beta)
    level_ns = _parse_levels(args.levels, 2)
    if level_ns[0] < 3:
        raise ValueError(
            "regularity needs levels n >= 3 (n=2 has one node and a zero gradient), "
            f"got n={level_ns[0]}"
        )
    q_grid = [float(q) for q in args.q_grid.split(",") if q] if args.q_grid else None
    if q_grid is not None and not (q_grid and all(math.isfinite(q) and q >= 1.0 for q in q_grid)):
        raise ValueError(f"--q-grid needs finite values >= 1, got {args.q_grid!r}")
    _check_fit_window(args.domain, level_ns[-1])
    out_dir = Path(args.out)
    outputs = ["regularity.json", "sobolev.csv"]
    _check_out(out_dir, outputs)

    config = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    ladder = _ladder(args.alpha, args.beta, args.domain, level_ns, config)
    levels = [(level.grid, level.report.upper) for level in ladder]

    reg = regularity_report(levels, args.alpha, args.beta)
    qs = q_grid or [1.5, 2.0, 3.0]
    rows = []  # every row before any file: an overflow writes nothing
    for grid, u in levels:
        grad = gradient_field(grid, u)
        rows += [[grid.n, _fmt(float(q)), _fmt(gradient_integral(grid, grad, q))] for q in qs]
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "spec": _spec_echo(args, levels=level_ns),
        "warnings": regime.warnings,
        "report": asdict(reg),
    }
    _write_json(out_dir / "regularity.json", payload)

    with open(out_dir / "sobolev.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "q", "integral"])
        writer.writerows(rows)
    _write_manifest(out_dir, payload["spec"], outputs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The sel parser, built once per process; parse_args keeps no state in
    it, so every call starts from the same defaults."""
    parser = _Parser(prog="sel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="solve one instance")
    p_sweep = sub.add_parser("sweep", help="run an (alpha, beta) table")
    p_spec = sub.add_parser("spectrum", help="lambda1/mu1 per refinement level")
    p_reg = sub.add_parser("regularity", help="regularity report over a ladder")

    # the common flags; only solve takes --n, the ladder commands --levels
    for p in (p_solve, p_spec, p_reg):
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, default=0.0)
        p.add_argument("--domain", choices=["interval", "rectangle"], default="interval")
        if p is p_solve:
            p.add_argument("--n", type=int, default=64)
        p.add_argument("--tol", type=float, default=SolveConfig.tol)
        p.add_argument("--max-iter", type=int, default=SolveConfig.max_iter)
        p.add_argument("--out", required=True)

    p_sweep.add_argument("--alpha-list", required=True)
    p_sweep.add_argument("--beta-list", required=True)
    p_sweep.add_argument("--domain", choices=["interval", "rectangle"], default="interval")
    p_sweep.add_argument("--n", type=int, default=128)
    p_sweep.add_argument("--tol", type=float, default=SolveConfig.tol)
    p_sweep.add_argument("--out", required=True)

    for p in (p_spec, p_reg):
        p.add_argument("--levels", required=True, help="comma list of n values")
    p_reg.add_argument("--q-grid", default=None, help="comma list of q values for sobolev.csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = {"solve": cmd_solve, "sweep": cmd_sweep, "spectrum": cmd_spectrum,
           "regularity": cmd_regularity}[args.command]
    try:
        run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
