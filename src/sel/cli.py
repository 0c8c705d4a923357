"""Command-line laboratory: solve, sweep, spectrum, regularity.

Subcommands
    solve       one instance; writes report.json + solution.csv
    sweep       (alpha, beta) table of exponents and verdicts; writes CSV
    spectrum    lambda_1 / mu_1 per refinement level + stability verdict
    regularity  full regularity report over a refinement ladder

Exit codes: 0 success, 1 invalid input (ValueError), 2 numerical
non-convergence: an unconverged ladder level or any
linear_core.SolverFailure (a solver or certificate failed on valid input).
Stopping defaults (--tol, --max-iter) are SolveConfig's.
Everything is deterministic: identical flags give byte-identical
report/CSV files.  A manifest.json with versions and a timestamp is
written next to each report; the timestamp lives only there.
SEL_THREADS caps the sweep worker pool.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    WindowTooThinError,
    asymptotic_window,
    default_window,
    fit_boundary_exponent,
    fit_gradient_exponent,
    gradient_field,
    q_bar_from_sigma,
    regularity_report,
    sobolev_integral,
)
from .barriers import BORDERLINE_WARNING, Regime, build_barrier_pair, resolve_regime
from .grid import Grid, build_grid, interval, rectangle
from .linear_core import SolverFailure
from .monotone import residual, solve_ladder, uniqueness_gap
from .oracle import DENSE_N_CAP, newton_solve
from .problem import SolveConfig
from .spectral import dirichlet_eigenpair, linearized_smallest_eigenvalue

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems are invalid input, exit code 1 (argparse defaults to 2,
    # which is reserved for non-convergence here).
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_solution_csv(path: Path, grid: Grid, table: np.ndarray) -> None:
    """Header line, then one CRLF row of table per node, each value as %.17g:
    the bytes of np.savetxt(fmt="%.17g", delimiter=",", newline="\\r\\n").
    One % over a row template repeated along a grid line replaces savetxt's
    per-row loop and keeps the strings held at once to one line's worth."""
    header = ("x," if grid.dim == 1 else "x,y,") + "d,u,grad_u"
    lines = table.reshape(-1, grid.interior_shape[-1], table.shape[1])
    template = (",".join(["%.17g"] * table.shape[1]) + "\r\n") * lines.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for line in lines:
            fh.write(template % tuple(line.ravel().tolist()))


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
    # Boundary-law fits need a meaningful distance band; fall back to the
    # wide default window on coarse grids and to nulls when even that is
    # too thin to regress over.
    for window_of in (asymptotic_window, default_window):
        try:
            window = window_of(grid)
            t_fit, _ = fit_boundary_exponent(grid, u, window)
            return t_fit, fit_gradient_exponent(grid, u, window)
        except ValueError:  # WindowTooThinError is one
            continue
    return None, None


def _check_fit_window(domain: str, n: int) -> None:
    """ValueError (exit 1) if the n grid cannot host regularity_report's fits."""
    grid = build_grid(_domain(domain), n)
    try:
        fit_boundary_exponent(grid, grid.d, asymptotic_window(grid))
    except WindowTooThinError as exc:
        raise ValueError(f"n={n} is too coarse for the boundary fit: {exc}") from exc


def _admitted_regime(alpha: float, beta: float) -> Regime:
    """resolve_regime under the CLI's borderline policy: alpha+beta = 1 is
    invalid input (ValueError, exit 1) except the documented alpha=1, beta=0
    case, which proceeds through the t=1 limit with its warning."""
    regime = resolve_regime(alpha, beta)
    if BORDERLINE_WARNING in regime.warnings:
        raise ValueError("alpha+beta=1 is the excluded borderline regime")
    return regime


def _spec_echo(args, method: str | None = None) -> dict:
    echo = {
        "alpha": args.alpha,
        "beta": args.beta,
        "domain": args.domain,
        "n": args.n,
        "tol": args.tol,
        "max_iter": args.max_iter,
    }
    if method is not None:
        echo["method"] = method
        echo["eps"] = getattr(args, "eps", None)
    return echo


def _ladder(args, ns):
    """solve_ladder over ns for the common flags; None, after an error line,
    when a level does not converge."""
    config = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    levels = solve_ladder(args.alpha, args.beta, _domain(args.domain), ns, config)
    if levels and not levels[-1].report.converged:
        print(f"error: no convergence at n={levels[-1].grid.n}", file=sys.stderr)
        return None
    return levels


def cmd_solve(args) -> int:
    regime = _admitted_regime(args.alpha, args.beta)
    if args.method == "dense" and args.n > DENSE_N_CAP:
        print(f"error: --method dense requires --n <= {DENSE_N_CAP}", file=sys.stderr)
        return EXIT_INVALID
    if args.method == "regularized" and not (math.isfinite(args.eps) and args.eps > 0):
        print(f"error: --eps must be positive and finite, got {args.eps}", file=sys.stderr)
        return EXIT_INVALID

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = SolveConfig(tol=args.tol, max_iter=args.max_iter)
    if args.method == "monotone":
        (level,) = solve_ladder(args.alpha, args.beta, _domain(args.domain), [args.n], config)
        grid, eig, pair, rep = level.grid, level.eig, level.pair, level.report
        u, converged = rep.upper, rep.converged
        solve_block = {
            "method": args.method,
            "iterations": rep.iterations,
            "gap_history": rep.gap_history,
            "converged": converged,
            "ordering_violation": rep.ordering_violation,
            "uniqueness_gap": uniqueness_gap(rep) if converged else None,
        }
    else:
        grid = build_grid(_domain(args.domain), args.n)
        eig = dirichlet_eigenpair(grid)
        pair = build_barrier_pair(grid, args.alpha, args.beta, eig)
        converged = True
        solve_block = {
            "method": args.method,
            "iterations": None,
            "gap_history": [],
            "converged": True,
        }
        if args.method == "regularized":
            u = newton_solve(grid, args.alpha, args.beta, pair.super, tol=args.tol, eps=args.eps)
            solve_block["eps"] = args.eps
        else:
            u = newton_solve(
                grid, args.alpha, args.beta, pair.super, tol=min(args.tol, 1e-12), dense=True
            )
    mu = linearized_smallest_eigenvalue(grid, u, args.alpha, args.beta, tol=1e-10)
    t_fit, sigma_fit = _fit_exponents_best_effort(grid, u)
    report = {
        "spec": _spec_echo(args, args.method),
        "warnings": regime.warnings,
        "barrier": {
            "c": pair.c,
            "C": pair.C,
            "t": pair.t,
            "c1": pair.c1,
            "c2": pair.c2,
        },
        "solve": solve_block,
        "spectral": {"lambda1": eig.value, "mu1": mu.value, "stable": mu.value > 0.0},
        "regularity": {
            "t_fit": t_fit,
            "sigma_fit": sigma_fit,
            "q_bar_est": None if sigma_fit is None else q_bar_from_sigma(sigma_fit),
            "q_bar_theory": regime.q_bar,
            "h1_verdict": "needs >= 3 levels",
        },
        "residuals": {"solution": residual(grid, u, args.alpha, args.beta)},
    }
    _write_json(out_dir / "report.json", report)

    _write_solution_csv(
        out_dir / "solution.csv",
        grid,
        np.column_stack([grid.points(), grid.d, u, gradient_field(grid, u)]),
    )
    _write_manifest(out_dir, report["spec"], ["report.json", "solution.csv"])
    if not converged:
        print(f"error: no convergence at n={grid.n}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


SWEEP_FIELDS = ("alpha", "beta", "t_theory", "t_fit", "sigma_theory", "sigma_fit",
                "q_bar_theory", "q_bar_est", "h1_verdict")


def _sweep_cell(cell) -> dict:
    alpha, beta, domain, n, tol = cell
    row = {**dict.fromkeys(SWEEP_FIELDS, ""), "alpha": alpha, "beta": beta}
    regime = resolve_regime(alpha, beta)
    if regime.warnings:
        row["h1_verdict"] = "skipped: borderline alpha+beta=1"
        return row
    # theory columns never need a solve
    row.update(t_theory=regime.t, sigma_theory=regime.sigma, q_bar_theory=regime.q_bar)
    try:
        config = SolveConfig(tol=tol)
        ladder = solve_ladder(alpha, beta, _domain(domain), (n // 4, n // 2, n), config)
        if not ladder[-1].report.converged:
            row["h1_verdict"] = f"skipped: no convergence at n={ladder[-1].grid.n}"
            return row
        levels = [(level.grid, level.report.upper) for level in ladder]
        reg = regularity_report(levels, alpha, beta)
        row.update(
            t_fit=reg.t_fit,
            sigma_fit=reg.sigma_fit,
            q_bar_est=reg.q_bar_est,
            h1_verdict=reg.verdicts.get("h1", ""),
        )
        if reg.verdicts.get("q_bar_consistency") is False:
            # no certified estimate at this resolution; the JSON report from
            # the regularity command carries the full verdict detail
            row["q_bar_est"] = ""
    except Exception as exc:  # noqa: BLE001 - a sweep keeps going per cell
        row["h1_verdict"] = f"skipped: {type(exc).__name__}: {exc}"
    return row


def cmd_sweep(args) -> int:
    alphas = [float(a) for a in args.alpha_list.split(",") if a]
    betas = [float(b) for b in args.beta_list.split(",") if b]
    if not alphas or not betas:
        print("error: empty --alpha-list / --beta-list", file=sys.stderr)
        return EXIT_INVALID
    if args.n % 4 != 0:
        print("error: sweep needs --n divisible by 4", file=sys.stderr)
        return EXIT_INVALID
    cells = [(a, b, args.domain, args.n, args.tol) for a in alphas for b in betas]
    for alpha, beta, *_ in cells:
        resolve_regime(alpha, beta)  # out-of-range input: ValueError, exit 1
    _check_fit_window(args.domain, args.n)
    workers = int(os.environ.get("SEL_THREADS", os.cpu_count() or 1))
    workers = max(1, min(workers, len(cells)))
    if workers == 1:
        rows = [_sweep_cell(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_FIELDS)
        for row in rows:
            writer.writerow([_fmt(row[f]) for f in SWEEP_FIELDS])
    _write_manifest(out.parent, {"alphas": alphas, "betas": betas, "n": args.n}, [out.name])
    return EXIT_OK


def cmd_spectrum(args) -> int:
    regime = _admitted_regime(args.alpha, args.beta)
    level_ns = [int(v) for v in args.levels.split(",") if v]
    if not level_ns:
        print("error: need at least 1 refinement level", file=sys.stderr)
        return EXIT_INVALID
    levels = _ladder(args, level_ns)
    if levels is None:
        return EXIT_NO_CONVERGENCE
    rows = []
    for level in levels:
        mu = linearized_smallest_eigenvalue(
            level.grid, level.report.upper, args.alpha, args.beta, tol=1e-10
        )
        rows.append({"n": level.grid.n, "lambda1": level.eig.value, "mu1": mu.value})
    payload = {
        "spec": _spec_echo(args),
        "warnings": regime.warnings,
        "levels": rows,
        "stable": all(r["mu1"] > 0.0 for r in rows),
        "ordered": all(r["mu1"] >= r["lambda1"] for r in rows),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    _write_manifest(out.parent, payload["spec"], [out.name])
    return EXIT_OK


def cmd_regularity(args) -> int:
    regime = _admitted_regime(args.alpha, args.beta)
    level_ns = [int(v) for v in args.levels.split(",") if v]
    if len(level_ns) < 2:
        print("error: need at least 2 refinement levels", file=sys.stderr)
        return EXIT_INVALID
    if any(coarse >= fine for coarse, fine in zip(level_ns, level_ns[1:])):
        raise ValueError(f"--levels must strictly increase, got {args.levels!r}")
    q_grid = [float(q) for q in args.q_grid.split(",") if q] if args.q_grid else None
    if q_grid is not None and not (q_grid and all(math.isfinite(q) and q >= 1.0 for q in q_grid)):
        raise ValueError(f"--q-grid needs finite values >= 1, got {args.q_grid!r}")
    _check_fit_window(args.domain, level_ns[-1])

    ladder = _ladder(args, level_ns)
    if ladder is None:
        return EXIT_NO_CONVERGENCE
    levels = [(level.grid, level.report.upper) for level in ladder]

    reg = regularity_report(levels, args.alpha, args.beta, q_grid=q_grid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "spec": _spec_echo(args),
        "warnings": regime.warnings,
        "report": asdict(reg),
    }
    _write_json(out_dir / "regularity.json", payload)

    qs = q_grid or [1.5, 2.0, 3.0]
    with open(out_dir / "sobolev.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "q", "integral"])
        for grid, u in levels:
            for q in qs:
                writer.writerow([grid.n, _fmt(float(q)), _fmt(sobolev_integral(grid, u, q))])
    _write_manifest(out_dir, payload["spec"], ["regularity.json", "sobolev.csv"])
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--domain", choices=["interval", "rectangle"], default="interval")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--tol", type=float, default=SolveConfig.tol)
    p.add_argument("--max-iter", type=int, default=SolveConfig.max_iter)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_common(p_solve)
    p_solve.add_argument("--method", choices=["monotone", "regularized", "dense"], default="monotone")
    p_solve.add_argument("--eps", type=float, default=1e-5, help="regularization for --method regularized")

    p_sweep = sub.add_parser("sweep", help="run an (alpha, beta) table")
    p_sweep.add_argument("--alpha-list", required=True)
    p_sweep.add_argument("--beta-list", required=True)
    p_sweep.add_argument("--domain", choices=["interval", "rectangle"], default="interval")
    p_sweep.add_argument("--n", type=int, default=128)
    p_sweep.add_argument("--tol", type=float, default=SolveConfig.tol)
    p_sweep.add_argument("--out", required=True)

    p_spec = sub.add_parser("spectrum", help="lambda1/mu1 per refinement level")
    _add_common(p_spec)
    p_spec.add_argument("--levels", required=True, help="comma list of n values")

    p_reg = sub.add_parser("regularity", help="regularity report over a ladder")
    _add_common(p_reg)
    p_reg.add_argument("--levels", required=True, help="comma list of n values")
    p_reg.add_argument("--q-grid", default=None, help="comma list of q values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        return cmd_regularity(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverFailure as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
