import csv
import errno
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from sel import analysis, cli, linear_core
from sel import grid as grid_module
from sel.analysis import gradient_field
from sel.barriers import BORDERLINE_WARNING
from sel.cli import main
from sel.grid import build_grid, interval, rectangle
from sel.linear_core import ComparisonPrincipleViolationError, SolverFailure
from sel.monotone import solve_ladder
from sel.oracle import observed_order
from sel.problem import SolveConfig

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


def read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text())


def test_solve_linear_case(tmp_path):
    out = tmp_path / "a0"
    code = main(["solve", "--alpha", "0", "--beta", "0", "--n", "64", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    rows = list(csv.DictReader((out / "solution.csv").read_text().splitlines()))
    mid = next(r for r in rows if float(r["x"]) == 0.5)
    assert abs(float(mid["u"]) - 0.125) <= 1e-12
    assert set(rows[0]) == {"x", "d", "u", "grad_u"}
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("n", [18, 24, 33, 40])
@pytest.mark.parametrize("beta", ["1.5", "1.9"])
def test_rectangle_linear_case_above_the_split_keeps_its_chain(tmp_path, beta, n):
    # sizes at which this command once ended in OrderingViolationError (exit 2)
    out = tmp_path / "lin"
    argv = ["solve", "--domain", "rectangle", "--alpha", "0", "--beta", beta, "--n", str(n)]
    assert main([*argv, "--out", str(out)]) == 0
    solve = read_report(out)["solve"]
    assert solve["converged"]
    assert solve["ordering_violation"] == 0.0


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_solve_reports_are_deterministic(tmp_path, domain):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        args = ["solve", "--domain", domain, "--alpha", "0.5", "--n", "32", "--tol", "1e-9"]
        assert main([*args, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "solution.csv").read_bytes() == (outs[1] / "solution.csv").read_bytes()


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
def test_the_shared_parser_carries_no_flag_into_the_next_run(tmp_path, domain):
    # a run with other flags between two identical ones: the second of
    # those writes the bytes of the first, and its spec has the defaults
    args = ["solve", "--domain", domain, "--alpha", "0.5", "--n", "32"]
    assert main([*args, "--out", str(tmp_path / "r1")]) == 0
    other = ["solve", "--domain", domain, "--alpha", "2", "--beta", "0.5", "--n", "16",
             "--tol", "1e-6", "--max-iter", "300"]
    assert main([*other, "--out", str(tmp_path / "other")]) == 0
    assert main([*args, "--out", str(tmp_path / "r2")]) == 0
    for name in ("report.json", "solution.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()
    spec = read_report(tmp_path / "r2")["spec"]
    assert (spec["beta"], spec["tol"], spec["max_iter"]) == (
        0.0, SolveConfig.tol, SolveConfig.max_iter)


@pytest.mark.parametrize("domain, n", [("interval", 64), ("rectangle", 16)])
def test_solution_csv_rendering(tmp_path, domain, n):
    out = tmp_path / domain
    assert main(["solve", "--domain", domain, "--alpha", "2", "--n", str(n), "--out", str(out)]) == 0
    (level,) = solve_ladder(2.0, 0.0, cli._domain(domain), [n], SolveConfig())
    grid, u = level.grid, level.report.upper
    expected = np.column_stack([grid.points(), grid.d, u, gradient_field(grid, u)])
    lines = (out / "solution.csv").read_bytes().decode().split("\r\n")
    assert lines[-1] == "" and not any("\n" in line for line in lines)
    assert lines[0] == ("x,d,u,grad_u" if domain == "interval" else "x,y,d,u,grad_u")
    rows = [line.split(",") for line in lines[1:-1]]
    assert rows == [[f"{float(v):.17g}" for v in row] for row in expected]


def savetxt_bytes(path: Path, grid, u, grad) -> bytes:
    """np.savetxt's bytes of the full solution.csv table, header included."""
    table = np.column_stack([grid.points(), grid.d, u, grad])
    header = ("x," if grid.dim == 1 else "x,y,") + "d,u,grad_u"
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments="")
    return path.read_bytes()


def sine_field(grid):
    """A positive field and a signed one for the grad_u column, which the
    writer takes as it comes."""
    x = grid.points() / grid.shape.extents
    return np.prod(np.sin(np.pi * x), axis=1) / 3.0, np.cos(np.pi * x[:, 0]) / 3.0


# n=2 has one node; at 3000 and odd n the d values are not all x values
# (1 - x is not a grid coordinate), and odd unit squares tie in d
@pytest.mark.parametrize(
    "shape, n",
    [(interval(1.0), 64), (rectangle(2.0, 0.5), 12), (interval(1.0), 2), (interval(1.0), 3000),
     (rectangle(1.0, 1.0), 3), (rectangle(1.0, 1.0), 17)],
)
def test_solution_csv_writer_matches_savetxt(tmp_path, shape, n):
    grid = build_grid(shape, n)
    u, grad = sine_field(grid)
    if n > 2:  # negative on the far half
        assert grad.min() < 0.0 < grad.max()
    cli._write_solution_csv(tmp_path / "solution.csv", grid, u, grad)
    expected = savetxt_bytes(tmp_path / "savetxt.csv", grid, u, grad)
    assert (tmp_path / "solution.csv").read_bytes() == expected


@pytest.mark.parametrize("shape, n", [(interval(1.0), 256), (rectangle(1.0, 1.0), 17)])
def test_solution_csv_bytes_survive_the_grid_cache(tmp_path, shape, n):
    # the row templates cached on the grid write the same bytes twice, and
    # again on the grid rebuilt after GRID_CACHE_SIZE others pushed it out
    grid = build_grid(shape, n)
    u, grad = sine_field(grid)
    paths = [tmp_path / f"w{i}.csv" for i in range(3)]
    cli._write_solution_csv(paths[0], grid, u, grad)
    cli._write_solution_csv(paths[1], grid, u, grad)
    for m in range(2, grid_module.GRID_CACHE_SIZE + 2):
        build_grid(interval(1.0), 1000 + m)
    rebuilt = build_grid(shape, n)
    assert rebuilt is not grid and "csv_templates" not in rebuilt._facts
    cli._write_solution_csv(paths[2], rebuilt, u, grad)
    expected = savetxt_bytes(tmp_path / "savetxt.csv", grid, u, grad)
    assert [p.read_bytes() for p in paths] == [expected] * 3


def test_solve_singular_case_schema_and_spectral(tmp_path):
    out = tmp_path / "a2"
    code = main(["solve", "--alpha", "2", "--beta", "0", "--n", "256", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["spec"]["method"] == report["solve"]["method"] == "monotone"
    assert "eps" not in report["spec"] and "eps" not in report["solve"]
    assert report["solve"]["converged"]
    assert report["spectral"]["mu1"] >= report["spectral"]["lambda1"] > 0
    assert report["regularity"]["q_bar_theory"] == 3.0
    assert report["barrier"]["t"] == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("block", ["spec", "solve"])
@pytest.mark.parametrize("method", ["regularized", "dense"])
def test_report_schema_admits_only_the_monotone_method(tmp_path, block, method):
    # every sel solve report is the monotone enclosure or a typed failure
    assert main(["solve", "--alpha", "2", "--n", "16", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    jsonschema.validate(report, SCHEMA)
    report[block]["method"] = method
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
@pytest.mark.parametrize("block", ["spec", "barrier", "solve", "spectral", "regularity", "residuals"])
def test_report_schema_rejects_a_stray_key(tmp_path, domain, block):
    # a report carries exactly the keys the schema lists, an eps echo included
    assert main(["solve", "--domain", domain, "--alpha", "2", "--n", "16", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    jsonschema.validate(report, SCHEMA)
    report[block]["eps"] = 0.0
    with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
        jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize(
    "domain, alpha, n",
    [("interval", "0.5", 16), ("rectangle", "2", 32), ("rectangle", "2", 33),
     ("interval", "2", 80), ("interval", "2", 89), ("rectangle", "2", 56)],
)
def test_solve_too_coarse_for_fits_reports_null(tmp_path, domain, alpha, n):
    # Rectangle bands at n 32 and 33 hold enough nodes but too few distance
    # layers to regress over.  Intervals at n 80 and 89 and the rectangle at
    # 56 are the grids sweep and regularity refuse: too few nodes or layers
    # in asymptotic_window, the one fit band, so no exponent is written.
    # n = 89 is the finest such interval: from n = 90 the band holds 4
    # layers of 2 nodes, one per wall.
    out = tmp_path / "coarse"
    argv = ["solve", "--domain", domain, "--alpha", alpha, "--n", str(n), "--out", str(out)]
    code = main(argv)
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    assert [report["regularity"][k] for k in ("t_fit", "sigma_fit", "q_bar_est")] == [None] * 3


@pytest.mark.parametrize(
    "domain, n", [("interval", 256), ("interval", 4096), ("rectangle", 64), ("rectangle", 128)]
)
def test_solve_regularity_block_is_the_one_level_report(tmp_path, domain, n):
    # solve's block is the one-level regularity_report, and its fits are the
    # ones perfbench/record_reference.py reads through the cli helper
    out = tmp_path / domain
    assert main(["solve", "--domain", domain, "--alpha", "2", "--n", str(n), "--out", str(out)]) == 0
    block = read_report(out)["regularity"]
    (level,) = solve_ladder(2.0, 0.0, cli._domain(domain), [n], SolveConfig())
    reg = analysis.regularity_report([(level.grid, level.report.upper)], 2.0, 0.0)
    assert block == {
        "t_fit": reg.t_fit,
        "sigma_fit": reg.sigma_fit,
        "q_bar_est": reg.q_bar_est,
        "q_bar_theory": reg.q_bar_theory,
        "h1_verdict": reg.verdicts["h1"],
    }
    assert cli._fit_exponents_best_effort(level.grid, level.report.upper) == (
        reg.t_fit, reg.sigma_fit)


def test_solve_alpha_one_warns_but_runs(tmp_path):
    out = tmp_path / "a1"
    code = main(["solve", "--alpha", "1", "--beta", "0", "--n", "64", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["warnings"] == [BORDERLINE_WARNING]
    spectrum = tmp_path / "s.json"
    assert main(["spectrum", "--alpha", "1", "--levels", "16,32", "--out", str(spectrum)]) == 0
    assert json.loads(spectrum.read_text())["warnings"] == [BORDERLINE_WARNING]


def test_solve_borderline_matches_the_exact_solution(tmp_path):
    # (0, 1) is linear with the exact solution u = d (1 - log 2d): the
    # borderline's log law, certified and first order in h
    errors, hs = [], []
    for n in (256, 512, 1024):
        out = tmp_path / str(n)
        assert main(["solve", "--alpha", "0", "--beta", "1", "--n", str(n), "--out", str(out)]) == 0
        assert read_report(out)["warnings"] == [BORDERLINE_WARNING]
        rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        d, u = rows[:, 1], rows[:, 2]
        exact = d * (1.0 - np.log(2.0 * d))
        errors.append(float(np.max(np.abs(u - exact)) / np.max(exact)))
        hs.append(1.0 / n)
        assert errors[-1] * n == pytest.approx(1.0, rel=1e-3), (n, errors[-1])
    order, reliable = observed_order(errors, hs)
    assert reliable
    assert order == pytest.approx(1.0, abs=0.01)


# a borderline run of each command that writes JSON, with its --out and the
# JSON it writes; sweep's borderline cell is in test_sweep_table
BORDERLINE_RUNS = {
    "solve": (["solve", "--alpha", "0.6", "--beta", "0.4"], "out", "out/report.json"),
    "spectrum": (["spectrum", "--alpha", "0.6", "--beta", "0.4", "--levels", "16"],
                 "s.json", "s.json"),
    "regularity": (["regularity", "--alpha", "0.6", "--beta", "0.4", "--levels", "64,128,256"],
                   "out", "out/regularity.json"),
}


@pytest.mark.parametrize("domain", ["interval", "rectangle"])
@pytest.mark.parametrize("command", sorted(BORDERLINE_RUNS))
def test_every_command_admits_the_borderline(tmp_path, command, domain):
    argv, out, written = BORDERLINE_RUNS[command]
    assert main([*argv, "--domain", domain, "--out", str(tmp_path / out)]) == 0
    payload = json.loads((tmp_path / written).read_text())
    assert payload["warnings"] == [BORDERLINE_WARNING]
    if command == "regularity":
        report = payload["report"]
        assert (report["t_theory"], report["sigma_theory"]) == (1.0, 0.0)
        assert report["verdicts"]["h1"] == "member" and report["verdicts"]["h1_matches_theory"]


def test_invalid_inputs_exit_one(tmp_path):
    assert main(["solve", "--alpha", "0.5", "--n", "1", "--out", str(tmp_path)]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--out", str(tmp_path)])  # missing --alpha
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "2", "--tol", "nan"]],
)
def test_non_finite_inputs_exit_one(tmp_path, capsys, flags):
    assert main(["solve", *flags, "--n", "32", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "2", "--n", "64", "--tol", "1e-10", "--max-iter", "3"],
        ["--alpha", "0.5", "--beta", "1.5", "--n", "256", "--max-iter", "1"],
        ["--alpha", "2", "--domain", "rectangle", "--n", "32", "--tol", "1e-10", "--max-iter", "3"],
        ["--alpha", "0.5", "--domain", "rectangle", "--n", "17", "--max-iter", "1"],
    ],
)
def test_solver_failures_exit_two(tmp_path, capsys, flags):
    # a monotone level that runs out of --max-iter on either domain
    assert main(["solve", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: IterationLimitError: no convergence")


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "10"], ["--alpha", "2", "--beta", "1.9"]],
)
def test_far_parameter_range_certifies(tmp_path, flags):
    # the exact barrier scaling covers every alpha >= 0, 0 <= beta < 2
    assert main(["solve", *flags, "--n", "64", "--out", str(tmp_path)]) == 0
    solve = read_report(tmp_path)["solve"]
    assert solve["converged"]
    assert solve["ordering_violation"] == 0.0
    assert solve["gap_history"][-1] <= 1e-8


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "2", "--n", "256", "--tol", "1e-15"],
        ["--alpha", "0.5", "--n", "4096", "--tol", "1e-9"],
    ],
)
def test_tight_outer_tolerance_certifies(tmp_path, flags):
    # the inner solves run at a fixed tolerance, so a tight outer tol is
    # not turned into an unreachable inner residual
    assert main(["solve", *flags, "--out", str(tmp_path)]) == 0
    solve = read_report(tmp_path)["solve"]
    assert solve["converged"]
    assert solve["ordering_violation"] == 0.0
    assert solve["gap_history"][-1] <= float(flags[-1])


def test_fine_interval_certifies(tmp_path):
    # mu_1 comes from a direct tridiagonal eigensolver, with no inner
    # tolerance that the rounding floor of a fine grid could miss
    assert main(["solve", "--alpha", "2", "--n", "16384", "--out", str(tmp_path)]) == 0
    report = read_report(tmp_path)
    assert report["solve"]["ordering_violation"] == 0.0
    assert report["spectral"]["mu1"] >= report["spectral"]["lambda1"] > 0


@pytest.mark.parametrize("eps", ["nan", "inf", "0", "-1"])
def test_regularized_rejects_bad_eps(tmp_path, capsys, monkeypatch, eps):
    # the regularization is a library path (regularized.solve_regularized);
    # sel solve has no --eps, so any value is a usage error and nothing is solved
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved a rejected command"))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--alpha", "0.5", "--n", "16", "--eps", eps, "--out", str(out)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"sel: error: unrecognized arguments: --eps {eps}\n"
    assert not out.exists()


@pytest.mark.parametrize("error", SolverFailure.__subclasses__(), ids=lambda e: e.__name__)
def test_every_solver_failure_maps_to_exit_two(tmp_path, capsys, monkeypatch, error):
    def fail(*_args):
        raise error("injected")

    monkeypatch.setattr(cli, "solve_ladder", fail)
    out = tmp_path / "out"
    assert main(["solve", "--alpha", "0.5", "--n", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error.__name__}: injected\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alpha", "0", "--beta", "1.9999999999", "--n", "1024"],
        ["solve", "--alpha", "0.5", "--beta", "1.99999999999", "--n", "256"],
        ["spectrum", "--alpha", "0.5", "--beta", "1.99999999999", "--levels", "256"],
    ],
    ids=["solve-0", "solve-0.5", "spectrum-0.5"],
)
def test_margin_past_the_subsolution_scale_exits_two(tmp_path, capsys, argv):
    # valid input near beta = 2, where no positive sub constant survives the
    # round-off margin: a typed barrier failure, not invalid input
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BarrierConstructionError: round-off margin exceeds the subsolution scale")
    assert err.count("\n") == 1
    assert not out.exists()


def test_sweep_records_the_margin_failure_as_a_skipped_cell(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "0.5", "--beta-list", "1.99999999999", "--n", "256"]
    assert main([*argv, "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["h1_verdict"].startswith(
        "skipped: BarrierConstructionError: round-off margin exceeds the subsolution scale"
    )


# Valid sizes whose arrays exceed a 1.5 GB address space: the grid's axes
# (interval, and a sweep's fit-window check) and the kron sum (unit square).
# Run only under the limit; without it the kernel may kill the process first.
OUT_OF_MEMORY = {
    "solve-interval": ["solve", "--alpha", "2", "--n", "400000000"],
    "solve-rectangle": ["solve", "--domain", "rectangle", "--alpha", "2", "--n", "4096"],
    "sweep": ["sweep", "--alpha-list", "2", "--beta-list", "0", "--n", "400000000"],
}


@pytest.mark.parametrize("argv", OUT_OF_MEMORY.values(), ids=OUT_OF_MEMORY.keys())
def test_out_of_memory_exits_two(tmp_path, argv):
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sel.cli", *argv, "--out", str(out / "s.csv")],
        env=env, preexec_fn=limit_address_space, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: MemoryError: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def iteration_limit(n: int, tol: float, max_iter: int) -> str:
    """'<Type>: <message>' of an interval alpha=2 level that runs out of max_iter."""
    (level,) = solve_ladder(2.0, 0.0, interval(), [n], SolveConfig(tol=tol, max_iter=max_iter))
    rep = level.report
    assert not rep.converged and rep.iterations == max_iter
    return (
        f"IterationLimitError: no convergence at n={n}: gap {rep.gap_history[-1]:.3e}"
        f" > tol {tol:.3e} after {max_iter} iterations"
    )


def test_non_convergence_exits_two(tmp_path, capsys):
    # the unconverged solve is still written out, then reported as a failure
    out = tmp_path / "short"
    code = main(
        ["solve", "--alpha", "2", "--n", "64", "--tol", "1e-10", "--max-iter", "3", "--out", str(out)]
    )
    assert code == 2
    assert not read_report(out)["solve"]["converged"]
    assert (out / "manifest.json").exists()
    assert capsys.readouterr().err == f"error: {iteration_limit(64, 1e-10, 3)}\n"


@pytest.mark.parametrize("command", ["spectrum", "regularity"])
def test_ladder_non_convergence_exits_two(tmp_path, capsys, command):
    out = tmp_path / "ladder"
    argv = [command, "--alpha", "2", "--levels", "64,128", "--tol", "1e-10", "--max-iter", "1"]
    assert main([*argv, "--out", str(out / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: {iteration_limit(64, 1e-10, 1)}\n"
    assert not out.exists()


# Every invalid-input path of the four commands and its one stderr line; no
# command makes its output path before its checks pass.  A usage error is
# argparse's "sel: error:" line (solve has no --method or --eps), the rest
# main's "error:" line.
INVALID_INPUTS = [
    (["solve", "--alpha", "-1"], "alpha must be finite and >= 0, got -1.0"),
    (["solve", "--alpha", "0.5", "--beta", "2"], "beta must satisfy 0 <= beta < 2, got 2.0"),
    (["solve", "--alpha", "0.5", "--n", "128", "--method", "dense"],
     "unrecognized arguments: --method dense"),
    (["solve", "--alpha", "0.5", "--method", "regularized", "--eps", "nan"],
     "unrecognized arguments: --method regularized --eps nan"),
    (["solve", "--alpha", "0.5", "--n", "1"], "need n >= 2 subdivisions, got n=1"),
    (["solve", "--alpha", "0.5", "--tol", "nan"], "tol must be positive and finite, got nan"),
    (["solve", "--alpha", "0.5", "--max-iter", "0"], "max_iter must be >= 1"),
    (["sweep", "--alpha-list", ",", "--beta-list", "0"], "empty --alpha-list / --beta-list"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", ""], "empty --alpha-list / --beta-list"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "130"],
     "sweep needs --n divisible by 4"),
    (["sweep", "--alpha-list", "-1", "--beta-list", "0"],
     "alpha must be finite and >= 0, got -1.0"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--tol", "0"],
     "tol must be positive and finite, got 0.0"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "64"],
     "n=64 is too coarse for the boundary fit: only 2 usable nodes on 1 distance layers"
     " in d-band [0.0938, 0.1]"),
    (["spectrum", "--alpha", "2", "--levels", ","], "need at least 1 refinement level"),
    (["spectrum", "--alpha", "2", "--levels", "32,16"],
     "--levels must strictly increase, got '32,16'"),
    (["spectrum", "--alpha", "2", "--levels", "16,x"],
     "invalid literal for int() with base 10: 'x'"),
    (["spectrum", "--alpha", "2", "--levels", "1"], "need n >= 2 subdivisions, got n=1"),
    (["spectrum", "--alpha", "2", "--levels", "16", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["spectrum", "--alpha", "2", "--levels", "16", "--max-iter", "0"],
     "max_iter must be >= 1"),
    (["regularity", "--alpha", "2", "--levels", "256"], "need at least 2 refinement levels"),
    (["regularity", "--alpha", "2", "--levels", "512,256"],
     "--levels must strictly increase, got '512,256'"),
    (["regularity", "--alpha", "2", "--levels", "256,512", "--q-grid", "0.5"],
     "--q-grid needs finite values >= 1, got '0.5'"),
    (["regularity", "--alpha", "2", "--levels", "16,32,64"],
     "n=64 is too coarse for the boundary fit: only 2 usable nodes on 1 distance layers"
     " in d-band [0.0938, 0.1]"),
    (["regularity", "--alpha", "2", "--levels", "256,512", "--tol", "nan"],
     "tol must be positive and finite, got nan"),
    (["regularity", "--alpha", "2", "--levels", "2,128"],
     "regularity needs levels n >= 3 (n=2 has one node and a zero gradient), got n=2"),
]


@pytest.mark.parametrize(
    "argv, message", INVALID_INPUTS, ids=[" ".join(c[0]) for c in INVALID_INPUTS]
)
def test_invalid_input_exits_one_with_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / ("s.csv" if argv[0] == "sweep" else "out")
    try:
        code, line = main([*argv, "--out", str(out)]), f"error: {message}\n"
    except SystemExit as exc:
        code, line = exc.code, f"sel: error: {message}\n"
    assert code == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


# --out paths that cannot be written, one case per command and kind, as
# (argv, the blocker to make under tmp_path, the --out under tmp_path, and
# the path the error names); each is refused before solving
UNWRITABLE_OUT = [
    (["solve", "--alpha", "2", "--n", "64"], "file", "file", "file"),
    (["solve", "--alpha", "2", "--n", "64"], "file", "file/sub", "file"),
    (["solve", "--alpha", "2", "--n", "64"], "dir/report.json/", "dir", "dir/report.json"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "128"], "dir/", "dir", "dir"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "128"], "file", "file/s.csv",
     "file"),
    (["spectrum", "--alpha", "2", "--levels", "16,32"], "dir/", "dir", "dir"),
    (["spectrum", "--alpha", "2", "--levels", "16,32"], "dir/manifest.json/", "dir/s.json",
     "dir/manifest.json"),
    (["regularity", "--alpha", "2", "--levels", "128,256"], "file", "file", "file"),
    (["regularity", "--alpha", "2", "--levels", "128,256"], "file", "file/a/b", "file"),
]


@pytest.mark.parametrize(
    "argv, blocker, out, named", UNWRITABLE_OUT,
    ids=[f"{c[0][0]} {c[1]} {c[2]}" for c in UNWRITABLE_OUT],
)
def test_unwritable_out_exits_one_before_solving(tmp_path, capsys, monkeypatch, argv, blocker,
                                                 out, named):
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    target = tmp_path / blocker
    if blocker.endswith("/"):
        target.mkdir(parents=True)
    else:
        target.write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", str(tmp_path / out)]) == 1
    kind = "a directory" if blocker.endswith("/") else "not a directory"
    assert capsys.readouterr().err == f"error: --out: {tmp_path / named} is {kind}\n"
    assert sorted(tmp_path.rglob("*")) == before
    if target.is_file():
        assert target.read_text() == "kept"


@pytest.mark.parametrize("command", ["solve", "sweep", "spectrum", "regularity"])
def test_out_without_write_permission_exits_one(tmp_path, capsys, monkeypatch, command):
    # the nearest existing directory must be writable (root writes anywhere,
    # so the permission check is stood in for)
    argv = {"solve": ["solve", "--alpha", "2"],
            "sweep": ["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "128"],
            "spectrum": ["spectrum", "--alpha", "2", "--levels", "16,32"],
            "regularity": ["regularity", "--alpha", "2", "--levels", "128,256"]}[command]
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != tmp_path)
    assert main([*argv, "--out", str(tmp_path / "new" / "out")]) == 1
    assert capsys.readouterr().err == f"error: --out: {tmp_path} is not writable\n"
    assert list(tmp_path.iterdir()) == []


# a writer per command that fails after _check_out passed, as a full disk would
FAILING_WRITERS = [
    (["solve", "--alpha", "2", "--n", "16"], "_write_solution_csv", "out"),
    (["spectrum", "--alpha", "2", "--levels", "16"], "_write_json", "out/s.json"),
    (["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "128"], "_write_manifest",
     "out/s.csv"),
]


@pytest.mark.parametrize("argv, writer, out", FAILING_WRITERS, ids=[c[0][0] for c in FAILING_WRITERS])
def test_oserror_while_writing_outputs_exits_one(tmp_path, capsys, monkeypatch, argv, writer, out):
    def full(*_):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, writer, full)
    assert main([*argv, "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_rectangle_solve_and_regularity(tmp_path):
    out = tmp_path / "solve"
    argv = ["solve", "--domain", "rectangle", "--alpha", "2", "--n", "64", "--out", str(out)]
    assert main(argv) == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    assert report["solve"]["ordering_violation"] == 0.0
    out = tmp_path / "reg"
    argv = ["regularity", "--domain", "rectangle", "--alpha", "2", "--levels", "32,64,128",
            "--out", str(out)]
    assert main(argv) == 0
    assert (out / "regularity.json").exists() and (out / "sobolev.csv").exists()


@pytest.mark.parametrize("n", [3, 5, 17, 127])
def test_rectangle_solve_any_n(tmp_path, capsys, n):
    # tiny, prime and odd n, on one-level and multi-level hierarchies; LOBPCG
    # warns on tiny problems, and no warning may reach the user
    out = tmp_path / f"r{n}"
    argv = ["solve", "--domain", "rectangle", "--alpha", "2", "--n", str(n), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert not caught
    assert capsys.readouterr().err == ""
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    assert report["solve"]["ordering_violation"] == 0.0
    assert report["spectral"]["mu1"] >= report["spectral"]["lambda1"] > 0.0


def test_sweep_table(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--alpha-list", "0.5,2",
            "--beta-list", "0,0.2,0.5",
            "--n", "128",
            "--tol", "1e-8",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = {(float(r["alpha"]), float(r["beta"])): r for r in csv.DictReader(out.read_text().splitlines())}
    assert len(rows) == 6
    assert float(rows[(2.0, 0.0)]["q_bar_theory"]) == 3.0
    assert float(rows[(2.0, 0.5)]["q_bar_theory"]) == 2.0
    assert rows[(0.5, 0.2)]["q_bar_theory"] == "inf"
    assert rows[(0.5, 0.2)]["h1_verdict"] == "member"
    # the borderline is solved like any cell, with the low regime's theory values
    assert (rows[(0.5, 0.5)]["sigma_theory"], rows[(0.5, 0.5)]["q_bar_theory"]) == ("0", "inf")
    assert rows[(0.5, 0.5)]["h1_verdict"] == "member"
    # the coarse sweep ladder is qualitative: the verdict only needs to be defined
    verdict = rows[(2.0, 0.0)]["h1_verdict"]
    assert any(verdict.startswith(v) for v in ("member", "non-member", "inconclusive"))
    assert float(rows[(2.0, 0.0)]["t_fit"]) > 0.4
    assert float(rows[(0.5, 0.0)]["t_theory"]) == 1.0


def test_sweep_is_deterministic(tmp_path):
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / f"{tag}.csv"
        args = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0", "--n", "128",
                "--out", str(out)]
        assert main(args) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # q_bar_est is blank exactly on an inconclusive H^1 verdict
    rows = {float(r["alpha"]): r for r in csv.DictReader(outs[0].read_text().splitlines())}
    for row in rows.values():
        assert (row["q_bar_est"] == "") == (row["h1_verdict"] == "inconclusive")
        assert row["q_bar_est"] == "" or float(row["q_bar_est"]) > 1.0


def test_in_process_sweeps_write_identical_bytes(tmp_path):
    # two sweeps in this process, with a solve of other flags between
    args = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0,0.3", "--n", "128"]
    assert main([*args, "--out", str(tmp_path / "s1.csv")]) == 0
    assert main(["solve", "--alpha", "2", "--beta", "0.3", "--n", "128",
                 "--out", str(tmp_path / "solve")]) == 0
    assert main([*args, "--out", str(tmp_path / "s2.csv")]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_in_process_sweep_assembles_each_ladder_grid_once(tmp_path, monkeypatch):
    # four cells share the n=128 ladder's three grids, the fit-window check its finest
    calls, assemble = [], grid_module._assemble
    monkeypatch.setattr(grid_module, "_assemble", lambda g: calls.append(g.n) or assemble(g))
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0,1.5", "--n", "128", "--out", str(out)]
    assert main(argv) == 0
    assert "skipped" not in out.read_text()
    assert sorted(calls) == [32, 64, 128]


def test_long_in_process_sweep_keeps_its_caches_bounded(tmp_path):
    # every cell adds its own exponents to the shared grids; the bounds hold
    argv = ["sweep", "--alpha-list", "0.25,0.5,2,2.5,3.5", "--beta-list", "0,0.3,1.5",
            "--n", "128", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    assert grid_module._shared_grid.cache_info().currsize == 3
    grids = [build_grid(interval(), n) for n in (32, 64, 128)]
    assert grid_module._shared_grid.cache_info().misses == 3
    assert all(len(g._weights) <= grid_module.WEIGHT_CACHE_SIZE for g in grids)


def test_sweep_blanks_the_estimates_of_non_monotone_increments(tmp_path, monkeypatch):
    # an inconclusive ladder has no sigma_est: its estimates are written blank
    def non_monotone(levels, alpha, beta):
        # the middle level's field halved: its energy drops to a quarter
        scales = iter((1.0, 0.5, 1.0))
        return analysis.regularity_report(
            [(g, next(scales) * g.d ** 0.8) for g, _ in levels], alpha, beta
        )

    monkeypatch.setattr(cli, "regularity_report", non_monotone)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "2", "--beta-list", "0", "--n", "128", "--out", str(out)]
    assert main(argv) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["h1_verdict"] == "inconclusive"
    assert row["sigma_fit"] == "" and row["q_bar_est"] == ""
    assert float(row["t_fit"]) > 0.4


def test_sweep_runs_every_cell_in_this_process(tmp_path, monkeypatch):
    # one path whatever the environment: a leftover SEL_THREADS, even an
    # invalid one, changes nothing
    calls, sweep_cell = [], cli._sweep_cell

    def counted(*cell):
        calls.append(cell[:2])
        return sweep_cell(*cell)

    monkeypatch.setattr(cli, "_sweep_cell", counted)
    outs = []
    for threads in (None, "abc"):
        out = tmp_path / f"{threads}.csv"
        with monkeypatch.context() as patch:
            if threads is None:
                patch.delenv("SEL_THREADS", raising=False)
            else:
                patch.setenv("SEL_THREADS", threads)
            argv = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0", "--n", "128",
                    "--out", str(out)]
            assert main(argv) == 0
        outs.append(out)
    assert calls == [(0.5, 0.0), (2.0, 0.0)] * 2
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_sweep_manifest_echoes_its_flags(tmp_path, monkeypatch):
    # the cells are stubbed, so the rectangle sweep solves nothing
    monkeypatch.setattr(cli, "_sweep_cell", lambda *_: dict.fromkeys(cli.SWEEP_FIELDS, ""))
    argv = ["sweep", "--domain", "rectangle", "--alpha-list", "0.5", "--beta-list", "0.5",
            "--n", "64", "--tol", "1e-6", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    spec = json.loads((tmp_path / "manifest.json").read_text())["spec"]
    assert spec == {"alphas": [0.5], "betas": [0.5], "domain": "rectangle", "n": 64, "tol": 1e-6}


def test_sweep_cell_records_an_unconverged_ladder(tmp_path, monkeypatch):
    def one_iteration(alpha, beta, shape, ns, config):
        return solve_ladder(alpha, beta, shape, ns, SolveConfig(tol=config.tol, max_iter=1))

    monkeypatch.setattr(cli, "solve_ladder", one_iteration)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "2", "--beta-list", "0", "--n", "128", "--tol", "1e-10",
            "--out", str(out)]
    assert main(argv) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["h1_verdict"] == f"skipped: {iteration_limit(32, 1e-10, 1)}"
    assert row["t_fit"] == "" and row["q_bar_theory"] == "3"


@pytest.mark.parametrize("error", [ValueError, ComparisonPrincipleViolationError])
def test_sweep_cell_records_the_failures_main_maps(tmp_path, monkeypatch, error):
    def fail(*_args):
        raise error("injected")

    monkeypatch.setattr(cli, "regularity_report", fail)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "2", "--beta-list", "0", "--n", "128", "--out", str(out)]
    assert main(argv) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert row["h1_verdict"] == f"skipped: {error.__name__}: injected"


def test_sweep_cell_lets_a_programming_error_through(tmp_path, monkeypatch):
    def fail(*_args):
        raise TypeError("injected")

    monkeypatch.setattr(cli, "regularity_report", fail)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "2", "--beta-list", "0", "--n", "128", "--out", str(out)]
    with pytest.raises(TypeError, match="injected"):
        main(argv)
    assert not out.exists()


def test_sweep_rejects_bad_n(tmp_path):
    assert (
        main(["sweep", "--alpha-list", "0.5", "--beta-list", "0", "--n", "30",
              "--out", str(tmp_path / "s.csv")])
        == 1
    )


@pytest.mark.parametrize(
    "domain, n",
    [("interval", 64), ("interval", 88), ("rectangle", 32), ("rectangle", 48), ("rectangle", 60)],
)
def test_sweep_rejects_n_too_coarse_for_fits(tmp_path, capsys, monkeypatch, domain, n):
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "s.csv"
    argv = ["sweep", "--domain", domain, "--alpha-list", "0.5", "--beta-list", "0",
            "--n", str(n), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: n={n} is too coarse for the boundary fit")
    assert not out.exists()


@pytest.mark.parametrize(
    "alphas, betas", [("-1", "0,2"), ("0.5,nan", "0"), ("inf", "0"), ("0.5", "0,2")]
)
def test_sweep_rejects_out_of_range_lists(tmp_path, capsys, alphas, betas):
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", alphas, "--beta-list", betas, "--n", "64", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "nan", "-1"])
def test_sweep_rejects_invalid_tol(tmp_path, capsys, monkeypatch, tol):
    # rejected up front, not written as a table of skipped cells
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "s.csv"
    argv = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0", "--n", "128",
            "--tol", tol, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: tol must be positive and finite")
    assert not out.exists()


GRID_ROUTED = [
    "solve --alpha 2 --n 64",
    "solve --domain rectangle --alpha 2 --n 33",
    "spectrum --domain rectangle --alpha 0.5 --levels 17,33",
    "sweep --alpha-list 0.5,2 --beta-list 0 --n 128",
    "regularity --domain rectangle --alpha 2 --levels 17,33,64",
]


@pytest.mark.parametrize("command", GRID_ROUTED)
def test_every_command_factors_by_the_grid(tmp_path, monkeypatch, command):
    # no program path hands a bare matrix to the pattern route: every factor,
    # mu_1's V-cycle included, comes from SPDFactor.on_grid
    def fail(*_args, **_kwargs):
        pytest.fail("factored by matrix pattern")

    for name, module in list(sys.modules.items()):
        if (name == "sel" or name.startswith("sel.")) and hasattr(module, "is_tridiagonal"):
            monkeypatch.setattr(module, "is_tridiagonal", fail)
    monkeypatch.setattr(linear_core.SPDFactor, "__init__", fail)
    assert main(command.split() + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "command, levels", [("spectrum", "16,32"), ("regularity", "256,512")]
)
def test_ladder_commands_have_no_n_flag(tmp_path, capsys, monkeypatch, command, levels):
    # a ladder's sizes come from --levels alone; --n is a usage error
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved a rejected command"))
    out = tmp_path / "o"
    argv = [command, "--alpha", "2", "--levels", levels, "--n", "64", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments: --n 64" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_rejects_empty_levels(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["spectrum", "--alpha", "2", "--levels", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("levels", ["128,128", "256,128"])
def test_spectrum_checks_levels_before_solving(tmp_path, capsys, monkeypatch, levels):
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "s.json"
    assert main(["spectrum", "--alpha", "2", "--levels", levels, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: --levels must strictly increase")
    assert not out.exists()


def test_spectrum_levels(tmp_path):
    out = tmp_path / "spectrum.json"
    code = main(
        ["spectrum", "--alpha", "0.5", "--beta", "0", "--levels", "16,32,64", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    # the ladder's levels, not the unread --n default, are echoed
    assert payload["spec"]["levels"] == [16, 32, 64] and "n" not in payload["spec"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["spec"] == payload["spec"]
    lams = [row["lambda1"] for row in payload["levels"]]
    assert lams == sorted(lams)
    assert lams[-1] < math.pi**2
    assert all(row["mu1"] >= row["lambda1"] for row in payload["levels"])
    assert payload["stable"] and payload["ordered"]


@pytest.mark.parametrize(
    "domain, levels", [("interval", "16,64,4096"), ("rectangle", "17,64,128")]
)
def test_spectrum_of_the_linear_problem_is_ordered(tmp_path, domain, levels):
    # mu_1 = lambda_1 exactly at alpha = 0, where the computed mu_1 may fall
    # below lambda_1 by round-off; ordered judges each within its residual
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--domain", domain, "--alpha", "0", "--levels", levels]
    assert main([*argv, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for row in payload["levels"]:
        assert row["mu1"] == pytest.approx(row["lambda1"], rel=1e-10)
    assert payload["stable"] and payload["ordered"]


def test_regularity_command(tmp_path, monkeypatch):
    # one gradient field per level in regularity_report, and one per level
    # for sobolev.csv, whatever the number of q values
    gradients = []

    def counted_gradient(grid, u):
        gradients.append(grid.n)
        return gradient_field(grid, u)

    monkeypatch.setattr(analysis, "gradient_field", counted_gradient)
    monkeypatch.setattr(cli, "gradient_field", counted_gradient)
    out = tmp_path / "reg"
    code = main(
        [
            "regularity",
            "--alpha", "2",
            "--beta", "0",
            "--levels", "64,128,256",
            "--q-grid", "1.5,2,4",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert sorted(gradients) == [64, 64, 128, 128, 256, 256]
    payload = json.loads((out / "regularity.json").read_text())
    assert payload["report"]["q_bar_theory"] == 3.0
    assert payload["spec"]["levels"] == [64, 128, 256] and "n" not in payload["spec"]
    assert "t_fit" in payload["report"]
    rows = list(csv.DictReader((out / "sobolev.csv").read_text().splitlines()))
    assert len(rows) == 9
    assert {r["q"] for r in rows} == {"1.5", "2", "4"}


@pytest.mark.parametrize("levels", ["128,192,256", "96,128,192"])
def test_regularity_reads_ladders_whose_n_does_not_double(tmp_path, levels):
    # the increment ratio is inverted on the levels' own spacings: sigma near
    # -1/3 and H^1 membership (q_bar = 3) at alpha = 2, as on 128,256,512
    out = tmp_path / "reg"
    assert main(["regularity", "--alpha", "2", "--levels", levels, "--out", str(out)]) == 0
    report = json.loads((out / "regularity.json").read_text())["report"]
    assert report["sigma_fit"] == pytest.approx(-1.0 / 3.0, abs=0.02)
    assert report["q_bar_est"] == pytest.approx(3.0, abs=0.2)
    assert report["verdicts"]["h1"] == "member"
    assert report["verdicts"]["h1_matches_theory"] is True


def test_regularity_on_two_levels_reports_no_h1_verdict(tmp_path):
    out = tmp_path / "reg"
    assert main(["regularity", "--alpha", "2", "--levels", "128,256", "--out", str(out)]) == 0
    report = json.loads((out / "regularity.json").read_text())["report"]
    # two levels give no increment ratio: the pointwise slope, and neither
    # an H^1 nor a q_bar consistency verdict
    assert report["verdicts"] == {
        "exponent_consistency": False,
        "h1": "needs >= 3 levels",
    }
    rows = list(csv.DictReader((out / "sobolev.csv").read_text().splitlines()))
    assert [(r["n"], r["q"]) for r in rows] == [
        (n, q) for n in ("128", "256") for q in ("1.5", "2", "3")
    ]


def test_regularity_writes_nothing_when_an_integral_overflows(tmp_path, capfd):
    # |grad u|^400 is past double on these levels: exit 1 before any file,
    # not inf rows in sobolev.csv, and no RuntimeWarning on stderr
    out = tmp_path / "reg"
    argv = ["regularity", "--alpha", "2", "--levels", "256,512", "--q-grid", "400", "--out", str(out)]
    assert main(argv) == 1
    assert capfd.readouterr().err == "error: int |grad u|^q overflows double at q=400.0, n=256\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--levels", "256,512", "--q-grid", "0.5"], "error: --q-grid"),
        (["--levels", "256,512", "--q-grid", "2,nan"], "error: --q-grid"),
        (["--levels", "256,512", "--q-grid", ","], "error: --q-grid"),
        (["--levels", "16,32,64"], "error: n=64 is too coarse"),
        (["--domain", "rectangle", "--levels", "16,32"], "error: n=32 is too coarse"),
        (["--domain", "rectangle", "--levels", "12,24,45"], "error: n=45 is too coarse"),
        (["--levels", "256,256,256"], "error: --levels must strictly increase"),
        (["--levels", "1024,512,256"], "error: --levels must strictly increase"),
        (["--levels", "2,3,200"], "error: regularity needs levels n >= 3"),
        (["--domain", "rectangle", "--levels", "2,128"], "error: regularity needs levels n >= 3"),
    ],
)
def test_regularity_checks_inputs_before_solving(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "reg"
    assert main(["regularity", "--alpha", "2", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
