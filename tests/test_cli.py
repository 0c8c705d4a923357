import csv
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from sel import cli, oracle
from sel.analysis import gradient_field
from sel.barriers import ALPHA_ONE_WARNING, build_barrier_pair
from sel.cli import main
from sel.grid import build_grid, gradient_components, interval, rectangle
from sel.linear_core import SolverFailure
from sel.monotone import solve_ladder
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


def test_solve_reports_are_deterministic(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["solve", "--alpha", "0.5", "--n", "32", "--tol", "1e-9", "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "solution.csv").read_bytes() == (outs[1] / "solution.csv").read_bytes()


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


@pytest.mark.parametrize("shape, n", [(interval(1.0), 64), (rectangle(2.0, 0.5), 12)])
def test_solution_csv_writer_matches_savetxt(tmp_path, shape, n):
    grid = build_grid(shape, n)
    u = np.prod(np.sin(np.pi * grid.points() / shape.extents), axis=1) / 3.0
    # signed first-axis difference quotient: negative on the far half
    grad = gradient_components(grid, u)[0]
    assert grad.min() < 0.0 < grad.max()
    table = np.column_stack([grid.points(), grid.d, u, grad])
    header = ("x," if grid.dim == 1 else "x,y,") + "d,u,grad_u"
    with open(tmp_path / "savetxt.csv", "w", newline="") as fh:
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n", header=header, comments="")
    cli._write_solution_csv(tmp_path / "solution.csv", grid, table)
    assert (tmp_path / "solution.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


def test_solve_singular_case_schema_and_spectral(tmp_path):
    out = tmp_path / "a2"
    code = main(["solve", "--alpha", "2", "--beta", "0", "--n", "256", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    assert report["spectral"]["mu1"] >= report["spectral"]["lambda1"] > 0
    assert report["regularity"]["q_bar_theory"] == 3.0
    assert report["barrier"]["t"] == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize(
    "domain, alpha, n", [("interval", "0.5", 16), ("rectangle", "2", 32), ("rectangle", "2", 33)]
)
def test_solve_too_coarse_for_fits_reports_null(tmp_path, domain, alpha, n):
    # Rectangle bands at n 32 and 33 hold enough nodes but too few distance
    # layers to regress over.
    out = tmp_path / "coarse"
    argv = ["solve", "--domain", domain, "--alpha", alpha, "--n", str(n), "--out", str(out)]
    code = main(argv)
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, SCHEMA)
    assert report["solve"]["converged"]
    assert report["regularity"]["t_fit"] is None
    assert report["regularity"]["q_bar_est"] is None


def test_solve_alpha_one_warns_but_runs(tmp_path):
    out = tmp_path / "a1"
    code = main(["solve", "--alpha", "1", "--beta", "0", "--n", "64", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["warnings"] == [ALPHA_ONE_WARNING]
    spectrum = tmp_path / "s.json"
    assert main(["spectrum", "--alpha", "1", "--levels", "16,32", "--out", str(spectrum)]) == 0
    assert json.loads(spectrum.read_text())["warnings"] == [ALPHA_ONE_WARNING]


def test_solve_borderline_is_invalid_input(tmp_path, capsys):
    code = main(["solve", "--alpha", "0.6", "--beta", "0.4", "--n", "32", "--out", str(tmp_path)])
    assert code == 1
    assert "borderline" in capsys.readouterr().err


def test_invalid_inputs_exit_one(tmp_path):
    assert main(["solve", "--alpha", "0.5", "--n", "1", "--out", str(tmp_path)]) == 1
    assert (
        main(
            ["solve", "--alpha", "0.5", "--n", "128", "--method", "dense", "--out", str(tmp_path)]
        )
        == 1
    )
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
        ["--alpha", "0.5", "--n", "16", "--method", "dense", "--tol", "1e-30"],
        ["--alpha", "0.5", "--n", "16", "--method", "regularized", "--tol", "1e-30"],
        ["--alpha", "0.5", "--domain", "rectangle", "--n", "4", "--method", "dense",
         "--tol", "1e-30"],
        ["--alpha", "0.5", "--domain", "rectangle", "--n", "8", "--method", "regularized",
         "--tol", "1e-30"],
    ],
)
def test_solver_failures_exit_two(tmp_path, capsys, flags):
    assert main(["solve", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
def test_regularized_rejects_bad_eps(tmp_path, capsys, eps):
    argv = ["solve", "--alpha", "0.5", "--n", "16", "--method", "regularized", "--eps", eps]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --eps")


@pytest.mark.parametrize("error", SolverFailure.__subclasses__(), ids=lambda e: e.__name__)
def test_every_solver_failure_maps_to_exit_two(tmp_path, capsys, monkeypatch, error):
    def fail(*_args):
        raise error("injected")

    monkeypatch.setattr(cli, "solve_ladder", fail)
    assert main(["solve", "--alpha", "0.5", "--n", "16", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {error.__name__}: injected\n"


def test_non_convergence_exits_two(tmp_path, capsys):
    out = tmp_path / "short"
    code = main(
        ["solve", "--alpha", "2", "--n", "64", "--tol", "1e-10", "--max-iter", "3", "--out", str(out)]
    )
    assert code == 2
    assert not read_report(out)["solve"]["converged"]
    assert capsys.readouterr().err == "error: no convergence at n=64\n"


@pytest.mark.parametrize("command", ["spectrum", "regularity"])
def test_ladder_non_convergence_exits_two(tmp_path, capsys, command):
    out = tmp_path / "ladder"
    argv = [command, "--alpha", "2", "--levels", "64,128", "--tol", "1e-10", "--max-iter", "1"]
    assert main([*argv, "--out", str(out / "s.json")]) == 2
    assert capsys.readouterr().err == "error: no convergence at n=64\n"
    assert not out.exists()


def test_solve_method_dense_and_regularized_agree(tmp_path):
    outs = {}
    for method in ("monotone", "dense", "regularized"):
        out = tmp_path / method
        args = ["solve", "--alpha", "0.5", "--n", "32", "--tol", "1e-10", "--out", str(out),
                "--method", method]
        if method == "regularized":
            args += ["--eps", "1e-8"]
        assert main(args) == 0
        rows = list(csv.DictReader((out / "solution.csv").read_text().splitlines()))
        outs[method] = [float(r["u"]) for r in rows]
    for method in ("dense", "regularized"):
        diffs = [abs(a - b) for a, b in zip(outs["monotone"], outs[method])]
        assert max(diffs) <= 1e-6 * max(outs["monotone"])


def test_solve_dense_builds_one_barrier_pair(tmp_path, monkeypatch):
    # the dense Newton starts from the pair the report's barrier block shows
    calls = []

    def counted(*args):
        calls.append(args)
        return build_barrier_pair(*args)

    for module in (cli, oracle):
        monkeypatch.setattr(module, "build_barrier_pair", counted)
    args = ["solve", "--alpha", "2", "--n", "32", "--method", "dense", "--out", str(tmp_path)]
    assert main(args) == 0
    assert len(calls) == 1


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


def test_sweep_table(tmp_path, monkeypatch):
    monkeypatch.setenv("SEL_THREADS", "2")
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
    assert rows[(0.5, 0.5)]["h1_verdict"].startswith("skipped: borderline")
    # the coarse sweep ladder is qualitative: the verdict only needs to be defined
    verdict = rows[(2.0, 0.0)]["h1_verdict"]
    assert any(verdict.startswith(v) for v in ("member", "non-member", "inconclusive"))
    assert float(rows[(2.0, 0.0)]["t_fit"]) > 0.4
    assert float(rows[(0.5, 0.0)]["t_theory"]) == 1.0


def test_sweep_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("SEL_THREADS", "2")
    outs = []
    for tag in ("s1", "s2"):
        out = tmp_path / f"{tag}.csv"
        args = ["sweep", "--alpha-list", "0.5,2", "--beta-list", "0", "--n", "128",
                "--out", str(out)]
        assert main(args) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # q_bar estimates are only reported when the cross-check certifies them
    rows = {float(r["alpha"]): r for r in csv.DictReader(outs[0].read_text().splitlines())}
    for row in rows.values():
        assert row["q_bar_est"] == "" or float(row["q_bar_est"]) > 1.0


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


def test_spectrum_rejects_empty_levels(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["spectrum", "--alpha", "2", "--levels", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_spectrum_levels(tmp_path):
    out = tmp_path / "spectrum.json"
    code = main(
        ["spectrum", "--alpha", "0.5", "--beta", "0", "--levels", "16,32,64", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    lams = [row["lambda1"] for row in payload["levels"]]
    assert lams == sorted(lams)
    assert lams[-1] < math.pi**2
    assert all(row["mu1"] >= row["lambda1"] for row in payload["levels"])
    assert payload["stable"] and payload["ordered"]


def test_regularity_command(tmp_path):
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
    payload = json.loads((out / "regularity.json").read_text())
    assert payload["report"]["q_bar_theory"] == 3.0
    assert "t_fit" in payload["report"]
    rows = list(csv.DictReader((out / "sobolev.csv").read_text().splitlines()))
    assert len(rows) == 9
    assert {r["q"] for r in rows} == {"1.5", "2", "4"}


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
    ],
)
def test_regularity_checks_inputs_before_solving(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.setattr(cli, "solve_ladder", lambda *_: pytest.fail("solved before the check"))
    out = tmp_path / "reg"
    assert main(["regularity", "--alpha", "2", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()
