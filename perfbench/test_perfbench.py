"""Smoke test of the benchmark itself.

Runs every workload at tiny sizes and asserts that every metric named in
BENCHMARK.json is printed with its unit, that a deliberately failed output
check is counted, and that the tracer survives a function sel no longer has.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.append(str(ROOT / "src"))

import benchcases  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from benchtrace import NAMED, Tracer  # noqa: E402
from calibrate import Kernel  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_metric_with_its_unit(smoke):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(smoke) == {"correct", "attempted", "failed", "metrics"}
    assert smoke["correct"] is True
    assert smoke["attempted"] >= 1
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(benchcases.WORKLOADS)
    for workload in names:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            got = smoke["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"], (workload, metric)
            assert isinstance(got["value"], (int, float)), (workload, metric)


def test_failed_check_is_counted(tmp_path):
    refs = worker.load_references()
    cases = benchcases.make_cases("solve-1d", 1, 0, smoke=True)
    assert all(case.key in refs for case in cases)
    tampered = dict(refs)
    key = cases[0].key
    tampered[key] = {**refs[key], "lambda1": 2.0 * refs[key]["lambda1"]}

    honest = worker.run_passes("solve-1d", 1, 1, True, refs, tmp_path / "a", Kernel())
    broken = worker.run_passes("solve-1d", 1, 1, True, tampered, tmp_path / "b", Kernel())
    assert run._counts(honest) == (3, 0, True)
    assert run._counts(broken) == (3, 1, False)
    assert [c["status"] for c in broken if c["case"] == key] == [benchcases.WRONG]
    metrics = run.end_to_end({"cases": broken, "peak_rss_mb": 1.0}, 0.5)
    assert metrics["certified_frac"][0] == pytest.approx(2.0 / 3.0)


def test_tracer_survives_a_missing_function():
    import sel
    import sel.linear_core

    original = sel.linear_core.solve_spd
    named = {**NAMED, "linear_core.no_such_function": ("calls", "s")}
    tracer = Tracer(named=named)
    tracer.install()
    try:
        assert sel.solve_spd is not original
        grid = sel.build_grid(sel.interval(1.0), 8)
        sel.solve_spd(sel.assemble_laplacian(grid), [1.0] * grid.num_interior)
    finally:
        tracer.uninstall()
    assert sel.linear_core.solve_spd is original and sel.solve_spd is original
    assert tracer.absent == ["linear_core.no_such_function"]
    metrics = tracer.metrics(traced_wall_s=1.0)
    assert metrics["linear_core.no_such_function.calls"] == (0, "count")
    assert metrics["linear_core.solve_spd.calls"] == (1, "count")
    assert metrics["linear_core.solve_spd.iters"][0] >= 1
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.layers)
    assert layer_self + metrics["trace.uncovered_s"][0] == pytest.approx(1.0)


def test_sweep_failures_do_not_depend_on_the_seed():
    """Every cell a stratum can draw has the same recorded outcome, so the
    failed count of a sweep pass is the same for every seed."""
    refs = worker.load_references()
    strata = []

    class Every(random.Random):
        def choice(self, seq):
            strata.append(seq)
            return seq[0]

    benchcases.sweep_cells(Every(0), False)
    for n, options in [(256, strata), (128, strata[::7])]:
        for seq in options:
            outcomes = {refs[f"sweep:{a!r}:{b!r}:{n}:1e-08"]["t_fit"] is None for a, b in seq}
            assert len(outcomes) == 1, (n, seq)
