#!/usr/bin/env python3
"""sel benchmark: four workloads timed through the CLI and the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Every workload pass runs in a fresh
interpreter (perfbench/worker.py) with one thread.  --seconds sets a fixed
number of passes (benchcases.passes_for); times are in reference seconds
(perfbench/calibrate.py).  --trace 0 prints the
end-to-end metrics of one workload; --trace 1 runs the same passes once
untraced and once traced and prints the per-layer metrics.  --all prints
the end-to-end metrics of every workload; --smoke runs every workload at
tiny sizes, traced and untraced.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Per-run details (every case, the environment, spans) are written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchcases import CERTIFIED, DEFAULT_SEED, WORKLOADS, WRONG, passes_for  # noqa: E402
from calibrate import Kernel, reference_s  # noqa: E402
from worker import THREAD_VARS  # noqa: E402

STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
# A failed case counts as this many seconds plus its own wall time: past
# any limit a case could meet, yet finite, ordered and JSON-safe.
FAIL_PENALTY_S = 1000.0
END_TO_END = ("certified_per_min", "case_s_p50", "certified_frac", "peak_rss_mb", "setup_s")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_checkout() -> None:
    for need in ("src/sel/__init__.py", "src/sel/cli.py", "docs/report_schema.json"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} is missing: run from the root of an sel checkout")


def measure_setup(repeats: int) -> tuple[float, list[float]]:
    """Median time, in reference seconds, of a fresh interpreter importing
    sel and sel.cli; the calibration kernel is timed between imports."""
    argv = [sys.executable, "-c", "import sel, sel.cli"]
    kernel = Kernel()
    before = kernel.gap()
    times = []
    for attempt in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        after = kernel.gap()
        if proc.returncode != 0:
            raise BenchError(f"importing sel failed:\n{proc.stderr[-2000:]}")
        if attempt:  # the first import may compile bytecode; it is not timed
            times.append(reference_s(elapsed, (before + after) / 2.0))
        before = after
    return statistics.median(times), times


def run_worker(workload, seed, passes, out: Path, *, trace=False, smoke=False) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--passes", str(passes), "--out", str(out)]
    if trace:
        argv.append("--trace")
    if smoke:
        argv.append("--smoke")
    log = out / "worker.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, env=_env(), cwd=ROOT, stdout=fh, stderr=fh,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{log.read_text()[-3000:]}")
    return json.loads((out / "result.json").read_text())


def _case_s(case: dict) -> float:
    """A case's time in reference seconds."""
    return reference_s(case["wall_s"], case["kernel_s"])


def _counts(cases) -> tuple[int, int, bool]:
    attempted = len(cases)
    failed = sum(c["status"] != CERTIFIED for c in cases)
    correct = not any(c["status"] == WRONG for c in cases)
    return attempted, failed, correct


def end_to_end(result: dict, setup_s: float) -> dict:
    """The five end-to-end metrics of one workload result, {name: (value, unit)}."""
    cases = result["cases"]
    attempted, failed, _ = _counts(cases)
    certified = attempted - failed
    total_s = sum(_case_s(c) for c in cases)
    times = [_case_s(c) + (0.0 if c["status"] == CERTIFIED else FAIL_PENALTY_S)
             for c in cases]
    return {
        "certified_per_min": (certified * 60.0 / total_s, "1/min"),
        "case_s_p50": (statistics.median(times), "s"),
        "certified_frac": (certified / attempted, "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _summarize(workload: str, result: dict) -> None:
    cases = result["cases"]
    attempted = len(cases)
    kinds = dict(Counter(c["status"] for c in cases))
    print(f"{workload}: {attempted} cases in {result['passes']} pass(es) "
          f"(case_s_p50 over {attempted} samples): {kinds}")
    print(f"{workload}: environment {json.dumps(result['environment'])}")
    for c in cases:
        if c["status"] != CERTIFIED:
            print(f"  {c['status']}: {c['case']} ({c['wall_s']:.3f} s): {c['reason']}")


def _table(metrics: dict) -> None:
    print(f"{'workload':<12}" + "".join(f"{name:>26}" for name in END_TO_END))
    for workload in WORKLOADS:
        cells = (metrics[f"{workload}.{name}"] for name in END_TO_END)
        print(f"{workload:<12}" + "".join(f"{m['value']:>18.4f} {m['unit']:<7}" for m in cells))


def _save(name: str, payload: dict) -> None:
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{name}.json").write_text(json.dumps(payload, indent=1))


def run_workload(workload, seed, seconds, trace: bool, tag: str, smoke=False):
    """(metrics, attempted, failed, correct) of one workload."""
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    passes = passes_for(workload, seconds, smoke)
    try:
        if not trace:
            setup_s, setup_samples = measure_setup(1 if smoke else SETUP_REPEATS)
            result = run_worker(workload, seed, passes, work / "plain", smoke=smoke)
            metrics = end_to_end(result, setup_s)
            result["setup_samples_s"] = setup_samples
            cases = result["cases"]
            correct = _counts(cases)[2]
        else:
            plain = run_worker(workload, seed, passes, work / "plain", smoke=smoke)
            result = run_worker(workload, seed, passes, work / "traced", smoke=smoke,
                                trace=True)
            (STATE / "results").mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "traced" / "spans.jsonl", STATE / "results" / f"{tag}-spans.jsonl")
            metrics = {name: (m["value"], m["unit"]) for name, m in result["layers"].items()}
            plain_s = sum(_case_s(c) for c in plain["cases"])
            traced_s = sum(_case_s(c) for c in result["cases"])
            metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
            cases = result["cases"]
            correct = _counts(cases)[2] and _counts(plain["cases"])[2]
            if result["absent"]:
                print(f"{workload}: absent from sel, reported as zero: "
                      f"{', '.join(result['absent'])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _summarize(workload, result)
    result["metrics"] = _as_json(metrics)
    _save(tag, result)
    attempted, failed, _ = _counts(cases)
    return metrics, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, end to end")
    mode.add_argument("--smoke", action="store_true", help="every workload at tiny sizes")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    try:
        check_checkout()
        if args.workload:
            tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
            metrics, attempted, failed, correct = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), tag)
            out_metrics = _as_json(metrics)
        else:
            out_metrics, attempted, failed, correct = {}, 0, 0, True
            traces = (False, True) if args.smoke else (False,)
            for workload in WORKLOADS:
                for trace in traces:
                    tag = f"{'smoke' if args.smoke else 'all'}-{workload}-trace{int(trace)}"
                    metrics, n, f, ok = run_workload(workload, args.seed, args.seconds, trace, tag,
                                                     smoke=args.smoke)
                    attempted, failed, correct = attempted + n, failed + f, correct and ok
                    out_metrics.update(_as_json(
                        {f"{workload}.{name}": m for name, m in metrics.items()}))
            if args.all:
                _table(out_metrics)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
