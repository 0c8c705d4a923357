"""One workload pass in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --passes P \
        [--trace] [--smoke] --out DIR

Thread counts are pinned to 1 before numpy is imported.  Exactly --passes
whole passes of the workload's cases run, so that the cases, and so the
attempted and failed counts, depend only on the arguments.  The result, with per-case
outcomes, peak RSS and, when traced, the per-layer metrics, is written to
DIR/result.json; spans go to DIR/spans.jsonl.
"""

from __future__ import annotations

import os

THREAD_VARS = ("SEL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import benchcases  # noqa: E402
from benchtrace import Tracer  # noqa: E402
from calibrate import Kernel  # noqa: E402

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
# Untimed calibration kernel runs that warm it up before the first case.
CALIBRATION_WARMUP = 5


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["cases"]


def run_passes(workload, seed, passes, smoke, refs, workroot: Path, kernel: Kernel,
               tracer=None):
    """Run `passes` whole passes; returns the per-case records.

    The calibration kernel is timed in the gap after every case, and also
    during the cases if its timer runs.  Each record holds the case's wall
    time less the kernel time inside it, and the median kernel time around
    and during the case (kernel_s)."""
    records = []
    kernel.gap()
    for done in range(passes):
        for index, case in enumerate(benchcases.make_cases(workload, seed, done, smoke)):
            case_id = f"{done}-{index}"
            if tracer is not None:
                tracer.case = case_id
            workdir = workroot / case_id
            outcome = benchcases.run_case(case, workdir, refs)
            start = benchcases.last_call_start
            end = start + outcome.wall_s
            shutil.rmtree(workdir, ignore_errors=True)
            kernel.gap()
            stolen = kernel.stolen(start, end)
            outcome.wall_s -= stolen
            records.append({"id": case_id, "case": case.key, **asdict(outcome),
                            "stolen_s": stolen, "kernel_s": kernel.around(start, end)})
    if tracer is not None:
        tracer.case = None
    return records


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy

    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(index / 'level')} {_read(index / 'type')} {_read(index / 'size')}")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchcases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(benchcases.ROOT / "src"))
    import sel  # noqa: F401 - load every layer before the tracer wraps them
    import sel.cli  # noqa: F401

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workroot = out / "work"
    kernel = Kernel()
    for _ in range(CALIBRATION_WARMUP):
        kernel.sample()
    if tracer is None:
        # ticks inside traced spans would count as sel's time, so a traced
        # run times the kernel only between cases
        kernel.start_timer()
    try:
        records = run_passes(args.workload, args.seed, args.passes, args.smoke,
                             load_references(), workroot, kernel, tracer)
    finally:
        kernel.stop_timer()
    shutil.rmtree(workroot, ignore_errors=True)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "passes": args.passes,
        "cases": records,
        "kernel_samples": kernel.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        traced_wall = sum(r["wall_s"] for r in records)
        # per-layer seconds in reference seconds, at the run's median kernel time
        scale = kernel.scale()
        metrics = {name: (value * scale if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.metrics(traced_wall).items()}
        metrics["cli.bytes_written"] = (sum(r["bytes_written"] for r in records), "bytes")
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        result["absent"] = tracer.absent
        tracer.write_spans(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
