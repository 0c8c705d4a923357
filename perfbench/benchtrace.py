"""Span tracer for the nine layers of sel, installed from outside the program.

``Tracer.install`` wraps every public function defined in ``sel.<layer>``
and rebinds each wrapper wherever the original is bound across the loaded
``sel.*`` modules (``solve_spd``, for one, is imported by name into six of
them).  A span is (name, start, end, parent span, case id, raised); spans
stay in memory until ``write_spans``.  A layer's self time is the duration
of its spans minus the time their child spans cover, so the layer self
times plus the uncovered time add up to the traced wall time.

A named function that a later version of sel removes or renames is
reported as absent, with zero counts, rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("grid", "linear_core", "spectral", "barriers", "monotone",
          "regularized", "oracle", "analysis", "cli")

# (layer.function, stats reported for it); stats are calls, s (inclusive
# seconds), self_s, plus the extra counters collected by _HOOKS.
NAMED = {
    "grid.build_grid": ("calls", "self_s"),
    "grid.assemble_laplacian": ("calls", "self_s"),
    "linear_core.solve_spd": ("calls", "self_s", "iters", "s_per_call"),
    "spectral.principal_eigenpair": ("calls", "s", "self_s"),
    "spectral.linearized_smallest_eigenvalue": ("calls", "s"),
    "barriers.build_barrier_pair": ("calls", "s", "self_s", "raised"),
    "barriers.verify_barrier": ("calls", "s"),
    "monotone.solve_monotone": ("calls", "s", "self_s", "outer_iters", "unconverged"),
    "monotone.iterate_step": ("calls", "s"),
    "regularized.solve_regularized": ("calls", "s", "self_s"),
    "regularized.epsilon_continuation": ("calls", "s"),
    "oracle.newton_solve": ("calls", "s", "self_s"),
    "oracle.dense_newton_solve": ("calls", "s"),
    "analysis.regularity_report": ("calls", "s"),
    "analysis.fit_boundary_exponent": ("s",),
    "analysis.fit_gradient_exponent": ("s",),
    "analysis.sobolev_integral": ("calls", "s"),
    "cli.main": ("calls", "s", "self_s"),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "iters": "count",
         "s_per_call": "s", "raised": "count", "outer_iters": "count",
         "unconverged": "count"}


def _solve_spd_hook(counters, result, raised):
    stats = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    counters["iters"] += int(getattr(stats, "iterations", 0) or 0)


def _solve_monotone_hook(counters, result, raised):
    if result is not None:
        counters["outer_iters"] += int(getattr(result, "iterations", 0) or 0)
        counters["unconverged"] += 0 if getattr(result, "converged", True) else 1


def _cli_main_hook(counters, result, raised):
    counters["exit_2"] += result == 2
    # exit 1 means invalid input; every benchmark input is valid
    counters["crashed"] += raised or result == 1


_HOOKS = {
    "linear_core.solve_spd": _solve_spd_hook,
    "monotone.solve_monotone": _solve_monotone_hook,
    "cli.main": _cli_main_hook,
}


PACKAGE = "sel"


class Tracer:
    def __init__(self, named=NAMED):
        self.layers = LAYERS
        self.named = dict(named)
        self.spans: list = []
        self.case = None
        self.absent: list[str] = []
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        targets = {}
        for layer in self.layers:
            modname = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == modname
                        and not attr.startswith("_")):
                    targets[f"{layer}.{attr}"] = obj
        self.absent = sorted(name for name in self.named if name not in targets)
        replacements = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        counters = self.counters[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            raised, result = True, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.case, raised)
                if hook is not None:
                    hook(counters, result, raised)

        return wrapper

    # ------------------------------------------------------------ results

    def function_stats(self) -> dict[str, dict]:
        """calls, s, self_s and raised per wrapped function."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, _case, raised = span
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["raised"] += int(raised)
        return stats

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] < 0)

    def metrics(self, traced_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics {name: (value, unit)} for a traced wall time."""
        stats = self.function_stats()
        out: dict[str, tuple[float, str]] = {}
        for name, wanted in self.named.items():
            entry = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
            extra = self.counters.get(name, {})
            for stat in wanted:
                if stat == "s_per_call":
                    value = entry["s"] / entry["calls"] if entry["calls"] else 0.0
                elif stat in entry:
                    value = entry[stat]
                else:
                    value = int(extra.get(stat, 0))
                out[f"{name}.{stat}"] = (value, UNITS[stat])
        iters = int(self.counters.get("monotone.solve_monotone", {}).get("outer_iters", 0))
        mono_s = stats.get("monotone.solve_monotone", {}).get("s", 0.0)
        out["monotone.s_per_outer_iter"] = (mono_s / iters if iters else 0.0, "s")
        cli = self.counters.get("cli.main", {})
        out["cli.exit_2"] = (int(cli.get("exit_2", 0)), "count")
        out["cli.crashed"] = (int(cli.get("crashed", 0)), "count")
        layer_self = defaultdict(float)
        for name, entry in stats.items():
            layer_self[name.split(".", 1)[0]] += entry["self_s"]
        for layer in self.layers:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.uncovered_s"] = (traced_wall_s - self.top_level_s(), "s")
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, case, raised = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case, "raised": raised}) + "\n")
