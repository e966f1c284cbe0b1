"""Span tracing of the calls into wowaopt's layers, from outside the package.

``Tracer.install`` replaces each hooked function at the module attribute
its callers look it up through (``wowaopt.exact.solve_with_costs``,
``wowaopt.model.wowa_batch``, ...) with a wrapper that records a span:
name, start, end, parent span and instance id, plus the exception type when
the call raised; ``uninstall`` puts the functions back.  The benchmark
installs the wrappers around each solve only, so its own correctness checks
record nothing.  Spans stay in memory until ``write`` saves them.  A hooked
name the package no longer has is listed in ``missing``, and the layer
metrics built on it read "not observed".
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def _columns(args, result) -> float:
    return args[0].shape[1]


def _text_mb(args, result) -> float:
    return len(result) / 1e6


# (module, attribute, span name, work measured per call)
HOOKS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("model", "wowa_batch", "aggregation.wowa_batch", _columns),
    ("approx", "wowa_batch", "aggregation.wowa_batch", _columns),
    ("exact", "wowa_batch", "aggregation.wowa_batch", _columns),
    ("exact", "wowa_value", "model.wowa_value", None),
    ("approx", "wowa_value", "model.wowa_value", None),
    ("exact", "scenario_costs", "model.scenario_costs", None),
    ("model", "scenario_costs", "model.scenario_costs", None),
    ("model", "write_instance", "model.write_instance", _text_mb),
    ("model", "read_instance", "model.read_instance", None),
    ("exact", "solve_with_costs", "base_solvers.solve_with_costs", None),
    ("base_solvers", "solve_selection", "base_solvers.solve_selection", None),
    ("base_solvers", "solve_assignment", "base_solvers.solve_assignment", None),
    ("exact", "approx_solve", "approx.approx_solve", None),
    ("approx", "approx_solve", "approx.approx_solve", None),
    ("exact", "exact_bb", "exact.exact_bb", None),
    ("exact", "brute_force", "exact.brute_force", None),
    ("mip", "build_mip", "mip.build_mip", None),
    ("mip", "export_lp", "mip.export_lp", _text_mb),
    ("experiments", "gen_instance", "experiments.gen_instance", None),
)


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, instance id, work, error type)
        self.spans: list[Optional[tuple]] = []
        self.instance = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []

    def install(self, lib) -> None:
        self.missing = []
        for module_name, attr, name, work in HOOKS:
            module = getattr(lib, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"wowaopt.{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, work))
            self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn: Callable, name: str, work: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            amount, error = 0.0, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance, amount, error)

        return traced

    def write(self, path: Path) -> None:
        """Save the spans as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as f:
            out = csv.writer(f)
            out.writerow(["span", "parent", "name", "instance", "start_ns", "end_ns", "work", "error"])
            for i, (name, start, end, parent, inst, work, error) in enumerate(self.spans):
                out.writerow([i, parent, name, inst, start, end, work, error or ""])


class LayerStats:
    """Calls, inclusive and self seconds, work and errors per span name."""

    def __init__(self, spans: list[tuple], first: int = 0):
        child_ns = defaultdict(int)
        for name, start, end, parent, *_ in spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.work = defaultdict(float)
        self.errors = defaultdict(int)
        for i, (name, start, end, parent, _, work, error) in enumerate(spans[first:], first):
            self.calls[name] += 1
            self.incl_s[name] += (end - start) / 1e9
            self.self_s[name] += (end - start - child_ns[i]) / 1e9
            self.work[name] += work
            if error:
                self.errors[(name, error)] += 1
