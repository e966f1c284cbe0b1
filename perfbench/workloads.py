"""Workload definitions, instance pools and the correctness gate.

A workload is a pool of instances built with ``experiments.gen_instance``
from one workload seed, plus the library call made on each instance.  The
pool lists its cells round robin, so any prefix of it holds the cells in
equal proportion.  The library is always reached through a namespace of its
modules (``lib.exact``, ``lib.model``, ...) and looked up at call time, so
the traced run can wrap module attributes without the workloads knowing.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent

# Default workload seed; the test suite uses 2 and 42.  Any other seed is a
# held-out seed whose references are computed before the timed phase.
DEFAULT_SEED = 1504

LAYERS = ("aggregation", "model", "base_solvers", "approx", "exact", "mip", "experiments")

# Relative tolerance of the objective check against the reference.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Cell:
    kind: str  # "selection" or "assignment"
    size: int  # n for selection, m for assignment
    k: int
    alpha: float
    q: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "bb", "brute" or "export"
    cells: tuple[Cell, ...]
    rounds: int


def _desk_cells(kind: str, size: int, q: Optional[int]) -> tuple[Cell, ...]:
    return tuple(Cell(kind, size, k, alpha, q) for k in (5, 10) for alpha in (1e-2, 1e-4))


# Why each workload exists is recorded in BENCHMARK.json.  The B&B pools use
# smaller instances than the paper's desk grid (n=40, m=8): B&B time per
# instance varies several-fold between instances, and a run must solve some
# hundred and fifty of them for its throughput to be steady from one workload
# seed to the next.  The per-node work (width-1 kernel calls, base solves,
# Frank-Wolfe steps) is the same code at either size.  brute-oracle and
# approx-export mix their two kinds 2:1 so that the median and the tail
# never sit on the boundary between the kinds' run times.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bb-selection", "bb", _desk_cells("selection", 20, 5), rounds=40),
        Workload("bb-assignment", "bb", _desk_cells("assignment", 6, None), rounds=48),
        Workload(
            "brute-oracle",
            "brute",
            (
                Cell("selection", 24, 10, 1e-2, 6),
                Cell("selection", 24, 10, 1e-4, 6),
                Cell("assignment", 8, 10, 1e-2),
            ),
            rounds=2,
        ),
        Workload(
            "approx-export",
            "export",
            (
                Cell("selection", 5000, 10, 1e-2, 1250),
                Cell("selection", 5000, 10, 1e-4, 1250),
                Cell("assignment", 60, 10, 1e-4),
            ),
            rounds=1,
        ),
    )
}


def use_checkout_source() -> None:
    """Import wowaopt from the checkout's src/, or exit 1 when it has none."""
    src = ROOT / "src"
    if not (src / "wowaopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wowaopt package under {src}")
    sys.path.insert(0, str(src))


def import_library() -> SimpleNamespace:
    """Import wowaopt afresh and return its layer modules by name.

    Earlier copies are dropped from ``sys.modules`` first, so repeated calls
    time the package's own import (numpy stays loaded).  A layer module that
    no longer exists is None.
    """
    for name in [m for m in sys.modules if m == "wowaopt" or m.startswith("wowaopt.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("wowaopt")
    layers = {}
    for layer in LAYERS:
        try:
            layers[layer] = importlib.import_module(f"wowaopt.{layer}")
        except ImportError:
            layers[layer] = None
    return SimpleNamespace(**layers)


def pool_keys(workload: Workload) -> list[tuple[Cell, int]]:
    """(cell, instance index) for every pool entry, round robin over the cells."""
    return [(cell, r) for r in range(workload.rounds) for cell in workload.cells]


def pool_key(cell: Cell, index: int) -> str:
    return f"{cell.kind}:{cell.size}:{cell.k}:{cell.alpha!r}:{index}"


def build_pool(lib, workload: Workload, seed: int) -> list:
    exp = lib.experiments
    pool = []
    for cell, index in pool_keys(workload):
        s = exp.instance_seed(seed, cell.kind, cell.size, cell.k, cell.alpha, index)
        pool.append(exp.gen_instance(cell.kind, cell.size, cell.k, cell.alpha, s, q=cell.q))
    return pool


@dataclass
class ExportOutcome:
    reread: object
    approx: object
    lp: str


def solver_for(workload: Workload) -> Callable:
    """The library call one closed-loop step makes on one instance."""
    if workload.mode == "bb":
        return lambda lib, inst: lib.exact.exact_bb(inst)
    if workload.mode == "brute":
        return lambda lib, inst: lib.exact.brute_force(inst)

    def export(lib, inst) -> ExportOutcome:
        reread = lib.model.read_instance(lib.model.write_instance(inst))
        approx = lib.approx.approx_solve(reread)
        lp = lib.mip.export_lp(lib.mip.build_mip(reread))
        return ExportOutcome(reread, approx, lp)

    return export


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


class Gate:
    """Correctness check of one outcome against its reference.

    Holds the library's own ``check_feasible`` and ``wowa_value`` as they
    were before any tracing wrapper was installed.  ``check`` returns an
    empty string for a correct outcome, else the reason it failed.
    """

    def __init__(self, lib, mode: str):
        self.mode = mode
        self.check_feasible = lib.model.check_feasible
        self.wowa_value = lib.model.wowa_value
        self.attempted = 0
        self.failed = 0
        self.bit_mismatches = 0
        self.reasons: list[str] = []

    def record(self, inst, outcome, ref: dict, error: Optional[str] = None) -> bool:
        self.attempted += 1
        reason = error or self.check(inst, outcome, ref)
        if reason:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return not reason

    def check(self, inst, outcome, ref: dict) -> str:
        if self.mode == "export":
            return self._check_export(inst, outcome, ref)
        if outcome.proof_status != "optimal":
            return f"status {outcome.proof_status!r}"
        return self._check_solution(inst, outcome.solution, outcome.objective, ref["objective"])

    def _check_solution(self, inst, sol, objective: float, ref_objective: float) -> str:
        try:
            self.check_feasible(inst, sol)
        except ValueError as exc:
            return f"infeasible solution: {exc}"
        if objective != self.wowa_value(inst, sol):
            return f"reported objective {objective!r} is not the WOWA value of its solution"
        if not _close(objective, ref_objective):
            return f"objective {objective!r} differs from reference {ref_objective!r}"
        if objective != ref_objective:
            self.bit_mismatches += 1
        return ""

    def _check_export(self, inst, out: ExportOutcome, ref: dict) -> str:
        if not out.reread == inst:
            return "read_instance(write_instance(x)) != x"
        if not _close(out.approx.aggregated_objective, ref["aggregated"]):
            return (f"aggregated objective {out.approx.aggregated_objective!r} differs from "
                    f"reference {ref['aggregated']!r}")
        reason = self._check_solution(inst, out.approx.solution, out.approx.wowa_objective, ref["wowa"])
        if reason:
            return reason
        if sha256(out.lp) != ref["lp_sha256"]:
            return "LP text differs from the reference"
        return ""
