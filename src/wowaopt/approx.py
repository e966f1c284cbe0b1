"""Aggregate-then-solve approximation with an a-priori ratio of v1 * K.

Each element's scenario-cost column is collapsed to a single aggregated
cost with the WOWA operator; the deterministic problem with those costs is
then solved by the base solver.  For nonincreasing importance weights the
returned solution is within gamma * v1 * K of the WOWA optimum, gamma
being the base solver's own guarantee (1 for the built-in exact solvers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregation import wowa_batch
from .base_solvers import EXACT_BASE, NO_FIXING, BaseSolver
from .model import ScenarioInstance, Solution, wowa_value

__all__ = ["ApproxResult", "aggregate_costs", "approx_solve"]


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of the aggregation heuristic.

    aggregated_objective is the sum of aggregated element costs over the
    chosen solution; wowa_objective is its true WOWA value and never
    exceeds the aggregated objective.  ratio_bound is gamma * v1 * K, or
    None when the importance weights are not nonincreasing (no guarantee).
    """

    solution: Solution
    aggregated_objective: float
    wowa_objective: float
    ratio_bound: Optional[float]


def aggregate_costs(inst: ScenarioInstance) -> np.ndarray:
    """Per-element WOWA of the element's own scenario-cost column."""
    return wowa_batch(inst.costs, inst.v, inst.p)


def approx_solve(inst: ScenarioInstance, solver: BaseSolver = EXACT_BASE) -> ApproxResult:
    """Solve the aggregated deterministic problem and report the ratio bound."""
    agg = aggregate_costs(inst)
    sol, objective = solver.solve(inst.kind, agg, NO_FIXING)
    bound = solver.gamma * inst.v.values[0] * inst.K if inst.v.is_nonincreasing else None
    return ApproxResult(
        solution=sol,
        aggregated_objective=objective,
        wowa_objective=wowa_value(inst, sol),
        ratio_bound=bound,
    )
