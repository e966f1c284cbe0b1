"""Exact WOWA minimization: brute force and branch-and-bound.

The branch-and-bound is self-contained (no external MIP solver).  Its node
relaxation runs Frank-Wolfe, warm-started from the parent, over weight
vectors in the convex hull of the rank-weight vectors and the probability
vector (the root's first iterate): each such functional is linear in the
chosen elements, so the base solver minimizes it exactly under the node's
partial fixing, and each is a lower bound on the WOWA value of every
completion when the importance weights are nonincreasing.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .aggregation import NonIncreasingWeightsError, _rank_omegas, _worst_first, wowa_batch
from .approx import approx_solve
from .base_solvers import FeasibilityError, PartialFixing, Solution, solve_with_costs
from .model import ScenarioInstance, scenario_costs

__all__ = [
    "ExactResult",
    "brute_force",
    "check_time_limit",
    "exact_bb",
    "search_space_size",
]

_CHUNK = 2048
BRUTE_FORCE_LIMIT = 10**6  # the largest search space brute_force enumerates


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    objective: float
    node_count: int
    proof_status: str  # "optimal" or "time_limit"
    optimal_is_pareto: Optional[bool] = None


def search_space_size(inst: ScenarioInstance) -> int:
    return inst.kind.size(inst.n)


def _chunks(inst: ScenarioInstance) -> Iterator[list[tuple[int, ...]]]:
    feasible = inst.kind.enumerate(inst.n)
    while chunk := list(itertools.islice(feasible, _CHUNK)):
        yield chunk


def _batched_cost_vectors(inst: ScenarioInstance, subsets: list[tuple[int, ...]]) -> np.ndarray:
    # All subsets in one chunk have equal cardinality for the built-in
    # kinds; explicit sets may be ragged and are summed one by one.
    sizes = {len(s) for s in subsets}
    if len(sizes) == 1 and sizes != {0}:
        idx = np.asarray(subsets, dtype=int)
        return inst.costs[:, idx].sum(axis=2)
    return np.column_stack([scenario_costs(inst, Solution(s), check=False) for s in subsets])


def brute_force(inst: ScenarioInstance, check_pareto: bool = False) -> ExactResult:
    """Global minimum by exhaustive enumeration (oracle-grade, small instances).

    Refuses search spaces larger than ``BRUTE_FORCE_LIMIT``.  With
    ``check_pareto`` the returned solution is additionally tested for
    Pareto efficiency against every enumerated cost vector.
    """
    size = search_space_size(inst)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"search space has {size} solutions, exceeding the limit of {BRUTE_FORCE_LIMIT}"
        )
    best_val = np.inf
    best_sub: Optional[tuple[int, ...]] = None
    for chunk in _chunks(inst):
        values = wowa_batch(_batched_cost_vectors(inst, chunk), inst.v, inst.p)
        s = int(np.argmin(values))
        if values[s] < best_val:
            best_val = float(values[s])
            best_sub = chunk[s]
    if best_sub is None:
        raise FeasibilityError("instance has no feasible solution")

    pareto: Optional[bool] = None
    if check_pareto:
        best_costs = scenario_costs(inst, Solution(best_sub), check=False)

        def dominated(chunk) -> bool:
            A = _batched_cost_vectors(inst, chunk)
            le = np.all(A <= best_costs[:, None], axis=0)
            lt = np.any(A < best_costs[:, None], axis=0)
            return bool(np.any(le & lt))

        pareto = not any(dominated(chunk) for chunk in _chunks(inst))

    return ExactResult(
        solution=Solution(best_sub),
        objective=best_val,
        node_count=size,
        proof_status="optimal",
        optimal_is_pareto=pareto,
    )


# ---------------------------------------------------------------------------
# Branch-and-bound
#
# Node relaxation: for any scenario-weight vector w in the convex set
# spanned by the rank-weight vectors omega(pi) (which also contains the
# probability vector p itself), the functional sum_j w_j F(X, c_j) is
# linear in the chosen elements and, for nonincreasing importance weights,
# a lower bound on WOWA(X).  The base solver minimizes it exactly under
# the node's partial fixing; a few Frank-Wolfe steps on w tighten the bound
# toward the LP bound max_w min_X w.F(X).  Each step points w at the rank
# weights of the running average of the completions' costs (fictitious play;
# the latest completion alone makes w cycle), and a child continues from its
# parent's final (w, average) at step _FW_STEPS; the root starts from p.
# Every relaxation solve also yields a feasible completion; the node's
# distinct completions are evaluated together, in one kernel call, to
# improve the incumbent for free.
# ---------------------------------------------------------------------------

_FW_STEPS = 6


class _BBContext:
    """Per-instance precomputation shared by all nodes."""

    def __init__(self, inst: ScenarioInstance):
        self.inst = inst
        self.C = np.asarray(inst.costs)
        self.p = inst.p.as_array()
        self.spread = self.C.max(axis=0) - self.C.min(axis=0)

    def node_bound(self, fix: PartialFixing, target: float, warm=None):
        """Frank-Wolfe-refined lower bound, cut short once it reaches target.

        Starts from ``warm``, the parent's final (w, avg), or from (p, None).
        Returns the bound, the completion that attained it, the node's distinct
        completions with their K-by-S matrix of scenario costs, and (w, avg).
        """
        inst = self.inst
        bound = -np.inf
        best_completion: Optional[tuple[int, ...]] = None
        found: dict[tuple[int, ...], tuple[Solution, np.ndarray]] = {}
        w_scen, avg = warm or (self.p, None)
        offset = 0 if avg is None else _FW_STEPS
        for step in range(_FW_STEPS):
            sol, value = solve_with_costs(inst.kind, w_scen @ self.C, fix)
            if value > bound:
                bound = value
                best_completion = sol.chosen
            if sol.chosen not in found:
                found[sol.chosen] = (sol, scenario_costs(inst, sol, check=False))
            if bound >= target or step == _FW_STEPS - 1:
                break
            gamma = 2.0 / (offset + step + 2.0)
            costs = found[sol.chosen][1]
            avg = costs if avg is None else (1.0 - gamma) * avg + gamma * costs
            pi, cum = _worst_first(avg, self.p)
            direction = np.empty(inst.K)
            direction[pi] = _rank_omegas(inst.v, cum)
            w_scen = (1.0 - gamma) * w_scen + gamma * direction
        completions, costs = zip(*found.values())
        return bound, best_completion, completions, np.column_stack(costs), (w_scen, avg)

    def branch_element(self, fix: PartialFixing, completion) -> Optional[int]:
        """Undecided element with the largest scenario-cost spread.

        Candidates come from the last bound completion (they drive the gap
        between the linear relaxation and the true WOWA value); ties and
        the no-candidate case fall back to the lowest free index.  Returns
        None when the node admits exactly one completion, which the bound
        solve has already evaluated.
        """
        free = self.inst.kind.free_elements(fix, self.inst.n)
        candidates = [e for e in (completion or ()) if e in free]
        if candidates:
            return max(candidates, key=lambda e: (self.spread[e], -e))
        return min(free, default=None)


def check_time_limit(time_limit: float) -> float:
    """A branch-and-bound time limit: positive seconds, math.inf for none."""
    if not time_limit > 0:  # NaN fails the comparison too
        raise ValueError(f"time limit must be positive seconds (inf for none), got {time_limit!r}")
    return time_limit


def exact_bb(inst: ScenarioInstance, time_limit: float = 3600.0) -> ExactResult:
    """Best-first branch-and-bound; optimal on termination.

    Requires nonincreasing importance weights (the node relaxations are
    only valid lower bounds in that regime).  On hitting the time limit
    the best incumbent is returned with proof_status "time_limit"; a NaN
    or nonpositive limit raises ValueError.
    """
    check_time_limit(time_limit)
    if not inst.v.is_nonincreasing:
        raise NonIncreasingWeightsError("branch-and-bound requires nonincreasing importance weights")

    ctx = _BBContext(inst)
    start = time.monotonic()

    incumbent = approx_solve(inst)
    best_sol = incumbent.solution
    best_val = incumbent.wowa_objective

    def margin() -> float:
        return 1e-12 * max(1.0, abs(best_val))

    heap: list[tuple[float, int, PartialFixing, Optional[tuple]]] = []
    counter = itertools.count()
    heapq.heappush(heap, (-np.inf, next(counter), PartialFixing(), None))
    node_count = 0
    status = "optimal"

    while heap:
        pushed_bound, _, fix, warm = heapq.heappop(heap)
        if pushed_bound >= best_val - margin():
            continue
        if time.monotonic() - start > time_limit:
            status = "time_limit"
            break
        node_count += 1
        try:
            bound, completion, sols, costs, warm = ctx.node_bound(fix, best_val - margin(), warm)
        except FeasibilityError:
            continue
        # values from the shared kernel equal wowa_value bit for bit
        values = wowa_batch(costs, inst.v, inst.p)
        s = int(np.argmin(values))
        if values[s] < best_val:
            best_val = float(values[s])
            best_sol = sols[s]
        if bound >= best_val - margin():
            continue
        e = ctx.branch_element(fix, completion)
        if e is None:
            continue  # fully decided; the bound solve already evaluated it
        # a child with no completion raises FeasibilityError in its bound solve
        for child in (
            PartialFixing(fix.forced_in | {e}, fix.forced_out),
            PartialFixing(fix.forced_in, fix.forced_out | {e}),
        ):
            heapq.heappush(heap, (bound, next(counter), child, warm))

    return ExactResult(
        solution=best_sol,
        objective=best_val,
        node_count=node_count,
        proof_status=status,
    )
