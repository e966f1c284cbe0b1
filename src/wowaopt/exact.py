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
from .base_solvers import BLOCK_ROWS, FeasibilityError, PartialFixing, Solution, solve_with_costs
from .model import ScenarioInstance, scenario_costs

__all__ = [
    "ExactResult",
    "brute_force",
    "check_time_limit",
    "exact_bb",
    "search_space_size",
]

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


def _cost_vectors(inst: ScenarioInstance, block: np.ndarray) -> np.ndarray:
    # the K-by-S scenario costs of a block's rows, equal to scenario_costs bit for bit
    return inst.costs[:, block].sum(axis=2)


def _kernel_batches(inst: ScenarioInstance) -> Iterator[list[np.ndarray]]:
    """The enumerated blocks in kernel-call batches.

    Consecutive blocks are joined until they hold BLOCK_ROWS solutions, so
    that short blocks (an explicit list of ragged lengths) share kernel calls;
    every full block is a batch of its own.
    """
    blocks: list[np.ndarray] = []
    rows = 0
    for block in inst.kind.enumerate(inst.n):
        blocks.append(block)
        rows += len(block)
        if rows >= BLOCK_ROWS:
            yield blocks
            blocks, rows = [], 0
    if blocks:
        yield blocks


def brute_force(inst: ScenarioInstance, check_pareto: bool = False) -> ExactResult:
    """Global minimum by exhaustive enumeration (oracle-grade, small instances).

    Every solution is enumerated, but only those whose expected-cost lower
    bound c * (p . a) (see ``WeightVector.expectation_factor``) does not
    exceed the best value found so far are costed and evaluated; the others
    can neither beat nor tie it.  Refuses search spaces larger than
    ``BRUTE_FORCE_LIMIT``.  With ``check_pareto`` the returned solution is
    additionally tested for Pareto efficiency against every enumerated cost
    vector.
    """
    size = search_space_size(inst)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"search space has {size} solutions, exceeding the limit of {BRUTE_FORCE_LIMIT}"
        )
    # A row's bound c * (p . a) is the sum of its elements' entries of floor
    # (costs are >= 0).
    floor = inst.v.expectation_factor * (inst.p.as_array() @ inst.costs)
    best_val = np.inf
    best_sub: Optional[list[int]] = None
    for blocks in _kernel_batches(inst):
        if best_sub is not None:  # with no best yet, a batch is evaluated whole
            # the margin, about 1e6 times the rounding error of both sums,
            # keeps every row that the kernel could round to or below the best
            cutoff = best_val + 1e-9 * max(1.0, abs(best_val))
            # rows are summed down the columns of b.T, since numpy adds along
            # a short inner axis about 3x slower
            kept = (b.compress(floor.take(b.T).sum(axis=0) <= cutoff, axis=0) for b in blocks)
            blocks = [b for b in kept if len(b)]
            if not blocks:
                continue
        costs = np.hstack([_cost_vectors(inst, b) for b in blocks])
        values = wowa_batch(costs, inst.v, inst.p)
        s = int(np.argmin(values))
        if values[s] < best_val:
            best_val = float(values[s])
            for block in blocks:
                if s < len(block):
                    best_sub = block[s].tolist()
                    break
                s -= len(block)
    if best_sub is None:
        raise FeasibilityError("instance has no feasible solution")

    pareto: Optional[bool] = None
    if check_pareto:
        best_costs = scenario_costs(inst, Solution(best_sub), check=False)

        def dominated(block) -> bool:
            A = _cost_vectors(inst, block)
            le = np.all(A <= best_costs[:, None], axis=0)
            lt = np.any(A < best_costs[:, None], axis=0)
            return bool(np.any(le & lt))

        pareto = not any(dominated(block) for block in inst.kind.enumerate(inst.n))

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
# Every relaxation solve also yields a feasible completion, which improves
# the incumbent for free.  The search remembers each completion it meets
# with its scenario costs, so each is costed once and evaluated once: a
# node passes only the completions new to the search to the kernel, in one
# call.  A child also reuses its parent's last solve as its first when its
# fixing admits that completion: the solve was optimal on a superset under
# the same w, so it is optimal for the child too.
#
# Reduced-cost fixing: the solve that attains a node's bound z, under the
# element costs c = w*.C of its iterate w*, also prices every free element.
# The kind's reduced_fixing fixes an element out (in) for the whole subtree
# when the cheapest completion under c with it in (out) reaches the cutoff
# best - margin by which nodes are pruned; since w*.F(X) <= WOWA(X), no
# completion so removed can beat the incumbent.  For selection that price is
# exactly z + c_e - c_in for an unchosen e and z - c_e + c_out for a chosen
# one, with c_in the dearest chosen and c_out the cheapest unchosen free
# cost.  The attaining completion stays admissible, so z bounds both
# children.
# ---------------------------------------------------------------------------

_FW_STEPS = 6


class _BBContext:
    """Per-search state: the instance's arrays and the completions met so far."""

    def __init__(self, inst: ScenarioInstance):
        self.inst = inst
        self.C = np.asarray(inst.costs)
        self.p = inst.p.as_array()
        self.spread = self.C.max(axis=0) - self.C.min(axis=0)
        # chosen -> (Solution, scenario costs) of each completion a node returned
        self.met: dict[tuple[int, ...], tuple[Solution, np.ndarray]] = {}

    def node_bound(self, fix: PartialFixing, target: float, warm=None):
        """Frank-Wolfe-refined lower bound, cut short once it reaches target.

        Starts from ``warm``, the parent's final (w, avg, last solve), or from
        (p, None, None); the parent's last (Solution, value, element costs) is
        the first solve when the fixing admits it.  Returns the bound, the
        (Solution, element costs) of the solve that attained it, the
        (Solution, scenario costs) of the node's completions that the search
        had not met before, and the warm state of its children.
        """
        inst = self.inst
        bound = -np.inf
        attained: Optional[tuple[Solution, np.ndarray]] = None
        new: list[tuple[Solution, np.ndarray]] = []
        w_scen, avg, last = warm or (self.p, None, None)
        reuse = (last is not None and fix.forced_in.issubset(last[0].chosen)
                 and fix.forced_out.isdisjoint(last[0].chosen))
        offset = 0 if avg is None else _FW_STEPS
        for step in range(_FW_STEPS):
            if step == 0 and reuse:
                sol, value, costs = last  # optimal on a superset under the same w
            else:
                costs = w_scen @ self.C
                sol, value = solve_with_costs(inst.kind, costs, fix)
            if value > bound:
                bound = value
                attained = (sol, costs)
            entry = self.met.get(sol.chosen)
            if entry is None:
                entry = self.met[sol.chosen] = (sol, scenario_costs(inst, sol, check=False))
                new.append(entry)
            if bound >= target or step == _FW_STEPS - 1:
                break
            gamma = 2.0 / (offset + step + 2.0)
            avg = entry[1] if avg is None else (1.0 - gamma) * avg + gamma * entry[1]
            pi, cum = _worst_first(avg, self.p)
            direction = np.empty(inst.K)
            direction[pi] = _rank_omegas(inst.v, cum)
            w_scen = (1.0 - gamma) * w_scen + gamma * direction
        # the loop ends on a solve, so (sol, value, costs) is the solve under w_scen
        return bound, attained, new, (w_scen, avg, (sol, value, costs))

    def branch_element(self, fix: PartialFixing, attained) -> Optional[int]:
        """Undecided element with the largest scenario-cost spread.

        Candidates come from the completion of ``attained``, the node's
        (Solution, element costs) that attained its bound (they drive the gap
        between the linear relaxation and the true WOWA value); ties and
        the no-candidate case fall back to the lowest free index.  Returns
        None when the node admits exactly one completion, which the bound
        solve has already evaluated.
        """
        free = self.inst.kind.free_elements(fix, self.inst.n)
        candidates = [e for e in attained[0].chosen if e in free]
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
            bound, attained, new, warm = ctx.node_bound(fix, best_val - margin(), warm)
        except FeasibilityError:
            continue
        # a completion met before has a value no less than the incumbent
        if new:
            sols, costs = zip(*new)
            # values from the shared kernel equal wowa_value bit for bit
            values = wowa_batch(np.column_stack(costs), inst.v, inst.p)
            s = int(np.argmin(values))
            if values[s] < best_val:
                best_val = float(values[s])
                best_sol = sols[s]
        if bound >= best_val - margin():
            continue
        sol, costs = attained
        fix = inst.kind.reduced_fixing(costs, fix, sol, bound, best_val - margin())
        e = ctx.branch_element(fix, attained)
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
