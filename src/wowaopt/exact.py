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

import functools
import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregation import NonIncreasingWeightsError, _is_real, _rank_omegas, _worst_first, wowa_batch
from .approx import approx_solve
from .base_solvers import FeasibilityError, PartialFixing, ProblemKind, Solution
from .model import ScenarioInstance, _row_costs, scenario_costs

__all__ = [
    "ExactResult",
    "brute_force",
    "check_time_limit",
    "exact_bb",
    "search_space_size",
]

BRUTE_FORCE_LIMIT = 10**6  # the largest search space brute_force enumerates
BLOCK_ROWS = 2048  # the most solutions one kernel call of brute_force evaluates


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    objective: float
    node_count: int
    proof_status: str  # "optimal" or "time_limit"
    lower_bound: float  # proven: the objective when optimal, else possibly -inf
    optimal_is_pareto: Optional[bool] = None


def search_space_size(inst: ScenarioInstance) -> int:
    return inst.kind.size(inst.n)


@functools.lru_cache(maxsize=2)
def _enumerated(kind: ProblemKind, n: int) -> tuple[list[np.ndarray], ...]:
    """``kind.enumerate(n)`` in kernel batches of read-only blocks.

    A block is a copy of at most BLOCK_ROWS rows of one array, so that the
    entry is small allocations and the built arrays are freed (views kept
    them whole, which raised the peak resident memory).  Consecutive blocks
    are joined until a batch holds BLOCK_ROWS solutions, so that short runs
    (an explicit list of ragged lengths) share kernel calls.  Enumeration is
    the same for every instance of a kind and size, so brute force keeps the
    last two (kinds are frozen and compare by value).  At
    ``BRUTE_FORCE_LIMIT`` an entry takes at most about 8 MB (selection n=22,
    q=11, int8); an explicit kind's entry is smaller than its own solution
    list.
    """
    batches, batch, rows = [], [], 0
    for array in kind.enumerate(n):
        for start in range(0, len(array), BLOCK_ROWS):
            block = array[start:start + BLOCK_ROWS].copy()
            block.flags.writeable = False
            batch.append(block)
            rows += len(block)
            if rows >= BLOCK_ROWS:
                batches.append(batch)
                batch, rows = [], 0
    if batch:
        batches.append(batch)
    return tuple(batches)


def _screened(block: np.ndarray, bounds: list[np.ndarray], cutoff: float) -> np.ndarray:
    # the rows of block whose every bound, the sum of its elements' entries,
    # is at most cutoff; rows are summed down the columns of block.T, since
    # numpy adds along a short inner axis about 3x slower
    for bound in bounds:
        block = block.compress(bound.take(block.T).sum(axis=0) <= cutoff, axis=0)
    return block


def brute_force(inst: ScenarioInstance, check_pareto: bool = False) -> ExactResult:
    """Global minimum by exhaustive enumeration (oracle-grade, small instances).

    Every solution is enumerated, but only those whose lower bounds do not
    exceed the best value found so far are costed and evaluated; the others
    can neither beat nor tie it.  One bound is the expected cost
    c * (p . a) (see ``WeightVector.expectation_factor``).  With
    nonincreasing weights the other is w . a, w the rank weights of the best
    solution's scenario costs taken worst first, recomputed each time the
    best improves: it is f_pi(a) for the best's order pi, at most WOWA(a)
    (see ``aggregation.f_pi``).  The enumeration is cached per (kind, n)
    (see ``_enumerated``).  Refuses search spaces larger than
    ``BRUTE_FORCE_LIMIT``.  With ``check_pareto`` the returned solution is
    additionally tested for Pareto efficiency against every enumerated cost
    vector.
    """
    size = search_space_size(inst)
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"search space has {size} solutions, exceeding the limit of {BRUTE_FORCE_LIMIT}"
        )
    # A row's bound is the sum of its elements' entries of each bound vector
    # (costs are >= 0): floor for c * (p . a), and w . C for w . a.
    p = inst.p.as_array()
    floor = inst.v.expectation_factor * (p @ inst.costs)
    bounds = [floor]
    best_val = np.inf
    best_sub: Optional[list[int]] = None
    for blocks in _enumerated(inst.kind, inst.n):
        if best_sub is not None:  # with no best yet, a batch is evaluated whole
            # the margin, about 1e6 times the rounding error of both sums,
            # keeps every row that the kernel could round to or below the best
            cutoff = best_val + 1e-9 * max(1.0, abs(best_val))
            blocks = [b for b in (_screened(b, bounds, cutoff) for b in blocks) if len(b)]
            if not blocks:
                continue
        costs = np.hstack([_row_costs(inst, b) for b in blocks])
        values = wowa_batch(costs, inst.v, inst.p)
        s = int(np.argmin(values))
        if values[s] < best_val:
            best_val, best_costs = float(values[s]), costs[:, s]
            if inst.v.is_nonincreasing:
                order, cum = _worst_first(best_costs, p)
                w = np.empty_like(p)
                w[order] = _rank_omegas(inst.v, cum)
                bounds = [floor, w @ inst.costs]
            for block in blocks:
                if s < len(block):
                    best_sub = block[s].tolist()
                    break
                s -= len(block)
    if best_sub is None:
        raise FeasibilityError("instance has no feasible solution")

    pareto: Optional[bool] = None
    if check_pareto:  # whether no enumerated cost vector dominates the best's
        b = best_costs[:, None]
        costs = (_row_costs(inst, block) for batch in _enumerated(inst.kind, inst.n) for block in batch)
        pareto = not any(np.any(np.all(A <= b, axis=0) & np.any(A < b, axis=0)) for A in costs)

    return ExactResult(
        solution=Solution(best_sub),
        objective=best_val,
        node_count=size,
        proof_status="optimal",
        lower_bound=best_val,
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
# the latest completion alone makes w cycle).  A node makes the kind's
# fw_steps solves; a child continues from its parent's final (w, average) at
# step fw_steps, and the root starts from p.
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
# cost.  For assignment the price is bounded below through the Hungarian's
# final potentials, which a solve carries as its certificate: by z + r_e for
# an unchosen edge e, r_e its reduced cost, and for a chosen one by z plus
# the least r of the other free edges in its row plus the least in its
# column.  A child that reuses its parent's last solve reuses its potentials
# too.  The attaining completion stays admissible, so z bounds both children.
#
# Lockstep batches: the search pops up to _BB_BATCH open nodes whose pushed
# bound is below the cutoff and bounds them together.  Their Frank-Wolfe
# steps are independent, so each step makes one matmul, one solve_rows call
# and one ranking call for all nodes still running, instead of one of each
# per node; every row is computed as a batch of one would compute it.  All
# nodes of a batch stop at the cutoff of the batch's start, and the
# incumbent and cutoff are updated once the batch is bounded, so a batch
# may bound a node that a search of one node at a time would have pruned.
# ---------------------------------------------------------------------------

_BB_BATCH = 16  # the most open nodes one node_bounds call bounds


@dataclass(slots=True, eq=False)
class _Node:
    """An open node; a solve is (Solution, value, certificate, element costs)."""

    fix: PartialFixing
    w: np.ndarray  # the Frank-Wolfe iterate it continues from (p at the root)
    avg: Optional[np.ndarray] = None  # running average of its completions' costs, None before the first
    last: Optional[tuple] = None  # the solve under w, its first when the fixing admits it
    bound: float = -np.inf
    attained: Optional[tuple] = None  # the solve that reached bound; None: no completion


class _BBContext:
    """Per-search state: the instance's arrays and the completions met so far."""

    def __init__(self, inst: ScenarioInstance):
        self.inst = inst
        self.C = inst.costs
        self.p = inst.p.as_array()
        self.spread = self.C.max(axis=0) - self.C.min(axis=0)
        # chosen -> scenario costs of each completion a node returned
        self.met: dict[tuple[int, ...], np.ndarray] = {}

    def node_bounds(self, batch: list[_Node], target: float) -> list[tuple[Solution, np.ndarray]]:
        """Frank-Wolfe-refined lower bounds of a batch of nodes, in lockstep.

        A node continues from its ``w`` and ``avg``; its ``last`` solve is its
        first when its fixing admits that completion.  Each step makes one
        matmul, one ``solve_rows`` and one ranking call for the nodes still
        running; a node stops once its bound reaches target, or after
        ``inst.kind.fw_steps`` solves.  Every row is computed as a batch of
        one would compute it, to the bit.  Sets each node's ``bound`` and
        ``attained`` and, for its children, its final ``w``, ``avg`` and
        ``last``.  Returns the (Solution, scenario costs) of the completions
        that the search had not met before, in the order met.
        """
        inst = self.inst
        steps = inst.kind.fw_steps
        # a node's first solve is its last when its fixing admits that
        # completion: optimal on a superset under the same w
        first = []
        for node in batch:
            sol, *_ = node.last or (None,)
            first.append(node.last if sol is not None and node.fix.admits(sol.chosen) else None)
        # the running nodes and, row by row, their iterates, averages and step sizes
        running = list(batch)
        W = np.array([node.w for node in running])
        fresh = [node.avg is None for node in running]
        AVG = np.array([np.zeros(inst.K) if f else node.avg for f, node in zip(fresh, running)])
        # the steps each continues from: its parent's count, none without an average (gamma = 1)
        DONE = np.where(fresh, 0.0, steps)[:, None]
        new: list[tuple[Solution, np.ndarray]] = []
        for step in range(steps):
            solves = first if step == 0 else [None] * len(running)
            rows = [j for j, solved in enumerate(solves) if solved is None]
            if rows:
                # a stack of 1-by-K products, each row w @ C to the bit
                costs = np.matmul(W[rows, None], self.C)[:, 0]
                out = inst.kind.solve_rows(costs, [running[j].fix for j in rows])
                for j, solved, row in zip(rows, out, costs):
                    if solved is not None:
                        solves[j] = (*solved, row)
            keep, seen = [], []
            for j, (node, solved) in enumerate(zip(running, solves)):
                if solved is None:  # the fixing has no completion
                    continue
                sol, value, _, _ = solved
                if value > node.bound:
                    node.bound, node.attained = value, solved
                sol_costs = self.met.get(sol.chosen)
                if sol_costs is None:
                    sol_costs = self.met[sol.chosen] = scenario_costs(inst, sol, check=False)
                    new.append((sol, sol_costs))
                if node.bound >= target or step == steps - 1:
                    # the node ends on a solve, which is its solve under W[j]
                    if step:  # at step 0 they are still its inputs
                        node.w, node.avg = W[j], AVG[j]
                    node.last = solved
                else:
                    keep.append(j)
                    seen.append(sol_costs)
            if not keep:
                break
            if len(keep) < len(running):
                running = [running[j] for j in keep]
                W, AVG, DONE = W[keep], AVG[keep], DONE[keep]
            gamma = 2.0 / (DONE + step + 2.0)
            stay = 1.0 - gamma
            AVG = stay * AVG + gamma * np.array(seen)
            order, cum = _worst_first(AVG.T, self.p)
            direction = np.empty_like(cum)
            direction[order, np.arange(len(running))] = _rank_omegas(inst.v, cum)
            W = stay * W + gamma * direction.T
        return new

    def branch_element(self, fix: PartialFixing, sol: Solution) -> Optional[int]:
        """Undecided element with the largest scenario-cost spread.

        Candidates come from ``sol``, the completion that attained the node's
        bound (they drive the gap between the linear relaxation and the true
        WOWA value); ties and the no-candidate case fall back to the lowest
        free index.  Returns None when the node admits exactly one
        completion, which the bound solve has already evaluated.
        """
        free = self.inst.kind.free_elements(fix, self.inst.n)
        candidates = [e for e in sol.chosen if e in free]
        if candidates:
            return max(candidates, key=lambda e: (self.spread[e], -e))
        return min(free, default=None)


def check_time_limit(time_limit: float) -> float:
    """A branch-and-bound time limit: a positive number of seconds, math.inf for none; not a bool."""
    if not (_is_real(time_limit) and time_limit > 0):  # NaN fails the comparison too
        raise ValueError(f"time limit must be positive seconds (inf for none), got {time_limit!r}")
    return time_limit


def exact_bb(inst: ScenarioInstance, time_limit: float = 3600.0) -> ExactResult:
    """Best-first branch-and-bound; optimal on termination.

    Requires nonincreasing importance weights (the node relaxations are
    only valid lower bounds in that regime).  Open nodes are bounded in
    batches of up to _BB_BATCH, and the time limit is checked before each
    batch: on hitting it the best incumbent is returned with proof_status
    "time_limit" and, as lower_bound, the least pushed bound of the open
    nodes; a limit that is not a positive number raises ValueError.
    """
    check_time_limit(time_limit)
    if not inst.v.is_nonincreasing:
        raise NonIncreasingWeightsError("branch-and-bound requires nonincreasing importance weights")

    ctx = _BBContext(inst)
    start = time.monotonic()

    incumbent = approx_solve(inst)
    best_sol = incumbent.solution
    best_val = incumbent.wowa_objective
    # nodes whose bound reaches the cutoff, best less a relative margin, are pruned
    cutoff = best_val - 1e-12 * max(1.0, abs(best_val))

    heap: list[tuple[float, int, _Node]] = []  # (pushed bound, counter, node)
    counter = itertools.count()
    heapq.heappush(heap, (-np.inf, next(counter), _Node(PartialFixing(), ctx.p)))
    node_count = 0
    status = "optimal"

    while heap:
        least = heap[0][0]  # the least pushed bound of the open nodes, the batch's first
        batch = []
        while heap and len(batch) < _BB_BATCH:
            pushed_bound, _, node = heapq.heappop(heap)
            if pushed_bound < cutoff:
                batch.append(node)
        if not batch:
            break
        if time.monotonic() - start > time_limit:
            status = "time_limit"
            break
        node_count += len(batch)
        new = ctx.node_bounds(batch, cutoff)
        # a completion met before has a value no less than the incumbent
        if new:
            sols, costs = zip(*new)
            # values from the shared kernel equal wowa_value bit for bit
            values = wowa_batch(np.column_stack(costs), inst.v, inst.p)
            s = int(np.argmin(values))
            if values[s] < best_val:
                best_val = float(values[s])
                best_sol = sols[s]
                cutoff = best_val - 1e-12 * max(1.0, abs(best_val))
        for node in batch:
            if node.attained is None or node.bound >= cutoff:
                continue  # no completion, or pruned
            sol, _, certificate, costs = node.attained
            fix = inst.kind.reduced_fixing(costs, node.fix, sol, node.bound, cutoff, certificate)
            e = ctx.branch_element(fix, sol)
            if e is None:
                continue  # fully decided; the bound solve already evaluated it
            for child in (
                PartialFixing(fix.forced_in | {e}, fix.forced_out),
                PartialFixing(fix.forced_in, fix.forced_out | {e}),
            ):
                heapq.heappush(heap, (node.bound, next(counter), _Node(child, node.w, node.avg, node.last)))

    return ExactResult(
        solution=best_sol,
        objective=best_val,
        node_count=node_count,
        proof_status=status,
        lower_bound=best_val if status == "optimal" else least,  # least < best_val
    )
