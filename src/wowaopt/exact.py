"""Exact WOWA minimization: tail integrals, brute force, branch-and-bound.

The branch-and-bound is self-contained (no external MIP solver).  Its node
relaxation sweeps over scenario-weight vectors from the convex set spanned
by the rank-weight vectors (which also contains the probability vector, so
the plain expected-cost bound is the first iterate): each such functional
is linear in the chosen elements, so the base solver minimizes it exactly
under the node's partial fixing, and each is a lower bound on the WOWA
value of every completion when the importance weights are nonincreasing.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .aggregation import DistortionFunction, NonIncreasingWeightsError, wowa_batch
from .approx import approx_solve
from .base_solvers import FeasibilityError, PartialFixing, Solution, solve_with_costs
from .model import ScenarioInstance, scenario_costs, wowa_value

__all__ = [
    "ExactResult",
    "compute_Lj",
    "wowa_via_decomposition",
    "brute_force",
    "exact_bb",
    "search_space_size",
]

_CHUNK = 2048


@dataclass(frozen=True)
class ExactResult:
    solution: Solution
    objective: float
    node_count: int
    proof_status: str  # "optimal" or "time_limit"
    optimal_is_pareto: Optional[bool] = None


def _greedy_tail_integral(a: np.ndarray, p: np.ndarray, budget: float) -> float:
    # Fill [0, budget] with probability mass taken from the largest costs
    # down; equivalent to the LP max{sum z_k a_k : sum z_k = budget,
    # 0 <= z_k <= p_k}.
    order = np.argsort(-a, kind="stable")
    total = 0.0
    remaining = budget
    for idx in order:
        take = p[idx] if p[idx] < remaining else remaining
        total += take * a[idx]
        remaining -= take
        if remaining <= 0.0:
            break
    return float(total)


def compute_Lj(inst: ScenarioInstance, sol: Solution, j: int, check: bool = True) -> float:
    """Integral of the nonincreasing cost rearrangement over [0, j/K], j in 1..K."""
    if not 1 <= j <= inst.K:
        raise ValueError(f"j must be in 1..{inst.K}, got {j}")
    a = scenario_costs(inst, sol, check=check)
    return _greedy_tail_integral(a, inst.p.as_array(), j / inst.K)


def wowa_via_decomposition(inst: ScenarioInstance, sol: Solution, check: bool = True) -> float:
    """WOWA via K * sum_j (v_j - v_{j+1}) * L_j; equals wowa_value to 1e-9."""
    a = scenario_costs(inst, sol, check=check)
    p = inst.p.as_array()
    v = inst.v.as_array()
    vprime = v - np.concatenate((v[1:], [0.0]))
    total = 0.0
    for j in range(1, inst.K + 1):
        total += vprime[j - 1] * _greedy_tail_integral(a, p, j / inst.K)
    return inst.K * total


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
    out = np.zeros((inst.K, len(subsets)))
    for s, sub in enumerate(subsets):
        if sub:
            out[:, s] = inst.costs[:, list(sub)].sum(axis=1)
    return out


def brute_force(
    inst: ScenarioInstance,
    check_pareto: bool = False,
    space_limit: int = 10**6,
) -> ExactResult:
    """Global minimum by exhaustive enumeration (oracle-grade, small instances).

    Refuses search spaces larger than ``space_limit``.  With
    ``check_pareto`` the returned solution is additionally tested for
    Pareto efficiency against every enumerated cost vector.
    """
    size = search_space_size(inst)
    if size > space_limit:
        raise ValueError(
            f"search space has {size} solutions, exceeding the limit of {space_limit}"
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
        best_costs = inst.costs[:, list(best_sub)].sum(axis=1) if best_sub else np.zeros(inst.K)

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
# the node's partial fixing; a few Frank-Wolfe steps on w (each step's
# direction is the rank-weight vector of the current completion's cost
# ordering) tighten the bound well beyond the plain expectation bound.
# Every relaxation solve also yields a feasible completion, which is used
# to improve the incumbent for free.
# ---------------------------------------------------------------------------

_FW_STEPS = 10


class _BBContext:
    """Per-instance precomputation shared by all nodes."""

    def __init__(self, inst: ScenarioInstance):
        self.inst = inst
        self.C = np.asarray(inst.costs)
        self.p = inst.p.as_array()
        d = DistortionFunction.from_weights(inst.v)
        self.grid = d._grid
        self.bp = d._bp
        self.spread = self.C.max(axis=0) - self.C.min(axis=0)

    def omega_along(self, pi: np.ndarray) -> np.ndarray:
        cum = np.clip(np.cumsum(self.p[pi]), 0.0, 1.0)
        w = np.interp(cum, self.grid, self.bp)
        return np.diff(w, prepend=0.0)

    def node_bound(self, fix: PartialFixing, on_completion):
        """Frank-Wolfe-refined lower bound plus the last best completion."""
        inst = self.inst
        bound = -np.inf
        best_completion: Optional[tuple[int, ...]] = None
        w_scen = self.p
        for step in range(_FW_STEPS):
            d = w_scen @ self.C
            sol, value = solve_with_costs(inst.kind, d, fix)
            if value > bound:
                bound = value
                best_completion = sol.chosen
            costs = on_completion(sol)
            pi = np.argsort(-costs, kind="stable")
            omega = self.omega_along(pi)
            direction = np.empty_like(omega)
            direction[pi] = omega
            gamma = 2.0 / (step + 2.0)
            w_scen = (1.0 - gamma) * w_scen + gamma * direction
        return bound, best_completion

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


def exact_bb(inst: ScenarioInstance, time_limit: float = 3600.0) -> ExactResult:
    """Best-first branch-and-bound; optimal on termination.

    Requires nonincreasing importance weights (the node relaxations are
    only valid lower bounds in that regime).  On hitting the time limit
    the best incumbent is returned with proof_status "time_limit".
    """
    if not inst.v.is_nonincreasing:
        raise NonIncreasingWeightsError("branch-and-bound requires nonincreasing importance weights")

    ctx = _BBContext(inst)
    start = time.monotonic()

    incumbent = approx_solve(inst)
    best_sol = incumbent.solution
    best_val = incumbent.wowa_objective

    def on_completion(sol: Solution) -> np.ndarray:
        nonlocal best_sol, best_val
        costs = scenario_costs(inst, sol, check=False)
        value = wowa_value(inst, sol, check=False)
        if value < best_val:
            best_val = value
            best_sol = sol
        return costs

    def margin() -> float:
        return 1e-12 * max(1.0, abs(best_val))

    heap: list[tuple[float, int, PartialFixing]] = []
    counter = itertools.count()
    heapq.heappush(heap, (-np.inf, next(counter), PartialFixing()))
    node_count = 0
    status = "optimal"

    while heap:
        pushed_bound, _, fix = heapq.heappop(heap)
        if pushed_bound >= best_val - margin():
            continue
        if time.monotonic() - start > time_limit:
            status = "time_limit"
            break
        node_count += 1
        try:
            bound, completion = ctx.node_bound(fix, on_completion)
        except FeasibilityError:
            continue
        if bound >= best_val - margin():
            continue
        e = ctx.branch_element(fix, completion)
        if e is None:
            continue  # fully decided; the bound solve already evaluated it
        for child in (
            PartialFixing(fix.forced_in | {e}, fix.forced_out),
            PartialFixing(fix.forced_in, fix.forced_out | {e}),
        ):
            if inst.kind.plausible(child, inst.n):
                heapq.heappush(heap, (bound, next(counter), child))

    return ExactResult(
        solution=best_sol,
        objective=best_val,
        node_count=node_count,
        proof_status=status,
    )
