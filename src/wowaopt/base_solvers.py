"""Deterministic polynomial-time solvers for the underlying problems.

These are the single-cost-vector solvers the aggregation-based
approximation and the branch-and-bound both build on: pick the q cheapest
elements (selection) or minimum-cost perfect matching (assignment,
Hungarian method).  Both accept a partial fixing so branch-and-bound can
reuse them unchanged at every node.  ``ProblemKind`` is the base class of
the feasible sets; the kinds themselves are in ``wowaopt.model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FeasibilityError",
    "Solution",
    "PartialFixing",
    "NO_FIXING",
    "ProblemKind",
    "BLOCK_ROWS",
    "solve_selection",
    "solve_assignment",
    "solve_with_costs",
    "BaseSolver",
    "EXACT_BASE",
]


class FeasibilityError(ValueError):
    """A solution (or partial fixing) violates the feasible-set structure."""


@dataclass(frozen=True, init=False)
class Solution:
    """A feasible solution: the sorted set of chosen element indices."""

    chosen: tuple[int, ...]

    def __init__(self, chosen: Sequence[int]):
        idx = tuple(sorted(int(i) for i in chosen))
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate element indices in solution")
        object.__setattr__(self, "chosen", idx)

    def __len__(self) -> int:
        return len(self.chosen)

    def as_pairs(self, m: int) -> tuple[tuple[int, int], ...]:
        """Decode chosen flat indices as (row, col) assignment edges."""
        return tuple(divmod(i, m) for i in self.chosen)


@dataclass(frozen=True)
class PartialFixing:
    """Elements forced into / out of the solution (disjoint index sets)."""

    forced_in: frozenset[int] = field(default_factory=frozenset)
    forced_out: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "forced_in", frozenset(self.forced_in))
        object.__setattr__(self, "forced_out", frozenset(self.forced_out))
        if self.forced_in & self.forced_out:
            raise ValueError("forced_in and forced_out must be disjoint")


NO_FIXING = PartialFixing()

BLOCK_ROWS = 2048  # the most feasible solutions one block of ProblemKind.enumerate holds


class ProblemKind:
    """Base class of the feasible sets over elements 0..n-1; a kind is one subclass.

    ``n`` is the instance's element count, which a kind need not store.  A
    subclass sets ``tag``, its name in the JSON format, and defines

    * ``problems(n)``: why it cannot be used with n elements, empty if it can;
    * ``check(sol)``: raise FeasibilityError unless sol is feasible (its
      indices are already known to be in range);
    * ``size(n)`` and ``enumerate(n)``: how many feasible solutions there
      are, and each of them once, as the rows of 2-D integer arrays
      ("blocks") of at most ``BLOCK_ROWS`` rows, each row's indices
      ascending.  The order is fixed (brute force returns the first of equal
      optima in it): selection and assignment yield their solutions in
      lexicographic order, in full blocks but the last, and explicit in list
      order, one block per run of equal-length solutions;
    * ``solve(costs, fix)``: the cheapest feasible (Solution, cost) under a
      flat n-vector of costs and a partial fixing, raising FeasibilityError
      when the fixing has no feasible completion;
    * ``lp_rows(n)``: its LP equality rows (name, [(coef, variable)], rhs)
      over x1..xn and ``lp_binaries()``;
    * ``to_json()`` and the classmethod ``from_json(body)``: the body of its
      JSON object, the part under ``tag``.

    The branch-and-bound branches on ``free_elements(fix, n)``; a branch
    without a completion is dropped when its ``solve`` raises.  Before it
    branches, ``reduced_fixing(costs, fix, sol, z, cutoff)`` may fix more
    elements from the node's bounding solve: ``sol`` of value ``z`` is
    ``solve(costs, fix)``, and an element may be fixed in (out) when every
    completion with it out (in) costs at least ``cutoff`` under ``costs``.
    ``sol`` must stay admissible.  By default nothing more is fixed.
    """

    tag: str

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        """Elements to branch on; empty once the fixing admits one completion."""
        return set(range(n)) - fix.forced_in - fix.forced_out

    def reduced_fixing(self, costs, fix: PartialFixing, sol: Solution, z: float,
                       cutoff: float) -> PartialFixing:
        """``fix`` with the elements the solve's prices decide; none by default."""
        return fix

    def lp_binaries(self) -> list[str]:
        """Binary variables the LP rows use besides x1..xn."""
        return []


def solve_selection(costs, q: int, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """q elements of minimum total cost; ties broken by ascending index."""
    c = np.asarray(costs, dtype=float)
    n = c.size
    if not 1 <= q <= n:
        raise FeasibilityError(f"selection size q={q} outside 1..{n}")
    if len(fix.forced_in) > q:
        raise FeasibilityError("more elements forced in than the selection size")
    free = [i for i in range(n) if i not in fix.forced_in and i not in fix.forced_out]
    need = q - len(fix.forced_in)
    if len(free) < need:
        raise FeasibilityError("not enough free elements to complete the selection")
    free.sort(key=c.tolist().__getitem__)  # stable: ties stay in index order
    chosen = sorted(fix.forced_in) + free[:need]
    sol = Solution(chosen)
    return sol, float(c[list(sol.chosen)].sum())


def _hungarian(cost: list[list[float]]) -> list[int]:
    # O(m^3) shortest-augmenting-path form with row/column potentials.
    # The result is optimal and deterministic: of tied optima it returns the
    # same one on every call, not necessarily the lexicographically first.
    # An entry of +inf is a forbidden edge: a search that reaches no column
    # at a finite distance proves that no perfect matching avoids them.
    m = len(cost)
    INF = float("inf")
    u = [0.0] * (m + 1)
    v = [0.0] * (m + 1)
    match = [0] * (m + 1)  # 1-based: match[j] = row assigned to column j
    way = [0] * (m + 1)
    for i in range(1, m + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if j1 < 0:
                raise FeasibilityError("fixing does not extend to a perfect matching")
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [0] * m
    for j in range(1, m + 1):
        row_to_col[match[j] - 1] = j - 1
    return row_to_col


def solve_assignment(cost_matrix, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """Minimum-cost perfect matching on an m-by-m matrix, Hungarian method.

    Fixed edges are handled by matrix reduction: forced-in rows/columns are
    removed and forced-out entries become +inf, which the Hungarian method
    never matches.  Edge (row, col) is flat element row * m + col.
    """
    c = np.asarray(cost_matrix, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    m = c.shape[0]

    if any(not 0 <= e < m * m for e in fix.forced_in | fix.forced_out):
        raise ValueError(f"fixed edge index outside 0..{m * m - 1}")
    in_pairs = [divmod(e, m) for e in fix.forced_in]
    rows_used = {r for r, _ in in_pairs}
    cols_used = {col for _, col in in_pairs}
    if len(rows_used) != len(in_pairs) or len(cols_used) != len(in_pairs):
        raise FeasibilityError("forced-in edges are not a partial matching")

    free_rows = [r for r in range(m) if r not in rows_used]
    free_cols = [col for col in range(m) if col not in cols_used]
    rows = c.tolist()
    chosen = list(fix.forced_in)
    if free_rows:
        out = fix.forced_out
        reduced = [[math.inf if r * m + col in out else rows[r][col] for col in free_cols]
                   for r in free_rows]
        row_to_col = _hungarian(reduced)
        chosen += [free_rows[r] * m + free_cols[col] for r, col in enumerate(row_to_col)]
    sol = Solution(chosen)
    total = 0.0
    for e in sol.chosen:  # in index order, one add at a time
        total += rows[e // m][e % m]
    return sol, total


def solve_with_costs(kind: ProblemKind, costs, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """Solve the kind's linear-cost problem; costs is always a flat n-vector."""
    if not isinstance(kind, ProblemKind):
        raise ValueError(f"unknown problem kind {kind!r}")
    return kind.solve(np.asarray(costs, dtype=float), fix)


@dataclass(frozen=True)
class BaseSolver:
    """A deterministic-problem solver together with its guarantee factor.

    gamma = 1 means the solver is exact; a gamma-approximate solver widens
    the a-priori WOWA ratio to gamma * v1 * K.
    """

    solve: Callable[..., tuple[Solution, float]]
    gamma: float = 1.0


EXACT_BASE = BaseSolver(solve=solve_with_costs, gamma=1.0)
