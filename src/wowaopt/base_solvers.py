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
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np

from .aggregation import _indices, _is_int, _reals

__all__ = [
    "FeasibilityError",
    "Solution",
    "PartialFixing",
    "NO_FIXING",
    "ProblemKind",
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
        idx = tuple(sorted(_indices(tuple(chosen), "solution indices")))  # chosen may be a generator
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate element indices in solution")
        object.__setattr__(self, "chosen", idx)

    @classmethod
    def _ascending(cls, chosen: Sequence[int]) -> "Solution":
        # a solver's own ascending, distinct Python ints, taken unchecked
        sol = object.__new__(cls)
        object.__setattr__(sol, "chosen", tuple(chosen))
        return sol

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

    def read(self, n: int) -> "PartialFixing":
        """This fixing read at a solver's entry: Python int indices in 0..n-1, itself if they are."""
        read = [_indices(fixed, "fixed element index", n) for fixed in (self.forced_in, self.forced_out)]
        return self if read == [self.forced_in, self.forced_out] else PartialFixing(*read)

    def admits(self, chosen) -> bool:
        """Whether a solution of the chosen elements agrees with the fixing."""
        return self.forced_in.issubset(chosen) and self.forced_out.isdisjoint(chosen)

    def shift(self, n: int) -> np.ndarray:
        """The fixing as per-element shifts of n costs: -inf forced in, +inf forced out, 0 free.

        Kept after the first call, since a branch-and-bound node shifts its
        costs at each of its solves.
        """
        row = self.__dict__.get("_shift")
        if row is None or row.size != n:
            row = np.zeros(n)
            row[list(self.forced_in)] = -np.inf
            row[list(self.forced_out)] = np.inf
            row.flags.writeable = False
            self.__dict__["_shift"] = row
        return row

    def reduction(self, m: int):
        """The reduction of an m-by-m assignment; None when forced-in edges share a row or column.

        (forced-in edges, free, getters, free rows, free columns): free holds
        each free row's edges to the free columns, ascending, with m * m for a
        forced-out one; getters the itemgetter of each.  Kept after the first
        call, like ``shift``.
        """
        cached = self.__dict__.get("_reduction")
        if cached is None or cached[0] != m:
            n = m * m
            forced_in = sorted(self.forced_in)
            rows = {e // m for e in forced_in}
            cols = {e % m for e in forced_in}
            reduction = None
            if len(rows) == len(cols) == len(forced_in):
                free_rows = [row for row in range(m) if row not in rows]
                free_cols = [col for col in range(m) if col not in cols]
                free = [[n if s + col in self.forced_out else s + col for col in free_cols]
                        for s in range(0, n, m) if s // m not in rows]
                getters = [itemgetter(*edges) if len(edges) > 1 else itemgetter(slice(edges[0], edges[0] + 1))
                           for edges in free]  # one index alone would give the entry, not a sequence
                reduction = (forced_in, free, getters, free_rows, free_cols)
            cached = self.__dict__["_reduction"] = (m, reduction)
        return cached[1]


NO_FIXING = PartialFixing()


class ProblemKind:
    """Base class of the feasible sets over elements 0..n-1; a kind is one subclass.

    ``n`` is the instance's element count, which a kind need not store.  A
    subclass sets ``tag``, its name in the JSON format, and defines

    * ``problems(n)``: why it cannot be used with n elements, empty if it can;
    * ``check(sol)``: raise FeasibilityError unless sol is feasible (its
      indices are already known to be in range);
    * ``size(n)`` and ``enumerate(n)``: how many feasible solutions there
      are, and each of them once, as a list of 2-D arrays, one per run of
      equal-length solutions, in the smallest signed integer dtype that
      holds n - 1 (int8 up to n = 128), each row's indices ascending.  The
      order is fixed (brute force returns the first of equal optima in it):
      selection and assignment return one array of their solutions in
      lexicographic order, and explicit its list in order;
    * ``solve(costs, fix)``: the cheapest feasible (Solution, cost) under a
      flat n-vector of costs and a partial fixing, raising FeasibilityError
      when the fixing has no feasible completion;
    * ``lp_rows(n)``: its LP equality rows (name, [(coef, variable)], rhs)
      over x1..xn and ``lp_binaries()``;
    * ``to_json()`` and the classmethod ``from_json(body)``: the body of its
      JSON object, the part under ``tag``.

    The branch-and-bound bounds a node with ``fw_steps`` Frank-Wolfe steps
    (6 unless a kind sets it), each one ``solve_rows(costs, fixes)`` call for
    its batch: for row i of a cost matrix under ``fixes[i]``, None where that
    fixing has no completion, else ``solve``'s (Solution, cost), to the bit,
    and the kind's certificate of that solve (None where a kind has none;
    for assignment, the Hungarian's final potentials).  By default it calls
    ``solve`` row by row; a kind may solve all rows at once.  The search
    branches on ``free_elements(fix, n)`` and drops a branch without a
    completion.  Before it branches, ``reduced_fixing(costs, fix, sol, z,
    cutoff, certificate)`` may fix more elements from the solve that
    attained the node's bound: ``sol`` of value ``z`` and its certificate,
    solved under ``costs`` and ``fix`` or, when ``sol`` satisfies ``fix``,
    under the parent's fixing.  An element may be fixed in (out) when every
    completion with it out (in) costs at least ``cutoff`` under ``costs``.
    ``sol`` must stay admissible.  By default nothing more is fixed.  These
    hooks, ``solve_rows``, ``free_elements`` and ``reduced_fixing`` take the
    fixings the search built as they are: only ``solve`` reads a fixing's
    indices, which may come from outside.
    """

    tag: str
    fw_steps = 6

    def solve_rows(self, costs: np.ndarray, fixes: Sequence[PartialFixing]) -> list:
        """``solve`` of each row of costs under its own fixing, without a certificate; None where it has none."""
        out = []
        for row, fix in zip(costs, fixes):
            try:
                out.append((*self.solve(row, fix), None))
            except FeasibilityError:
                out.append(None)
        return out

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        """Elements to branch on; empty once the fixing admits one completion."""
        return set(range(n)) - fix.forced_in - fix.forced_out

    def reduced_fixing(self, costs, fix: PartialFixing, sol: Solution, z: float,
                       cutoff: float, certificate) -> PartialFixing:
        """``fix`` with the elements the solve's prices decide; none by default."""
        return fix

    def lp_binaries(self) -> list[str]:
        """Binary variables the LP rows use besides x1..xn."""
        return []


def select_rows(costs: np.ndarray, q: int, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's q cheapest elements, ascending, and their total, in one masked stable argsort.

    Row i of ``shift`` is the ``PartialFixing.shift`` of row i's fixing.
    With finite costs a row sorts its forced-in elements first, its free
    ones by cost with ties by ascending index, and its forced-out ones last,
    so a feasible fixing's first q are its forced-in and its cheapest free
    elements.  A total is the row sum over the ascending chosen indices.
    """
    chosen = np.argsort(costs + shift, axis=1, kind="stable")[:, :q]
    chosen.sort(axis=1)
    return chosen, costs[np.arange(len(costs))[:, None], chosen].sum(axis=1)


def solve_selection(costs, q: int, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """q elements of minimum total cost; ties broken by ascending index.

    The one-row case of ``select_rows``; costs must be finite.
    """
    c = _reals(costs, "costs", 1)
    n = c.size
    if not _is_int(q):
        raise ValueError(f"selection size q={q!r} is not an integer")
    if not 1 <= q <= n:
        raise FeasibilityError(f"selection size q={q} outside 1..{n}")
    if not np.all(np.isfinite(c)):
        raise ValueError("selection costs must be finite")
    fix = fix.read(n)
    if len(fix.forced_in) > q:
        raise FeasibilityError("more elements forced in than the selection size")
    if n - len(fix.forced_out) < q:
        raise FeasibilityError("not enough free elements to complete the selection")
    chosen, total = select_rows(c[None], q, fix.shift(n)[None])
    return Solution._ascending(chosen[0].tolist()), float(total[0])


def _hungarian(cost) -> Optional[tuple[list[int], list[float], list[float]]]:
    # The row matched to each column by the O(m^3) shortest-augmenting-path
    # form with row/column potentials: optimal, and of tied optima the same
    # one on every call, not necessarily the lexicographically first.  +inf
    # is a forbidden edge; None means no perfect matching avoids them.
    # Column m is the virtual column a row's search starts from.  Also
    # returns the final potentials (u, v): u_i + v_j <= cost[i][j] on every
    # edge, with equality on the matched ones.
    m = len(cost)
    INF = math.inf
    u = [0.0] * m
    v = [0.0] * (m + 1)
    match = [-1] * (m + 1)  # match[j] = row assigned to column j, -1 if none
    for i in range(m):
        match[m] = i
        ui = u[i]
        # the first step from column m in whole-list passes, ties to the first column
        minv = [cur if (cur := c - ui - vj) < INF else INF for c, vj in zip(cost[i], v)]
        way = [m] * m
        delta = min(minv)
        if not delta < INF:
            return None
        j0 = minv.index(delta)
        u[i] += delta
        v[m] -= delta
        free = list(range(m))  # the columns not reached yet, ascending
        del free[j0]
        used = [m, j0]
        while match[j0] >= 0:
            i0 = match[j0]
            ui = u[i0]
            row = cost[i0]
            last, delta, j1 = delta, INF, -1
            for j in free:
                mj = minv[j] - last  # the last step's decrement, made when next read
                cur = row[j] - ui - v[j]
                if cur < mj:
                    mj = cur
                    way[j] = j0
                minv[j] = mj
                if mj < delta:
                    delta = mj
                    j1 = j
            if j1 < 0:
                return None
            for j in used:
                u[match[j]] += delta
                v[j] -= delta
            free.remove(j1)
            used.append(j1)
            j0 = j1
        while j0 != m:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return match[:m], u, v[:m]


def assign_rows(costs: np.ndarray, m: int, fixes: Sequence[PartialFixing]) -> list:
    """Each row's minimum-cost perfect matching under its own fixing, its total and its duals; None where it has none.

    A row holds the m*m edge costs, edge (row, col) at row * m + col.  The
    reduction drops the forced-in rows and columns and makes forced-out edges
    +inf, which the Hungarian method never matches.  Totals add in index order.
    The duals (free rows, free columns, u, v) are the Hungarian's final
    potentials of the free rows and columns.
    """
    out = []
    for flat, fix in zip(costs.tolist(), fixes):
        reduction = fix.reduction(m)
        if reduction is None:
            out.append(None)
            continue
        chosen, free, getters, rows, cols = reduction
        u = v = ()  # no row is free
        if free:
            flat.append(math.inf)  # at index m * m, the cost of a forced-out edge
            solved = _hungarian([get(flat) for get in getters])
            if solved is None:
                out.append(None)
                continue
            col_to_row, u, v = solved
            chosen = sorted(chosen + [free[r][j] for j, r in enumerate(col_to_row)])
        total = 0.0
        for e in chosen:  # in index order, one add at a time
            total += flat[e]
        out.append((Solution._ascending(chosen), total, (rows, cols, u, v)))
    return out


def solve_assignment(cost_matrix, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """Minimum-cost perfect matching on an m-by-m matrix, Hungarian method.

    The one-row case of ``assign_rows``; costs must be finite.  Edge (row,
    col) is flat element row * m + col.
    """
    c = _reals(cost_matrix, "cost_matrix", 2)
    if c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("assignment costs must be finite")
    m = c.shape[0]
    fix = fix.read(m * m)
    if fix.reduction(m) is None:
        raise FeasibilityError("forced-in edges are not a partial matching")
    (solved,) = assign_rows(c.reshape(1, -1), m, [fix])
    if solved is None:
        raise FeasibilityError("fixing does not extend to a perfect matching")
    return solved[:2]


def solve_with_costs(kind: ProblemKind, costs, fix: PartialFixing = NO_FIXING) -> tuple[Solution, float]:
    """Solve the kind's linear-cost problem; costs is always a flat n-vector."""
    if not isinstance(kind, ProblemKind):
        raise ValueError(f"unknown problem kind {kind!r}")
    return kind.solve(_reals(costs, "costs", 1), fix)


@dataclass(frozen=True)
class BaseSolver:
    """A deterministic-problem solver together with its guarantee factor.

    gamma = 1 means the solver is exact; a gamma-approximate solver widens
    the a-priori WOWA ratio to gamma * v1 * K.
    """

    solve: Callable[..., tuple[Solution, float]]
    gamma: float = 1.0


EXACT_BASE = BaseSolver(solve=solve_with_costs, gamma=1.0)
