"""Scenario instances, feasible solutions, and their WOWA evaluation.

An instance is a set of n elements, a K-by-n matrix of nonnegative element
costs (one row per scenario), scenario probabilities, importance weights,
and a problem kind describing the feasible set.  Solutions are immutable
sets of chosen element indices (0-based everywhere, including on disk).
Each problem kind is one ``ProblemKind`` subclass.  ``Solution`` and
``FeasibilityError`` come from ``base_solvers`` and are re-exported here.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb, factorial, inf

import numpy as np

from . import base_solvers
from .aggregation import ProbabilityVector, RankWeights, WeightVector, wowa_batch
from .aggregation import _indices, _integer, _is_int, _rank_omegas, _reals, _worst_first
from .base_solvers import FeasibilityError, PartialFixing, ProblemKind, Solution

__all__ = [
    "FORMAT_VERSION",
    "FeasibilityError",
    "InstanceFormatError",
    "Selection",
    "Assignment",
    "Explicit",
    "ProblemKind",
    "Solution",
    "ScenarioInstance",
    "check_feasible",
    "is_feasible",
    "scenario_cost",
    "scenario_costs",
    "wowa_value",
    "solution_rank_weights",
    "remove_zero_scenarios",
    "read_instance",
    "write_instance",
    "read_solution",
    "write_solution",
]

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """An instance or solution document cannot be parsed."""


def _require(doc: dict, field: str, where: str = "instance"):
    if not isinstance(doc, dict) or field not in doc:
        raise InstanceFormatError(f"{where} document is missing field '{field}'")
    return doc[field]


def _typed(types: tuple, what: str):
    """A parser of one JSON value: the value itself if its type is one of types."""
    def parse(value, field: str):
        # bool is an int subclass, and floats such as 2.0 must not pass as ints
        if type(value) not in types:
            raise InstanceFormatError(f"{field}: expected {what}, got {value!r}")
        return value
    return parse


_json_int = _typed((int,), "a JSON integer")
_json_number = _typed((int, float), "a JSON number")
_json_str = _typed((str,), "a JSON string")
_json_list = _typed((list,), "a JSON list")


def _each(parse):
    """A parser of a JSON list: the tuple of its entries, each read by parse."""
    def parse_list(values, field: str) -> tuple:
        return tuple(parse(x, field) for x in _json_list(values, field))
    return parse_list


def _json_numbers(values, field: str) -> list:
    # one pass over the entry types in the common case, all of them numbers
    if not set(map(type, _json_list(values, field))) <= {int, float}:
        _each(_json_number)(values, field)
    return values


def _index_dtype(n: int) -> np.dtype:
    # the smallest signed integer dtype that holds the indices 0..n-1
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if n - 1 <= np.iinfo(t).max)


def _prefixed(heads, tails: list[np.ndarray]) -> np.ndarray:
    # each head followed by each row of its tail, tail after tail, written
    # in place so that no list of parts is joined
    rows = np.empty((sum(map(len, tails)), tails[0].shape[1] + 1), tails[0].dtype)
    start = 0
    for head, tail in zip(heads, tails):
        part = rows[start:start + len(tail)]
        part[:, 0] = head
        part[:, 1:] = tail
        start += len(tail)
    return rows


# The solves look the base solvers up on their module at call time, so a
# wrapper installed there sees every call.


@dataclass(frozen=True)
class Selection(ProblemKind):
    """Choose exactly q of the n elements."""

    q: int
    tag = "selection"

    def problems(self, n: int) -> list[str]:
        if not _is_int(self.q):
            return [f"kind: selection size q={self.q!r} is not an integer"]
        if not 1 <= self.q <= n:
            return [f"kind: selection size q={self.q} outside 1..{n}"]
        return []

    def check(self, sol: Solution) -> None:
        if len(sol) != self.q:
            raise FeasibilityError(f"selection needs exactly q={self.q} elements, got {len(sol)}")

    def size(self, n: int) -> int:
        return comb(n, self.q)

    def enumerate(self, n: int) -> list[np.ndarray]:
        # Built by suffix length k in lexicographic order: the k-subsets of
        # {q-k, ..., n-1} are, for each least element i, i followed by the
        # (k-1)-subsets of {i+1, ..., n-1}, which are a tail of the level
        # below (its rows whose least element exceeds i).
        q = self.q
        rows = np.arange(q - 1, n, dtype=_index_dtype(n))[:, None]
        for k in range(2, q + 1):
            heads = range(q - k, n - k + 1)
            starts = np.searchsorted(rows[:, 0], heads, side="right")
            rows = _prefixed(heads, [rows[s:] for s in starts])
        return [rows]

    def solve(self, costs, fix):
        return base_solvers.solve_selection(costs, self.q, fix)

    def solve_rows(self, costs, fixes):
        # the rows of the feasible fixings in one select_rows call
        q, n = self.q, costs.shape[1]
        rows = [i for i, fix in enumerate(fixes) if len(fix.forced_in) <= q <= n - len(fix.forced_out)]
        out = [None] * len(fixes)
        if rows:
            if len(rows) < len(fixes):
                costs, fixes = costs[rows], [fixes[i] for i in rows]
            chosen, totals = base_solvers.select_rows(costs, q, np.array([fix.shift(n) for fix in fixes]))
            for i, picked, total in zip(rows, chosen.tolist(), totals.tolist()):
                out[i] = (Solution._ascending(picked), total, None)
        return out

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        if len(fix.forced_in) == self.q or n - len(fix.forced_out) == self.q:
            return set()
        return super().free_elements(fix, n)

    def reduced_fixing(self, costs, fix, sol, z, cutoff, certificate):
        # sol holds the cheapest free elements, so the cheapest completion
        # with an unchosen e in swaps it for the dearest chosen free one
        # (c_in), and the cheapest with a chosen e out swaps it for the
        # cheapest unchosen free one (c_out)
        c = costs.tolist()
        picked = [e for e in sol.chosen if e not in fix.forced_in]
        taken = fix.forced_out.union(sol.chosen)
        rest = [e for e in range(len(c)) if e not in taken]
        if not picked or not rest:
            return fix
        c_in = max([c[e] for e in picked])
        c_out = min([c[e] for e in rest])
        fixed_in = [e for e in picked if z - c[e] + c_out >= cutoff]
        fixed_out = [e for e in rest if z + c[e] - c_in >= cutoff]
        if not fixed_in and not fixed_out:
            return fix
        return PartialFixing(fix.forced_in.union(fixed_in), fix.forced_out.union(fixed_out))

    def lp_rows(self, n: int):
        return [("card",[(1.0, f"x{i + 1}") for i in range(n)], self.q)]

    def to_json(self) -> dict:
        return {"q": int(self.q)}  # a numpy integer is not JSON serializable

    @classmethod
    def from_json(cls, body) -> "Selection":
        return cls(q=_json_int(_require(body, "q", "kind.selection"), "kind.selection.q"))


@dataclass(frozen=True)
class Assignment(ProblemKind):
    """Perfect matchings in a complete m-by-m bipartite graph.

    Edge (row, col) maps to flat element index row * m + col.
    """

    m: int
    tag = "assignment"
    fw_steps = 3  # its Hungarian solves cost more than the nodes more steps save

    def problems(self, n: int) -> list[str]:
        if not _is_int(self.m):
            return [f"kind: assignment side m={self.m!r} is not an integer"]
        if self.m < 1 or self.m * self.m != n:
            return [f"kind: assignment needs n = m^2, got n={n}, m={self.m}"]
        return []

    def check(self, sol: Solution) -> None:
        pairs = sol.as_pairs(self.m)
        rows = {r for r, _ in pairs}
        cols = {c for _, c in pairs}
        if len(pairs) != self.m or len(rows) != self.m or len(cols) != self.m:
            raise FeasibilityError("assignment solution is not a perfect matching")

    def size(self, n: int) -> int:
        return factorial(self.m)

    def enumerate(self, n: int) -> list[np.ndarray]:
        # The permutations of the columns in lexicographic order, built by
        # length k: those of 0..k-1 are, for each first column c, c followed
        # by the permutations of 0..k-2 with every entry at or above c moved
        # up by one, written in place so that no shifted copy is kept.
        m, dtype = self.m, _index_dtype(n)
        cols = np.zeros((1, 0), dtype)
        for k in range(1, m + 1):
            size = len(cols)
            rows = np.empty((k * size, k), dtype)
            for c in range(k):
                part = rows[c * size:(c + 1) * size]
                part[:, 0] = c
                np.add(cols, cols >= c, out=part[:, 1:])
            cols = rows
        cols += np.arange(0, n, m, dtype=dtype)
        return [cols]

    def solve(self, costs, fix):
        return base_solvers.solve_assignment(costs.reshape(self.m, self.m), fix)

    def solve_rows(self, costs, fixes):
        return base_solvers.assign_rows(costs, self.m, fixes)

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        m = self.m
        rows = {e // m for e in fix.forced_in}
        cols = {e % m for e in fix.forced_in}
        return {e for e in super().free_elements(fix, n) if e // m not in rows and e % m not in cols}

    def reduced_fixing(self, costs, fix, sol, z, cutoff, certificate):
        # Under the solve's potentials (u, v) a free edge e has reduced cost
        # r_e = c_e - u_row - v_col >= 0, and a completion costs z plus the r
        # of its free edges: at least z + r_e with an unchosen e, and without
        # a chosen e at least z plus the least r of the other free edges in
        # its row plus the least in its column.  The potentials stay feasible
        # for a child, whose fixing drops a tight edge's row and column or
        # forbids edges.
        m, c = self.m, costs.tolist()
        rows, cols, u, v = certificate
        taken_rows = {e // m for e in fix.forced_in}
        taken_cols = {e % m for e in fix.forced_in}
        skip = fix.forced_out.union(sol.chosen)
        fixed_out, row_least, col_least = [], {}, dict.fromkeys(cols, inf)
        for i, ui in zip(rows, u):
            if i in taken_rows:
                continue
            least = inf
            for j, vj in zip(cols, v):
                e = i * m + j
                if j in taken_cols or e in skip:
                    continue
                r = c[e] - ui - vj
                if z + r >= cutoff:
                    fixed_out.append(e)
                if r < least:
                    least = r
                if r < col_least[j]:
                    col_least[j] = r
            row_least[i] = least
        fixed_in = [e for e in sol.chosen
                    if e // m in row_least and z + (row_least[e // m] + col_least[e % m]) >= cutoff]
        if not fixed_in and not fixed_out:
            return fix
        return PartialFixing(fix.forced_in.union(fixed_in), fix.forced_out.union(fixed_out))

    def lp_rows(self, n: int):
        m = self.m
        rows = [(f"row{r + 1}", [(1.0, f"x{r * m + c + 1}") for c in range(m)], 1) for r in range(m)]
        cols = [(f"col{c + 1}", [(1.0, f"x{r * m + c + 1}") for r in range(m)], 1) for c in range(m)]
        return rows + cols

    def to_json(self) -> dict:
        return {"m": int(self.m)}

    @classmethod
    def from_json(cls, body) -> "Assignment":
        return cls(m=_json_int(_require(body, "m", "kind.assignment"), "kind.assignment.m"))


@dataclass(frozen=True)
class Explicit(ProblemKind):
    """Feasible set given as an explicit list of element subsets."""

    solutions: tuple[tuple[int, ...], ...]
    tag = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "solutions", tuple(map(_listed, self.solutions)))
        # hashed once: brute force looks the kind up in its cache on every call
        object.__setattr__(self, "_hash", hash(self.solutions))

    def __hash__(self) -> int:
        return self._hash

    def problems(self, n: int) -> list[str]:
        problems = [] if self.solutions else ["kind: explicit feasible set is empty"]
        for s, sol in enumerate(self.solutions):
            if not set(map(type, sol)) <= {int}:
                problems.append(f"kind: explicit solution {s} has a non-integer element")
            elif sol and (sol[0] < 0 or sol[-1] >= n):  # ascending
                problems.append(f"kind: explicit solution {s} has out-of-range elements")
            if len(set(sol)) < len(sol):
                problems.append(f"kind: explicit solution {s} repeats an element")
        return problems

    def check(self, sol: Solution) -> None:
        if sol.chosen not in self.solutions:
            raise FeasibilityError("solution is not in the explicit feasible set")

    def size(self, n: int) -> int:
        return len(self.solutions)

    def enumerate(self, n: int) -> list[np.ndarray]:
        # an empty solution's run reshapes to (len(run), 0); -1 cannot
        runs = [list(run) for _, run in itertools.groupby(self.solutions, len)]
        return [np.array(run, dtype=_index_dtype(n)).reshape(len(run), len(run[0])) for run in runs]

    def solve(self, costs, fix):
        fix = fix.read(len(costs))
        compatible = [s for s in self.solutions if fix.admits(s)]
        if not compatible:
            raise FeasibilityError("no explicit solution is compatible with the fixing")
        totals = [float(costs[list(s)].sum()) for s in compatible]
        best = int(np.argmin(totals))  # the first of equal minima
        return Solution(compatible[best]), totals[best]

    def lp_rows(self, n: int):
        # Enumeration constraints: one selector per listed solution, the
        # x vector is pinned to the chosen characteristic vector.
        selectors = self.lp_binaries()
        rows = [("pick", [(1.0, s) for s in selectors], 1)]
        for i in range(n):
            terms = [(1.0, f"x{i + 1}")]
            terms += [(-1.0, s) for s, sol in zip(selectors, self.solutions) if i in sol]
            rows.append((f"link{i + 1}", terms, 0))
        return rows

    def lp_binaries(self) -> list[str]:
        return [f"s{s + 1}" for s in range(len(self.solutions))]

    def to_json(self) -> dict:
        return {"solutions": [list(s) for s in self.solutions]}

    @classmethod
    def from_json(cls, body) -> "Explicit":
        sols = _require(body, "solutions", "kind.explicit")
        return cls(solutions=_each(_each(_json_int))(sols, "kind.explicit.solutions"))


def _listed(solution) -> tuple:
    # ascending, or as given if an element is not an integer (Explicit.problems names it)
    solution = tuple(solution)
    try:
        return tuple(sorted(_indices(solution, "explicit solution indices")))
    except ValueError:
        return solution


_KINDS = {kind.tag: kind for kind in (Selection, Assignment, Explicit)}


class ScenarioInstance:
    """Immutable problem instance, valid by construction.

    Construction checks every structural invariant and raises one
    InstanceFormatError that lists each violation, separated by "; ".
    """

    def __init__(self, costs, p, v, kind: ProblemKind):
        self.costs = costs = np.array(_reals(costs, "costs", 2, InstanceFormatError))  # a copy
        self.costs.flags.writeable = False
        self.K, self.n = costs.shape
        self.kind = kind
        problems: list[str] = []
        if self.n < 1:
            problems.append("n: need at least one element")
        if self.K < 1:
            problems.append("K: need at least one scenario")
        if np.any(costs < 0.0):
            problems.append("costs: negative entries are not allowed")
        if not np.all(np.isfinite(costs)):
            problems.append("costs: non-finite entries")
        vectors = []
        for name, make, values in (("p", ProbabilityVector, p), ("v", WeightVector, v)):
            vec = values if isinstance(values, make) else None
            try:  # every error of the reader and the vector type names the vector
                values = vec.values if vec else _reals(values, name, 1)
                if len(values) != self.K:
                    problems.append(f"{name}: has {len(values)} entries, expected K={self.K}")
                vec = vec or make(values)
            except ValueError as exc:
                problems.append(str(exc))
            vectors.append(vec)
        self.p, self.v = vectors
        problems += kind.problems(self.n)
        if problems:
            raise InstanceFormatError("; ".join(problems))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioInstance):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.p == other.p
            and self.v == other.v
            and self.costs.shape == other.costs.shape
            and bool(np.all(self.costs == other.costs))
        )

    def __repr__(self) -> str:
        return f"ScenarioInstance(n={self.n}, K={self.K}, kind={self.kind!r})"


def check_feasible(inst: ScenarioInstance, sol: Solution) -> None:
    """Raise FeasibilityError unless sol is feasible for inst.kind."""
    if sol.chosen and (sol.chosen[0] < 0 or sol.chosen[-1] >= inst.n):
        raise FeasibilityError(f"element indices outside 0..{inst.n - 1}")
    inst.kind.check(sol)


def is_feasible(inst: ScenarioInstance, sol: Solution) -> bool:
    try:
        check_feasible(inst, sol)
    except FeasibilityError:
        return False
    return True


def _row_costs(inst: ScenarioInstance, rows) -> np.ndarray:
    # the scenario costs of rows of element indices: a K-vector for one row,
    # K-by-S for a block of S rows, the same floats either way (zeros if empty)
    return inst.costs[:, rows].sum(axis=-1)


def scenario_costs(inst: ScenarioInstance, sol: Solution, check: bool = True) -> np.ndarray:
    """All K per-scenario costs of sol as a vector."""
    if check:
        check_feasible(inst, sol)
    return _row_costs(inst, list(sol.chosen))


def scenario_cost(inst: ScenarioInstance, sol: Solution, j: int) -> float:
    """Cost of sol under scenario j (0-based)."""
    j = _integer(j, "j", 0, inst.K - 1)
    return float(scenario_costs(inst, sol)[j])


def wowa_value(inst: ScenarioInstance, sol: Solution) -> float:
    """WOWA of the K-vector of scenario costs of sol."""
    a = scenario_costs(inst, sol)
    return float(wowa_batch(a.reshape(-1, 1), inst.v, inst.p)[0])


def solution_rank_weights(inst: ScenarioInstance, sol: Solution):
    """Rank weights induced by sol: scenarios sorted by its costs, nonincreasing."""
    order, cum = _worst_first(scenario_costs(inst, sol), inst.p.as_array())
    return RankWeights(tuple(_rank_omegas(inst.v, cum).tolist()), tuple(order.tolist()))


def remove_zero_scenarios(p, costs):
    """Drop zero-probability scenarios from raw data and renormalize.

    Operates on raw arrays, before importance weights are attached: the
    weights are rank-indexed, so they must be chosen for the reduced
    scenario count.  Returns (p', costs') with the zero rows removed.
    """
    p = _reals(p, "p", 1)
    costs = _reals(costs, "costs", 2)
    if costs.shape[0] != p.size:
        raise ValueError(f"costs: has {costs.shape[0]} rows, expected one per entry of p ({p.size})")
    if not np.all(np.isfinite(p)):
        raise ValueError("p: probabilities must be finite")
    if np.any(p < 0.0):
        raise ValueError("p: probabilities must be nonnegative")
    keep = p > 0.0
    if not np.any(keep):
        raise ValueError("p: all scenarios have zero probability")
    p = p[keep]
    return p / p.sum(), costs[keep]


# ---------------------------------------------------------------------------
# On-disk formats (format version 1)
#
# Instance: JSON object with fields format, n, K, kind, p, v, costs, where
# kind is {tag: body} with the body a kind's to_json writes, such as
# {"selection": {"q": int}}.  Integer fields must be JSON integers, and the
# entries of p, v and costs JSON numbers.
# Solution: JSON object {"format": 1, "chosen": [int, ...]} with 0-based
# element indices.
# ---------------------------------------------------------------------------


def _parse_kind(obj) -> ProblemKind:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InstanceFormatError("kind must be an object with exactly one of "
                                  f"{', '.join(repr(tag) for tag in _KINDS)}")
    tag, body = next(iter(obj.items()))
    if tag not in _KINDS:
        raise InstanceFormatError(f"unknown problem kind '{tag}'")
    return _KINDS[tag].from_json(body)


def _load_json(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{what} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{what} must be a JSON object")
    fmt = _json_int(_require(doc, "format", what), "format")
    if fmt != FORMAT_VERSION:
        raise InstanceFormatError(f"unsupported format version {fmt!r}")
    return doc


def read_instance(text: str) -> ScenarioInstance:
    """Parse an instance document; errors name the offending field."""
    doc = _load_json(text, "instance")
    n = _json_int(_require(doc, "n"), "n")
    k = _json_int(_require(doc, "K"), "K")
    kind = _parse_kind(_require(doc, "kind"))
    p = _json_numbers(_require(doc, "p"), "p")
    v = _json_numbers(_require(doc, "v"), "v")
    costs = _require(doc, "costs")
    if not isinstance(costs, list) or len(costs) != k or any(
        not isinstance(row, list) or len(row) != n for row in costs
    ):
        raise InstanceFormatError(f"costs: expected a {k}x{n} matrix as a JSON list of rows")
    for row in costs:
        _json_numbers(row, "costs")
    return ScenarioInstance(np.array(costs, dtype=float).reshape(k, n), p, v, kind)


def _indented_numbers(values, pad: str) -> str:
    # A list of numbers laid out as json.dumps(indent=2) does at indentation
    # pad, with each number rendered by the compact C encoder (the same text).
    if not values:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + json.dumps(values)[1:-1].replace(", ", "," + inner) + "\n" + pad + "]"


def write_instance(inst: ScenarioInstance) -> str:
    """Serialize an instance; read_instance(write_instance(x)) == x.

    The text is byte for byte json.dumps(doc, indent=2) + "\\n": one number
    per line.
    """
    head = json.dumps({
        "format": FORMAT_VERSION,
        "n": inst.n,
        "K": inst.K,
        "kind": {inst.kind.tag: inst.kind.to_json()},
    }, indent=2)
    rows = ",\n    ".join(_indented_numbers(row, "    ") for row in inst.costs.tolist())
    return "".join((
        head[:-2],  # without the closing "\n}"
        ',\n  "p": ', _indented_numbers(inst.p.values, "  "),
        ',\n  "v": ', _indented_numbers(inst.v.values, "  "),
        ',\n  "costs": ', f"[\n    {rows}\n  ]" if rows else "[]",
        "\n}\n",
    ))


def read_solution(text: str) -> Solution:
    doc = _load_json(text, "solution")
    return Solution(_each(_json_int)(_require(doc, "chosen", "solution"), "chosen"))


def write_solution(sol: Solution) -> str:
    return json.dumps({"format": FORMAT_VERSION, "chosen": list(sol.chosen)}, indent=2) + "\n"
