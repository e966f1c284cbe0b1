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
from math import comb, factorial
from typing import Iterator

import numpy as np

from . import base_solvers
from .aggregation import ProbabilityVector, WeightVector, rank_weights, wowa_batch
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
    "validate",
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


def _json_int(value, field: str) -> int:
    # bool is an int subclass, and floats such as 2.0 must not pass either
    if type(value) is not int:
        raise InstanceFormatError(f"{field}: expected a JSON integer, got {value!r}")
    return value


_NUMBER_TYPES = {int, float}


def _json_numbers(values, field: str) -> list:
    # One pass over the entries.  bool is an int subclass, and strings and
    # null must not be parsed into numbers either.
    if not isinstance(values, list):
        raise InstanceFormatError(f"{field}: expected a JSON list, got {values!r}")
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(x for x in values if type(x) not in _NUMBER_TYPES)
        raise InstanceFormatError(f"{field}: expected a JSON number, got {bad!r}")
    return values


def _json_ints(values, field: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise InstanceFormatError(f"{field}: expected a JSON list, got {values!r}")
    return tuple(_json_int(i, field) for i in values)


# The solves look the base solvers up on their module at call time, so a
# wrapper installed there sees every call.


@dataclass(frozen=True)
class Selection(ProblemKind):
    """Choose exactly q of the n elements."""

    q: int
    tag = "selection"

    def problems(self, n: int) -> list[str]:
        if not 1 <= self.q <= n:
            return [f"kind: selection size q={self.q} outside 1..{n}"]
        return []

    def check(self, sol: Solution) -> None:
        if len(sol) != self.q:
            raise FeasibilityError(f"selection needs exactly q={self.q} elements, got {len(sol)}")

    def size(self, n: int) -> int:
        return comb(n, self.q)

    def enumerate(self, n: int) -> Iterator[tuple[int, ...]]:
        return itertools.combinations(range(n), self.q)

    def solve(self, costs, fix):
        return base_solvers.solve_selection(costs, self.q, fix)

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        if len(fix.forced_in) == self.q or n - len(fix.forced_out) == self.q:
            return set()
        return super().free_elements(fix, n)

    def plausible(self, fix: PartialFixing, n: int) -> bool:
        return len(fix.forced_in) <= self.q <= n - len(fix.forced_out)

    def lp_rows(self, n: int):
        return [("card", [(1.0, f"x{i + 1}") for i in range(n)], self.q)]

    def to_json(self) -> dict:
        return {"q": self.q}

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

    def problems(self, n: int) -> list[str]:
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

    def enumerate(self, n: int) -> Iterator[tuple[int, ...]]:
        m = self.m
        for perm in itertools.permutations(range(m)):
            yield tuple(r * m + perm[r] for r in range(m))

    def solve(self, costs, fix):
        return base_solvers.solve_assignment(costs.reshape(self.m, self.m), fix)

    def free_elements(self, fix: PartialFixing, n: int) -> set[int]:
        m = self.m
        rows = {e // m for e in fix.forced_in}
        cols = {e % m for e in fix.forced_in}
        return {e for e in super().free_elements(fix, n) if e // m not in rows and e % m not in cols}

    def lp_rows(self, n: int):
        m = self.m
        rows = [(f"row{r + 1}", [(1.0, f"x{r * m + c + 1}") for c in range(m)], 1) for r in range(m)]
        cols = [(f"col{c + 1}", [(1.0, f"x{r * m + c + 1}") for r in range(m)], 1) for c in range(m)]
        return rows + cols

    def to_json(self) -> dict:
        return {"m": self.m}

    @classmethod
    def from_json(cls, body) -> "Assignment":
        return cls(m=_json_int(_require(body, "m", "kind.assignment"), "kind.assignment.m"))


@dataclass(frozen=True)
class Explicit(ProblemKind):
    """Feasible set given as an explicit list of element subsets."""

    solutions: tuple[tuple[int, ...], ...]
    tag = "explicit"

    def __post_init__(self):
        normalized = tuple(tuple(sorted(int(i) for i in s)) for s in self.solutions)
        object.__setattr__(self, "solutions", normalized)

    def problems(self, n: int) -> list[str]:
        problems = [] if self.solutions else ["kind: explicit feasible set is empty"]
        for s, sol in enumerate(self.solutions):
            if any(not 0 <= i < n for i in sol):
                problems.append(f"kind: explicit solution {s} has out-of-range elements")
        return problems

    def check(self, sol: Solution) -> None:
        if sol.chosen not in self.solutions:
            raise FeasibilityError("solution is not in the explicit feasible set")

    def size(self, n: int) -> int:
        return len(self.solutions)

    def enumerate(self, n: int) -> Iterator[tuple[int, ...]]:
        return iter(self.solutions)

    def solve(self, costs, fix):
        compatible = [s for s in self.solutions
                      if fix.forced_in.issubset(s) and fix.forced_out.isdisjoint(s)]
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
        if not isinstance(sols, list):
            raise InstanceFormatError(f"kind.explicit.solutions: expected a JSON list, got {sols!r}")
        return cls(solutions=tuple(_json_ints(s, "kind.explicit.solutions") for s in sols))


_KINDS = {kind.tag: kind for kind in (Selection, Assignment, Explicit)}


class ScenarioInstance:
    """Immutable problem instance.

    Construction validates every structural invariant and raises unless
    ``checked=False``, in which case the raw data is stored as given and
    :func:`validate` collects the violations as a report.  The ``p`` and
    ``v`` vector objects are built lazily (and will raise on invalid data).
    """

    def __init__(self, costs, p, v, kind: ProblemKind, checked: bool = True):
        costs = np.array(costs, dtype=float)
        if costs.ndim != 2:
            raise InstanceFormatError("costs must be a K-by-n matrix")
        self.costs = costs
        self.costs.flags.writeable = False
        self.K, self.n = costs.shape
        self.p_raw = tuple(p.values) if isinstance(p, ProbabilityVector) else tuple(
            float(x) for x in p
        )
        self.v_raw = tuple(v.values) if isinstance(v, WeightVector) else tuple(
            float(x) for x in v
        )
        self.kind = kind
        self._p: ProbabilityVector | None = p if isinstance(p, ProbabilityVector) else None
        self._v: WeightVector | None = v if isinstance(v, WeightVector) else None
        if checked:
            problems = validate(self)
            if problems:
                raise InstanceFormatError("; ".join(problems))
            # raw mirrors the normalized values (validate has built both
            # vectors) so equality and round-trips are exact for valid instances
            self.p_raw = self._p.values
            self.v_raw = self._v.values

    @property
    def p(self) -> ProbabilityVector:
        if self._p is None:
            self._p = ProbabilityVector(self.p_raw)
        return self._p

    @property
    def v(self) -> WeightVector:
        if self._v is None:
            self._v = WeightVector(self.v_raw)
        return self._v

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioInstance):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.p_raw == other.p_raw
            and self.v_raw == other.v_raw
            and self.costs.shape == other.costs.shape
            and bool(np.all(self.costs == other.costs))
        )

    def __repr__(self) -> str:
        return f"ScenarioInstance(n={self.n}, K={self.K}, kind={self.kind!r})"


def validate(inst: ScenarioInstance) -> list[str]:
    """Collect invariant violations; empty list means the instance is sound."""
    problems: list[str] = []
    if inst.n < 1:
        problems.append("n: need at least one element")
    if inst.K < 1:
        problems.append("K: need at least one scenario")
    if np.any(inst.costs < 0.0):
        problems.append("costs: negative entries are not allowed")
    if not np.all(np.isfinite(inst.costs)):
        problems.append("costs: non-finite entries")
    for name, raw in (("p", inst.p_raw), ("v", inst.v_raw)):
        if len(raw) != inst.K:
            problems.append(f"{name}: has {len(raw)} entries, expected K={inst.K}")
        try:
            getattr(inst, name)  # the vector type's own rules; built once, then cached
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    problems += inst.kind.problems(inst.n)
    return problems


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


def scenario_costs(inst: ScenarioInstance, sol: Solution, check: bool = True) -> np.ndarray:
    """All K per-scenario costs of sol as a vector."""
    if check:
        check_feasible(inst, sol)
    if not sol.chosen:
        return np.zeros(inst.K)
    return inst.costs[:, list(sol.chosen)].sum(axis=1)


def scenario_cost(inst: ScenarioInstance, sol: Solution, j: int) -> float:
    """Cost of sol under scenario j (0-based)."""
    if not 0 <= j < inst.K:
        raise ValueError(f"scenario index {j} outside 0..{inst.K - 1}")
    return float(scenario_costs(inst, sol)[j])


def wowa_value(inst: ScenarioInstance, sol: Solution) -> float:
    """WOWA of the K-vector of scenario costs of sol."""
    a = scenario_costs(inst, sol)
    return float(wowa_batch(a.reshape(-1, 1), inst.v, inst.p)[0])


def solution_rank_weights(inst: ScenarioInstance, sol: Solution):
    """Rank weights induced by sol: scenarios sorted by its costs, nonincreasing."""
    a = scenario_costs(inst, sol)
    sigma = tuple(np.argsort(-a, kind="stable").tolist())
    return rank_weights(inst.v, inst.p, sigma)


def remove_zero_scenarios(p, costs):
    """Drop zero-probability scenarios from raw data and renormalize.

    Operates on raw arrays, before importance weights are attached: the
    weights are rank-indexed, so they must be chosen for the reduced
    scenario count.  Returns (p', costs') with the zero rows removed.
    """
    p = np.asarray(p, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if p.ndim != 1 or costs.ndim != 2 or costs.shape[0] != p.size:
        raise ValueError("need a K-vector p and a K-by-n cost matrix")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0.0):
        raise ValueError("probabilities must be nonnegative")
    keep = p > 0.0
    if not np.any(keep):
        raise ValueError("all scenarios have zero probability")
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
    try:
        return ScenarioInstance(np.array(costs, dtype=float).reshape(k, n), p, v, kind)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


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
    return Solution(_json_ints(_require(doc, "chosen", "solution"), "chosen"))


def write_solution(sol: Solution) -> str:
    return json.dumps({"format": FORMAT_VERSION, "chosen": list(sol.chosen)}, indent=2) + "\n"
