"""Mixed-integer linear model of the WOWA minimization, and its LP export.

The objective linearizes the rank-dependent aggregation through the tail
integrals L_j, the integrals of the nonincreasing cost rearrangement over
[0, j/K], by WOWA = K * sum_j v'_j * L_j with v'_j = v_j - v_{j+1}
(v_{K+1} = 0): minimize K * sum_j v'_j * ((j/K) * b_j + sum_i p_i * a_i_j)
subject to
b_j + a_i_j >= sum_k c_ik x_k for all scenario pairs (i, j), a_i_j >= 0,
b_j free, plus the feasibility constraints of the problem kind.  It needs
nonincreasing importance weights so that every v'_j is nonnegative.

The exporter writes the standard LP text format (Minimize / Subject To /
Bounds / Binary / End) with deterministic variable names x1..xn, b1..bK
and a_i_j, consumable by mainstream MIP solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import NonIncreasingWeightsError
from .model import ProblemKind, ScenarioInstance, Solution, scenario_costs

__all__ = [
    "MipModel",
    "NonIncreasingWeightsError",
    "build_mip",
    "compute_Lj",
    "export_lp",
    "greedy_dual_point",
    "objective_at",
    "wowa_via_decomposition",
]


def _vprime(inst: ScenarioInstance) -> np.ndarray:
    """v'_j = v_j - v_{j+1} with v_{K+1} = 0."""
    v = inst.v.as_array()
    return v - np.concatenate((v[1:], [0.0]))


@dataclass(frozen=True)
class MipModel:
    """Coefficient view of the model; all arrays are indexed 0-based.

    obj_beta[j] multiplies b_{j+1} and equals (j+1) * v'_{j+1}; note that
    K * v'_j * (j/K) collapses to j * v'_j.  obj_alpha[i, j] multiplies
    a_{i+1}_{j+1} and equals K * v'_{j+1} * p_{i+1}.
    """

    n: int
    K: int
    kind: ProblemKind
    costs: tuple[tuple[float, ...], ...]
    obj_beta: tuple[float, ...]
    obj_alpha: tuple[tuple[float, ...], ...]

    @property
    def num_binary(self) -> int:
        return self.n + len(self.kind.lp_binaries())

    @property
    def num_continuous(self) -> int:
        return self.K + self.K * self.K

    @property
    def num_coupling_constraints(self) -> int:
        return self.K * self.K


def build_mip(inst: ScenarioInstance) -> MipModel:
    """Build the model; raises NonIncreasingWeightsError for unordered v."""
    if not inst.v.is_nonincreasing:
        raise NonIncreasingWeightsError(
            "MIP construction needs nonincreasing importance weights "
            "(otherwise some objective coefficients v'_j would be negative)"
        )
    vprime = _vprime(inst)
    obj_beta = np.arange(1, inst.K + 1) * vprime
    obj_alpha = inst.K * np.outer(inst.p.as_array(), vprime)
    return MipModel(
        n=inst.n,
        K=inst.K,
        kind=inst.kind,
        costs=tuple(tuple(row) for row in inst.costs.tolist()),
        obj_beta=tuple(obj_beta.tolist()),
        obj_alpha=tuple(tuple(row) for row in obj_alpha.tolist()),
    )


def _num(x: float) -> str:
    # Shortest round-trip decimal; integers rendered without the trailing .0
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _terms(pairs) -> str:
    """Render [(coef, name), ...] as 'c1 n1 + c2 n2 - c3 n3 ...'."""
    parts: list[str] = []
    for coef, name in pairs:
        if coef == 0.0:
            continue
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        term = name if mag == 1.0 else f"{_num(mag)} {name}"
        if not parts:
            parts.append(f"- {term}" if sign == "-" else term)
        else:
            parts.append(f"{sign} {term}")
    if not parts:
        return f"0 {pairs[0][1]}" if pairs else "0"
    return " ".join(parts)


def export_lp(model: MipModel) -> str:
    """Deterministic LP-format text for the model."""
    if model.n < 1:
        raise ValueError("cannot export a model with no elements")
    K = model.K
    lines = ["\\ wowaopt model export", "Minimize"]
    obj = []
    for j in range(K):
        obj.append((model.obj_beta[j], f"b{j + 1}"))
    for i in range(K):
        for j in range(K):
            obj.append((model.obj_alpha[i][j], f"a_{i + 1}_{j + 1}"))
    lines.append(f" obj: {_terms(obj)}")
    lines.append("Subject To")
    xs = [f"x{k + 1}" for k in range(model.n)]
    out = ["\n".join(lines), "\n"]  # pieces of the text, joined once
    for i, x_part in enumerate(_x_parts(model, xs)):
        for j in range(K):  # rows cost{i}_{j} share scenario i's x part
            out += (f" cost{i + 1}_{j + 1}: b{j + 1} + a_{i + 1}_{j + 1}", x_part, " >= 0\n")
    tail = [f" {name}: {_terms(terms)} = {rhs}" for name, terms, rhs in model.kind.lp_rows(model.n)]
    tail.append("Bounds")
    for j in range(K):
        tail.append(f" b{j + 1} free")
    tail.append("Binary")
    tail.append(" " + " ".join(xs + model.kind.lp_binaries()))
    tail.append("End")
    out += ("\n".join(tail), "\n")
    return "".join(out)


def _x_parts(model: MipModel, xs: list[str]) -> list[str]:
    """Each scenario's "- c x" terms as _terms renders them after b_j + a_i_j.

    Every term is signed (" - c x" for c > 0, " + |c| x" for c < 0), a unit
    coefficient is left out, a zero term is dropped, and each distinct
    coefficient is rendered once.
    """
    costs = np.array(model.costs, dtype=float)  # ragged rows raise ValueError
    if costs.shape != (model.K, model.n):
        raise ValueError(f"costs must be {model.K} rows of n={model.n} entries")
    rows, cols = np.nonzero(costs)
    values, which = np.unique(costs[rows, cols], return_inverse=True)
    prefixes = [(" - " if c > 0 else " + ") + ("" if abs(c) == 1.0 else f"{_num(abs(c))} ")
                for c in values.tolist()]
    # prefix and name of every term, interleaved by object-array indexing
    pieces = np.empty(2 * len(cols), dtype=object)
    pieces[0::2] = np.array(prefixes, dtype=object)[which]
    pieces[1::2] = np.array(xs, dtype=object)[cols]
    pieces = pieces.tolist()
    ends = (2 * np.cumsum(np.bincount(rows, minlength=model.K))).tolist()
    return ["".join(pieces[a:b]) for a, b in zip([0] + ends, ends)]


def greedy_dual_point(inst: ScenarioInstance, sol: Solution, check: bool = True):
    """Optimal (beta, alpha) for a fixed solution, from the greedy structure.

    beta_j is the solution cost straddling the probability budget j/K in
    the nonincreasing rearrangement; alpha_ij = max(0, F(x, c_i) - beta_j).
    Plugging these into the objective reproduces the WOWA value exactly,
    which is how the exported model is verified without an external solver.
    """
    F = scenario_costs(inst, sol, check=check)
    p = inst.p.as_array()
    order = np.argsort(-F, kind="stable")
    cum = np.cumsum(p[order])
    K = inst.K
    pos = np.searchsorted(cum, np.arange(1, K + 1) / K, side="left")
    beta = F[order[np.minimum(pos, K - 1)]]
    alpha = np.maximum(0.0, F[:, None] - beta[None, :])
    return beta, alpha


def _tail_integrals(inst: ScenarioInstance, sol: Solution, check: bool) -> np.ndarray:
    # By LP duality L_j = min{(j/K) * b + sum_i p_i * max(0, F_i - b)}, and
    # greedy_dual_point's beta_j attains the minimum for every j at once.
    beta, alpha = greedy_dual_point(inst, sol, check=check)
    return np.arange(1, inst.K + 1) / inst.K * beta + inst.p.as_array() @ alpha


def compute_Lj(inst: ScenarioInstance, sol: Solution, j: int, check: bool = True) -> float:
    """Integral of the nonincreasing cost rearrangement over [0, j/K], j in 1..K."""
    if not 1 <= j <= inst.K:
        raise ValueError(f"j must be in 1..{inst.K}, got {j}")
    return float(_tail_integrals(inst, sol, check)[j - 1])


def wowa_via_decomposition(inst: ScenarioInstance, sol: Solution, check: bool = True) -> float:
    """WOWA via K * sum_j (v_j - v_{j+1}) * L_j; equals wowa_value to 1e-9."""
    return inst.K * float(_vprime(inst) @ _tail_integrals(inst, sol, check))


def objective_at(model: MipModel, beta, alpha) -> float:
    """Objective value at explicit (beta, alpha); x only enters constraints."""
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    total = float(np.dot(model.obj_beta, beta))
    total += float((np.asarray(model.obj_alpha) * alpha).sum())
    return total
