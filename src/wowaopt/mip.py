"""Mixed-integer linear model of the WOWA minimization, and its LP export.

The objective linearizes the rank-dependent aggregation through the tail
integrals L_j: minimize K * sum_j v'_j * ((j/K) * b_j + sum_i p_i * a_i_j)
with v'_j = v_j - v_{j+1} (v_{K+1} = 0), subject to
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
    "export_lp",
    "greedy_dual_point",
    "objective_at",
]


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
    p: tuple[float, ...]
    vprime: tuple[float, ...]
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
    v = inst.v.as_array()
    p = inst.p.as_array()
    vprime = v - np.concatenate((v[1:], [0.0]))
    j_idx = np.arange(1, inst.K + 1)
    obj_beta = j_idx * vprime
    obj_alpha = inst.K * np.outer(p, vprime)
    return MipModel(
        n=inst.n,
        K=inst.K,
        kind=inst.kind,
        costs=tuple(tuple(row) for row in inst.costs.tolist()),
        p=tuple(p.tolist()),
        vprime=tuple(vprime.tolist()),
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
    for i in range(K):
        row = model.costs[i]
        for j in range(K):
            pairs = [(1.0, f"b{j + 1}"), (1.0, f"a_{i + 1}_{j + 1}")]
            pairs += [(-row[k], f"x{k + 1}") for k in range(model.n)]
            lines.append(f" cost{i + 1}_{j + 1}: {_terms(pairs)} >= 0")
    for name, terms, rhs in model.kind.lp_rows(model.n):
        lines.append(f" {name}: {_terms(terms)} = {rhs}")
    lines.append("Bounds")
    for j in range(K):
        lines.append(f" b{j + 1} free")
    lines.append("Binary")
    names = [f"x{i + 1}" for i in range(model.n)] + model.kind.lp_binaries()
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    beta = np.empty(K)
    for j in range(1, K + 1):
        budget = j / K
        pos = int(np.searchsorted(cum, budget, side="left"))
        pos = min(pos, K - 1)
        beta[j - 1] = F[order[pos]]
    alpha = np.maximum(0.0, F[:, None] - beta[None, :])
    return beta, alpha


def objective_at(model: MipModel, beta, alpha) -> float:
    """Objective value at explicit (beta, alpha); x only enters constraints."""
    beta = np.asarray(beta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    total = float(np.dot(model.obj_beta, beta))
    total += float((np.asarray(model.obj_alpha) * alpha).sum())
    return total
