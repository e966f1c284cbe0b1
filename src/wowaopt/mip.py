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

from .aggregation import NonIncreasingWeightsError, _integer, _reals, _worst_first
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


@dataclass(frozen=True, eq=False)
class MipModel:
    """Coefficient view of the model; all arrays are indexed 0-based.

    obj_beta[j] multiplies b_{j+1} and equals (j+1) * v'_{j+1}; note that
    K * v'_j * (j/K) collapses to j * v'_j.  obj_alpha[i, j] multiplies
    a_{i+1}_{j+1} and equals K * v'_{j+1} * p_{i+1}.  build_mip stores
    read-only arrays and shares the instance's cost matrix.
    """

    n: int
    K: int
    kind: ProblemKind
    costs: np.ndarray
    obj_beta: np.ndarray
    obj_alpha: np.ndarray

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
    obj_beta.flags.writeable = obj_alpha.flags.writeable = False
    return MipModel(n=inst.n, K=inst.K, kind=inst.kind, costs=inst.costs,
                    obj_beta=obj_beta, obj_alpha=obj_alpha)


def _shaped(values, name: str, shape: tuple[int, ...]) -> np.ndarray:
    # real-number input of exactly this shape, the error naming the argument
    arr = _reals(values, name, len(shape))
    if arr.shape != shape:
        raise ValueError(f"{name}: must have shape {shape}, got {arr.shape}")
    return arr


def _num(x: float) -> str:
    # Shortest round-trip decimal; integers rendered without the trailing .0
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _signed_rows(coefs, names, lengths: list[int]) -> list[str]:
    """Each row's terms as " + c x" / " - c x", rows taken in order of lengths.

    A zero term is dropped and a unit coefficient left out.  Each distinct
    coefficient is rendered once and interleaved with the names through
    object arrays.
    """
    keep = coefs != 0.0
    values, which = np.unique(coefs[keep], return_inverse=True)
    prefixes = [(" - " if c < 0 else " + ") + ("" if abs(c) == 1.0 else f"{_num(abs(c))} ")
                for c in values.tolist()]
    pieces = np.empty(2 * len(which), dtype=object)
    pieces[0::2] = np.array(prefixes, dtype=object)[which]
    pieces[1::2] = names[keep]
    pieces = pieces.tolist()
    kept = np.concatenate(([0], np.cumsum(keep)))  # kept terms before each position
    cuts = (2 * kept[np.cumsum([0] + lengths)]).tolist()
    return ["".join(pieces[a:b]) for a, b in zip(cuts, cuts[1:])]


def _lead(signed: str, first: str | None) -> str:
    """A row's signed terms as it starts: "c x - d y"; "0 first" if all are zero, "0" if none."""
    if signed:
        return signed[3:] if signed[1] == "+" else "- " + signed[3:]
    return "0" if first is None else f"0 {first}"


def export_lp(model: MipModel) -> str:
    """Deterministic LP-format text for the model."""
    n, K = model.n, model.K
    if n < 1:
        raise ValueError("cannot export a model with no elements")
    costs = _shaped(model.costs, "costs", (K, n))
    obj_beta = _shaped(model.obj_beta, "obj_beta", (K,))
    obj_alpha = _shaped(model.obj_alpha, "obj_alpha", (K, K))
    xs = [f"x{k + 1}" for k in range(n)]
    obj = [f"b{j + 1}" for j in range(K)]
    obj += [f"a_{i + 1}_{j + 1}" for i in range(K) for j in range(K)]
    kind_rows = model.kind.lp_rows(n)
    terms = [term for _, row, _ in kind_rows for term in row]
    # One pass renders the objective, each scenario's x part (its negated
    # costs, which continue the rows cost{i}_{j} after b_j + a_i_j) and the
    # kind's rows.
    texts = _signed_rows(
        np.concatenate((obj_beta, obj_alpha.ravel(), -costs.ravel(),
                        [c for c, _ in terms]), dtype=float),
        np.array(obj + xs * K + [name for _, name in terms], dtype=object),
        [len(obj)] + [n] * K + [len(row) for _, row, _ in kind_rows],
    )
    out = [f"\\ wowaopt model export\nMinimize\n obj: {_lead(texts[0], obj[0] if K else None)}\n"
           "Subject To\n"]  # pieces of the text, joined once
    for i, x_part in enumerate(texts[1:K + 1]):
        for j in range(K):  # rows cost{i}_{j} share scenario i's x part
            out += (f" cost{i + 1}_{j + 1}: b{j + 1} + a_{i + 1}_{j + 1}", x_part, " >= 0\n")
    out += [f" {name}: {_lead(text, row[0][1] if row else None)} = {rhs}\n"
            for (name, row, rhs), text in zip(kind_rows, texts[K + 1:])]
    out += ["Bounds\n", *(f" b{j + 1} free\n" for j in range(K)), "Binary\n",
            " ".join(["", *xs, *model.kind.lp_binaries()]), "\nEnd\n"]
    return "".join(out)


def greedy_dual_point(inst: ScenarioInstance, sol: Solution):
    """Optimal (beta, alpha) for a fixed solution, from the greedy structure.

    beta_j is the solution cost straddling the probability budget j/K in
    the nonincreasing rearrangement; alpha_ij = max(0, F(x, c_i) - beta_j).
    Plugging these into the objective reproduces the WOWA value exactly,
    which is how the exported model is verified without an external solver.
    """
    F = scenario_costs(inst, sol)
    order, cum = _worst_first(F, inst.p.as_array())
    K = inst.K
    pos = np.searchsorted(cum, np.arange(1, K + 1) / K, side="left")
    beta = F[order[np.minimum(pos, K - 1)]]
    alpha = np.maximum(0.0, F[:, None] - beta[None, :])
    return beta, alpha


def _tail_integrals(inst: ScenarioInstance, sol: Solution) -> np.ndarray:
    # By LP duality L_j = min{(j/K) * b + sum_i p_i * max(0, F_i - b)}, and
    # greedy_dual_point's beta_j attains the minimum for every j at once.
    beta, alpha = greedy_dual_point(inst, sol)
    return np.arange(1, inst.K + 1) / inst.K * beta + inst.p.as_array() @ alpha


def compute_Lj(inst: ScenarioInstance, sol: Solution, j: int) -> float:
    """Integral of the nonincreasing cost rearrangement over [0, j/K], j in 1..K."""
    j = _integer(j, "j", 1, inst.K)
    return float(_tail_integrals(inst, sol)[j - 1])


def wowa_via_decomposition(inst: ScenarioInstance, sol: Solution) -> float:
    """WOWA via K * sum_j (v_j - v_{j+1}) * L_j; equals wowa_value to 1e-9."""
    return inst.K * float(_vprime(inst) @ _tail_integrals(inst, sol))


def objective_at(model: MipModel, beta, alpha) -> float:
    """Objective value at explicit (beta, alpha); x only enters constraints."""
    beta = _shaped(beta, "beta", (model.K,))
    alpha = _shaped(alpha, "alpha", (model.K, model.K))
    return float(np.dot(model.obj_beta, beta)) + float((model.obj_alpha * alpha).sum())
