import hashlib
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN, random_instance
from wowaopt import (
    Assignment,
    Explicit,
    MipModel,
    NonIncreasingWeightsError,
    ProbabilityVector,
    ProblemKind,
    ScenarioInstance,
    Selection,
    Solution,
    brute_force,
    build_mip,
    exact_bb,
    export_lp,
    gen_instance,
    generate_weights,
    greedy_dual_point,
    objective_at,
    read_instance,
    scenario_costs,
    wowa_value,
)

TOL = 1e-9


def parse_lp(text: str):
    """Minimal parser for the exporter's own output: returns the objective
    terms and the constraint rows as {name: coefficient} maps plus senses,
    the set of free variables and the list of binary variables."""

    token_re = re.compile(
        r"[A-Za-z_][A-Za-z0-9_]*|\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|[-+]"
    )

    def parse_terms(expr: str) -> dict:
        coefs: dict[str, float] = {}
        sign, pending = 1.0, None
        for tok in token_re.findall(expr):
            if tok == "+":
                sign, pending = 1.0, None
            elif tok == "-":
                sign, pending = -1.0, None
            elif tok[0].isdigit() or tok[0] == ".":
                pending = float(tok)
            else:
                coefs[tok] = sign * (1.0 if pending is None else pending)
                sign, pending = 1.0, None
        return coefs

    objective = None
    constraints = {}
    free: set[str] = set()
    binaries: list[str] = []
    section = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("\\"):
            continue
        if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            section = line
            continue
        if section == "Minimize" and line.startswith("obj:"):
            objective = parse_terms(line.split(":", 1)[1])
        elif section == "Subject To":
            name, rest = line.split(":", 1)
            m = re.match(r"(.*?)(>=|<=|=)(.*)", rest)
            constraints[name.strip()] = (
                parse_terms(m.group(1)),
                m.group(2),
                float(m.group(3)),
            )
        elif section == "Bounds" and line.endswith(" free"):
            free.add(line.split()[0])
        elif section == "Binary":
            binaries += line.split()
    return objective, constraints, free, binaries


class TestBuildMip:
    def test_counts_selection(self):
        inst = ScenarioInstance(
            np.ones((2, 4)), [0.5, 0.5], [0.6, 0.4], Selection(q=2)
        )
        model = build_mip(inst)
        assert model.num_binary == 4
        assert model.num_continuous == 2 + 4
        assert model.num_coupling_constraints == 4
        text = export_lp(model)
        assert text.count("cost") == 4
        assert " card:" in text

    def test_rejects_non_monotone_weights(self):
        inst = ScenarioInstance(
            np.ones((2, 3)), [0.5, 0.5], [0.4, 0.6], Selection(q=1)
        )
        with pytest.raises(NonIncreasingWeightsError):
            build_mip(inst)

    def test_k1_objective_reduces_to_single_scenario_cost(self):
        rng = np.random.RandomState(0)
        for _ in range(20):
            n = rng.randint(2, 8)
            q = rng.randint(1, n + 1)
            inst = ScenarioInstance(
                rng.randint(0, 50, size=(1, n)).astype(float), [1.0], [1.0], Selection(q=q)
            )
            model = build_mip(inst)
            sol = Solution(rng.choice(n, size=q, replace=False).tolist())
            beta, alpha = greedy_dual_point(inst, sol)
            costs = float(inst.costs[0, list(sol.chosen)].sum())
            assert objective_at(model, beta, alpha) == pytest.approx(costs, abs=TOL)

    def test_explicit_enumeration_minimum(self, paths_instance):
        model = build_mip(paths_instance)
        values = []
        for path in paths_instance.kind.solutions:
            beta, alpha = greedy_dual_point(paths_instance, Solution(path))
            values.append(objective_at(model, beta, alpha))
        assert min(values) == pytest.approx(6.0, abs=TOL)
        assert values == pytest.approx([8.28, 6.32, 6.0], abs=TOL)

    def test_dual_point_reproduces_wowa(self):
        rng = np.random.RandomState(1)
        for _ in range(200):
            kind = "selection" if rng.randint(2) else "assignment"
            size = rng.randint(3, 9) if kind == "selection" else rng.randint(2, 5)
            inst = random_instance(rng, kind, size, rng.randint(1, 9))
            model = build_mip(inst)
            if kind == "selection":
                sol = Solution(rng.choice(inst.n, size=inst.kind.q, replace=False).tolist())
            else:
                perm = rng.permutation(size)
                sol = Solution([r * size + int(perm[r]) for r in range(size)])
            beta, alpha = greedy_dual_point(inst, sol)
            assert objective_at(model, beta, alpha) == pytest.approx(
                wowa_value(inst, sol), abs=TOL
            )
            assert np.all(alpha >= -TOL)
            # dual feasibility: beta_j + alpha_ij >= F(x, c_i)
            F = inst.costs[:, list(sol.chosen)].sum(axis=1)
            assert np.all(beta[None, :] + alpha - F[:, None] >= -TOL)


class TestExportLp:
    def test_golden_file_byte_identical(self):
        inst = read_instance((GOLDEN / "selection_tiny.json").read_text())
        assert export_lp(build_mip(inst)) == (GOLDEN / "selection_tiny.lp").read_text()

    def test_reparse_and_evaluate_at_optimum(self):
        rng = np.random.RandomState(2)
        for _ in range(40):
            kind = "selection" if rng.randint(2) else "assignment"
            size = rng.randint(3, 8) if kind == "selection" else rng.randint(2, 4)
            inst = random_instance(rng, kind, size, rng.randint(1, 6))
            model = build_mip(inst)
            objective, constraints, _, _ = parse_lp(export_lp(model))
            best = brute_force(inst)
            beta, alpha = greedy_dual_point(inst, best.solution)
            point = {f"b{j + 1}": beta[j] for j in range(inst.K)}
            point.update(
                {f"a_{i + 1}_{j + 1}": alpha[i, j] for i in range(inst.K) for j in range(inst.K)}
            )
            point.update({f"x{i + 1}": 1.0 if i in best.solution.chosen else 0.0
                          for i in range(inst.n)})
            value = sum(coef * point[name] for name, coef in objective.items())
            assert value == pytest.approx(wowa_value(inst, best.solution), abs=TOL)
            # the exported coupling constraints hold at the point
            for name, (coefs, sense, rhs) in constraints.items():
                if not name.startswith("cost"):
                    continue
                lhs = sum(coef * point[var] for var, coef in coefs.items())
                assert lhs >= rhs - 1e-7

    def test_feasibility_rows_match_kind(self):
        rng = np.random.RandomState(3)
        inst = random_instance(rng, "assignment", 3, 2)
        _, constraints, _, _ = parse_lp(export_lp(build_mip(inst)))
        rows = [n for n in constraints if n.startswith("row")]
        cols = [n for n in constraints if n.startswith("col")]
        assert len(rows) == 3 and len(cols) == 3
        for name in rows + cols:
            coefs, sense, rhs = constraints[name]
            assert sense == "=" and rhs == 1.0 and len(coefs) == 3

    def test_empty_model_rejected(self):
        model = MipModel(
            n=0, K=1, kind=Selection(q=1), costs=((),),
            obj_beta=(1.0,), obj_alpha=((1.0,),),
        )
        with pytest.raises(ValueError):
            export_lp(model)

    @pytest.mark.parametrize("row", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_cost_rows_must_have_n_entries(self, row):
        model = MipModel(
            n=3, K=1, kind=Selection(q=1), costs=(row,),
            obj_beta=(1.0,), obj_alpha=((1.0,),),
        )
        with pytest.raises(ValueError):
            export_lp(model)

    def test_ragged_cost_rows_rejected(self):
        model = MipModel(
            n=3, K=2, kind=Selection(q=1), costs=((1.0, 2.0, 3.0), (1.0, 2.0)),
            obj_beta=(1.0, 1.0), obj_alpha=((1.0, 1.0), (1.0, 1.0)),
        )
        with pytest.raises(ValueError):
            export_lp(model)


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


def _lines_by_terms(model):
    """Reference export: every row rendered by _terms, one term at a time."""
    K, xs = model.K, [f"x{k + 1}" for k in range(model.n)]
    beta, alpha, costs = (np.asarray(a, dtype=float).tolist()
                          for a in (model.obj_beta, model.obj_alpha, model.costs))
    obj = [(beta[j], f"b{j + 1}") for j in range(K)]
    obj += [(alpha[i][j], f"a_{i + 1}_{j + 1}") for i in range(K) for j in range(K)]
    yield from ("\\ wowaopt model export", "Minimize", f" obj: {_terms(obj)}", "Subject To")
    for i in range(K):
        # a leading unit term with an empty name renders the rest as a continuation
        x_part = _terms([(1.0, "")] + [(-c, x) for c, x in zip(costs[i], xs)])
        for j in range(K):
            head = _terms([(1.0, f"b{j + 1}"), (1.0, f"a_{i + 1}_{j + 1}")])
            yield f" cost{i + 1}_{j + 1}: {head}{x_part} >= 0"
    for name, terms, rhs in model.kind.lp_rows(model.n):
        yield f" {name}: {_terms(terms)} = {rhs}"
    yield "Bounds"
    yield from (f" b{j + 1} free" for j in range(K))
    yield from ("Binary", " " + " ".join(xs + model.kind.lp_binaries()), "End")


@dataclass(frozen=True)
class _Rows(ProblemKind):
    """A kind whose LP rows carry arbitrary coefficients over x1..xn (rendering tests only)."""

    rows: tuple[tuple[float, ...], ...]
    tag = "rows"

    def lp_rows(self, n: int):
        return [(f"r{r + 1}", [(c, f"x{k % n + 1}") for k, c in enumerate(row)], r)
                for r, row in enumerate(self.rows)]


# Zero, signed zero, unit and the _num switch from integer to repr at 1e15,
# with their negatives (a MipModel built by hand need not be checked).
_EDGE_COEFS = [0.0, -0.0, 1.0, -1.0, 5e-324, 0.1, 2.5, 1e15 - 1, 1e15, 1e16, 1e22, 123456.789]
_COEF = st.one_of(st.sampled_from(_EDGE_COEFS).flatmap(lambda c: st.sampled_from([c, -c])),
                  st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@st.composite
def _models(draw):
    def matrix(rows: int, cols: int) -> np.ndarray:
        row = st.lists(_COEF, min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)

    K, kind = draw(st.integers(1, 4)), draw(st.sampled_from(["selection", "assignment",
                                                               "explicit", "rows"]))
    if kind == "assignment":
        m = draw(st.integers(1, 3))
        n, problem = m * m, Assignment(m=m)
    else:
        n = draw(st.integers(1, 12))
        if kind == "selection":
            problem = Selection(q=draw(st.integers(1, n)))
        elif kind == "explicit":  # no solutions at all gives a pick row with no terms
            subset = st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            problem = Explicit(tuple(map(tuple, draw(st.lists(subset, max_size=4)))))
        else:
            row = st.lists(_COEF, max_size=2 * n).map(tuple)
            problem = _Rows(tuple(draw(st.lists(row, max_size=3))))
    return MipModel(n=n, K=K, kind=problem, costs=matrix(K, n), obj_beta=matrix(1, K)[0],
                    obj_alpha=matrix(K, K))


@settings(deadline=None, max_examples=200)
@given(_models())
def test_export_equals_term_by_term_rendering(model):
    text = export_lp(model)
    assert text.endswith("\n")
    assert text.splitlines() == list(_lines_by_terms(model))


def test_rows_without_nonzero_terms_render_as_pinned():
    # An empty feasible set leaves the pick row with no terms at all; an
    # all-zero objective and a scenario of zero costs keep their first name.
    model = MipModel(n=2, K=1, kind=Explicit(()), costs=np.zeros((1, 2)),
                     obj_beta=np.zeros(1), obj_alpha=np.zeros((1, 1)))
    assert export_lp(model) == (
        "\\ wowaopt model export\nMinimize\n obj: 0 b1\nSubject To\n cost1_1: b1 + a_1_1 >= 0\n"
        " pick: 0 = 1\n link1: x1 = 0\n link2: x2 = 0\nBounds\n b1 free\nBinary\n x1 x2\nEnd\n"
    )


def test_model_shares_the_instance_costs_read_only():
    inst = random_instance(np.random.RandomState(5), "selection", 6, 3)
    model = build_mip(inst)
    assert np.shares_memory(model.costs, inst.costs)
    for array in (model.costs, model.obj_beta, model.obj_alpha):
        assert isinstance(array, np.ndarray) and not array.flags.writeable


def _dual_point_by_loop(inst, sol):
    """Reference greedy_dual_point: one searchsorted call per budget j/K."""
    F = scenario_costs(inst, sol)
    order = np.argsort(-F, kind="stable")
    cum = np.cumsum(inst.p.as_array()[order])
    beta = np.empty(inst.K)
    for j in range(1, inst.K + 1):
        pos = min(int(np.searchsorted(cum, j / inst.K, side="left")), inst.K - 1)
        beta[j - 1] = F[order[pos]]
    return beta, np.maximum(0.0, F[:, None] - beta[None, :])


def test_dual_point_matches_per_budget_loop():
    rng = np.random.RandomState(4)
    for trial in range(300):
        k = rng.randint(1, 12)
        inst = random_instance(rng, "selection", rng.randint(2, 10), k)
        if trial % 2:  # uniform p puts cumulative sums on the budgets j/K
            inst = ScenarioInstance(inst.costs, ProbabilityVector.uniform(k), inst.v, inst.kind)
        sol = Solution(rng.choice(inst.n, size=inst.kind.q, replace=False).tolist())
        beta, alpha = greedy_dual_point(inst, sol)
        ref_beta, ref_alpha = _dual_point_by_loop(inst, sol)
        assert beta.tobytes() == ref_beta.tobytes()
        assert alpha.tobytes() == ref_alpha.tobytes()


def _pinned_lp_instances():
    rng = np.random.RandomState(11)

    def p_vector(k):
        numer = rng.randint(1, 101, size=k)
        return ProbabilityVector(numer / numer.sum())

    # Selection n=300, K=10: zero, fractional and unit costs, plus one
    # scenario whose costs are all zero, so its coupling rows have no x part.
    costs = np.round(rng.uniform(0.0, 100.0, size=(10, 300)), 2)
    costs[rng.rand(10, 300) < 0.2] = 0.0
    costs[rng.rand(10, 300) < 0.2] = 1.0
    costs[3] = 0.0
    selection = ScenarioInstance(costs, p_vector(10), generate_weights(1e-2, 10), Selection(q=75))
    assignment = random_instance(rng, "assignment", 12, 6)
    solutions = tuple(tuple(sorted(rng.choice(30, size=8, replace=False).tolist())) for _ in range(6))
    explicit = ScenarioInstance(np.round(rng.uniform(0.0, 10.0, size=(4, 30)), 3), p_vector(4),
                                generate_weights(1e-4, 4), Explicit(solutions))
    single = ScenarioInstance(rng.randint(0, 50, size=(1, 200)).astype(float), [1.0], [1.0],
                              Selection(q=20))
    return {"selection": selection, "assignment": assignment, "explicit": explicit, "k1": single}


# sha256 of export_lp(build_mip(inst)) for each pinned instance, so that any
# change to the exported bytes at scale shows (the golden file is tiny).
_LP_SHA256 = {
    "selection": "3d62113d86621cdc9b089a8ecba0fd921220d604a7f16dda9ec9584880db903f",
    "assignment": "1ac3d6024e8378319e334c85dee852ea305d1bc3958479f89ceff51ebae8004b",
    "explicit": "5d5cba999ef55cc61514b93c360aa7c8f0d4e2aac126a7f83395e3ffcf684484",
    "k1": "02021caad08d616212708ec2382707c9d82f60389de001022dc5b0294c80adf3",
}


@pytest.mark.parametrize("name", sorted(_LP_SHA256))
def test_export_lp_bytes_are_pinned(name):
    text = export_lp(build_mip(_pinned_lp_instances()[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == _LP_SHA256[name]


def _highs_optimum(text: str) -> float:
    """Optimal objective of exported LP text, solved by HiGHS."""
    opt = pytest.importorskip("scipy.optimize")
    objective, constraints, free, binaries = parse_lp(text)
    names = sorted({*objective, *free, *binaries}.union(*(c for c, _, _ in constraints.values())))
    col = {name: k for k, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, coef in objective.items():
        c[col[name]] = coef
    A = np.zeros((len(constraints), len(names)))
    lo = np.full(len(constraints), -np.inf)
    hi = np.full(len(constraints), np.inf)
    for r, (coefs, sense, rhs) in enumerate(constraints.values()):
        for name, coef in coefs.items():
            A[r, col[name]] = coef
        if sense in (">=", "="):
            lo[r] = rhs
        if sense in ("<=", "="):
            hi[r] = rhs
    binary = np.array([name in binaries for name in names])
    lb = np.array([-np.inf if name in free else 0.0 for name in names])
    res = opt.milp(c, constraints=opt.LinearConstraint(A, lo, hi),
                   bounds=opt.Bounds(lb, np.where(binary, 1.0, np.inf)),
                   integrality=binary.astype(int), options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return float(res.fun)


@pytest.mark.parametrize("k", [5, 10])
@pytest.mark.parametrize("seed, alpha", [(1, 1e-2), (2, 1e-4)])
@pytest.mark.parametrize("kind, size", [("selection", 40), ("assignment", 8)])
def test_exported_model_optimum_matches_exact_bb(kind, size, k, seed, alpha):
    """Desk-scale oracle: HiGHS on the exported text agrees with the B&B."""
    inst = gen_instance(kind, size, k, alpha, seed)
    expected = exact_bb(inst).objective
    assert _highs_optimum(export_lp(build_mip(inst))) == pytest.approx(expected, rel=1e-9)
