import hashlib
import itertools

import numpy as np
import pytest

from conftest import random_instance
from oracles import lj_by_vertex_enumeration
from test_base_solvers import _pin_costs
from wowaopt import (
    Assignment,
    Explicit,
    PartialFixing,
    ProbabilityVector,
    ScenarioInstance,
    Selection,
    Solution,
    WeightVector,
    brute_force,
    compute_Lj,
    exact_bb,
    gen_instance,
    generate_weights,
    instance_seed,
    scenario_costs,
    search_space_size,
    solve_selection,
    solve_with_costs,
    wowa_value,
    wowa_via_decomposition,
)
from wowaopt.aggregation import SUM_TOL, wowa_batch

TOL = 1e-9

X1 = Solution([0, 3])


class TestComputeLj:
    def test_worked_chain(self, paths_instance):
        values = [compute_Lj(paths_instance, X1, j) for j in (1, 2, 3, 4)]
        assert values == pytest.approx([2.5, 5.0, 5.35, 5.6], abs=TOL)

    def test_full_budget_is_expectation(self, paths_instance):
        a = scenario_costs(paths_instance, X1)
        expectation = float(np.dot(paths_instance.p.as_array(), a))
        assert compute_Lj(paths_instance, X1, 4) == pytest.approx(expectation, abs=TOL)

    def test_index_out_of_range(self, paths_instance):
        with pytest.raises(ValueError):
            compute_Lj(paths_instance, X1, 0)
        with pytest.raises(ValueError):
            compute_Lj(paths_instance, X1, 5)

    def test_monotone_and_bounded(self):
        rng = np.random.RandomState(0)
        for _ in range(100):
            inst = random_instance(rng, "selection", rng.randint(3, 9), rng.randint(1, 7))
            sol = Solution(rng.choice(inst.n, size=inst.kind.q, replace=False).tolist())
            values = [compute_Lj(inst, sol, j) for j in range(1, inst.K + 1)]
            a = scenario_costs(inst, sol)
            assert all(x <= y + TOL for x, y in zip(values, values[1:]))
            assert values[-1] == pytest.approx(float(np.dot(inst.p.as_array(), a)), abs=TOL)
            for j, val in enumerate(values, start=1):
                assert val <= (j / inst.K) * a.max() + TOL

    def test_greedy_equals_lp_vertex_enumeration(self):
        rng = np.random.RandomState(1)
        for trial in range(120):
            k = rng.randint(1, 9)
            inst = random_instance(rng, "selection", 6, k, q=2)
            if trial % 2:  # uniform p puts the cumulative sums exactly on the budgets j/K
                inst = ScenarioInstance(inst.costs, ProbabilityVector.uniform(k), inst.v, inst.kind)
            sol = Solution(rng.choice(6, size=2, replace=False).tolist())
            a = scenario_costs(inst, sol).tolist()
            p = list(inst.p.values)
            for j in range(1, k + 1):
                oracle = lj_by_vertex_enumeration(a, p, j / k)
                assert compute_Lj(inst, sol, j) == pytest.approx(oracle, abs=1e-8)


class TestDecomposition:
    def test_worked_example(self, paths_instance):
        assert wowa_via_decomposition(paths_instance, X1) == pytest.approx(8.28, abs=TOL)

    def test_equals_wowa_value_on_random_pairs(self):
        rng = np.random.RandomState(2)
        for _ in range(300):
            kind = "selection" if rng.randint(2) else "assignment"
            size = rng.randint(3, 9) if kind == "selection" else rng.randint(2, 5)
            inst = random_instance(rng, kind, size, rng.randint(1, 9))
            if kind == "selection":
                sol = Solution(rng.choice(inst.n, size=inst.kind.q, replace=False).tolist())
            else:
                perm = rng.permutation(size)
                sol = Solution([r * size + int(perm[r]) for r in range(size)])
            assert wowa_via_decomposition(inst, sol) == pytest.approx(
                wowa_value(inst, sol), abs=TOL
            )

    def test_uniform_p_reduces_to_owa_increments(self, paths_instance):
        inst = ScenarioInstance(
            paths_instance.costs, ProbabilityVector.uniform(4), paths_instance.v,
            paths_instance.kind,
        )
        a = scenario_costs(inst, X1)
        sa = np.sort(a)[::-1]
        for j in range(1, 5):
            lj = compute_Lj(inst, X1, j)
            prev = compute_Lj(inst, X1, j - 1) if j > 1 else 0.0
            assert lj - prev == pytest.approx(sa[j - 1] / 4, abs=TOL)

    def test_constant_costs(self, paths_instance):
        assert wowa_via_decomposition(paths_instance, Solution([1, 4])) == pytest.approx(
            6.0, abs=TOL
        )

    def test_identity_does_not_need_monotone_weights(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            k, n = rng.randint(2, 10), rng.randint(3, 9)
            v = rng.random(k) + 1e-3
            p = rng.random(k) + 1e-3
            inst = ScenarioInstance(
                rng.randint(0, 80, size=(k, n)).astype(float),
                p / p.sum(), v / v.sum(), Selection(q=2),
            )
            sol = Solution(rng.choice(n, size=2, replace=False).tolist())
            assert wowa_via_decomposition(inst, sol) == pytest.approx(
                wowa_value(inst, sol), abs=TOL
            )


class TestBruteForce:
    def test_paths_three_paths(self, paths_instance):
        res = brute_force(paths_instance)
        assert res.solution.chosen == (1, 4)
        assert res.objective == pytest.approx(6.0, abs=TOL)
        assert res.proof_status == "optimal"
        assert res.node_count == 3

    def test_k1_matches_base_solver(self):
        rng = np.random.RandomState(3)
        for _ in range(20):
            n = rng.randint(2, 10)
            q = rng.randint(1, n + 1)
            costs = rng.randint(0, 60, size=(1, n)).astype(float)
            inst = ScenarioInstance(costs, [1.0], [1.0], Selection(q=q))
            _, obj = solve_selection(costs[0], q)
            assert brute_force(inst).objective == pytest.approx(obj, abs=TOL)

    def test_refuses_large_spaces(self):
        inst = ScenarioInstance(
            np.ones((1, 40)), [1.0], [1.0], Selection(q=20)
        )
        with pytest.raises(ValueError, match=str(search_space_size(inst))):
            brute_force(inst)

    def test_pareto_flag_positive_weights(self):
        rng = np.random.RandomState(4)
        for _ in range(30):
            inst = random_instance(rng, "selection", rng.randint(4, 9), rng.randint(2, 6))
            res = brute_force(inst, check_pareto=True)
            assert res.optimal_is_pareto is True

    def test_pareto_not_checked_by_default(self, paths_instance):
        assert brute_force(paths_instance).optimal_is_pareto is None

    def test_expected_cost_bound_keeps_most_subsets_from_the_kernel(self, monkeypatch):
        columns = []

        def counting(a, v, p):
            columns.append(a.shape[1])
            return wowa_batch(a, v, p)

        monkeypatch.setattr("wowaopt.exact.wowa_batch", counting)
        # generated weights (c = 1): about 7% of the subsets reach the kernel
        inst = gen_instance("selection", 24, 10, 1e-2, 1, q=6)
        res = brute_force(inst)
        assert res.node_count == 134_596
        assert sum(columns) < res.node_count / 4
        assert res.objective == wowa_value(inst, res.solution)

    def test_margin_keeps_a_solution_whose_bound_rounds_above_the_best(self):
        # Under uniform weights the bound is the WOWA value up to rounding.
        # Element 1, alone in the second kernel batch, evaluates one ulp below
        # element 0, the first batch's best, and its bound rounds one ulp above.
        k, filler = 5, 2047
        costs = np.full((k, filler + 2), 10.0)
        costs[:, 0] = [0.6, 1.1, 1.1, 1.1, 0.7]
        costs[:, 1] = [0.6, 0.6, 1.1, 3.3, 0.3]
        solutions = ((0,),) + tuple((e,) for e in range(2, filler + 2)) + ((1,),)
        inst = ScenarioInstance(costs, np.array([14, 2, 12, 3, 14]) / 45.0,
                                WeightVector.uniform(k), Explicit(solutions))
        first, second = (wowa_value(inst, Solution([e])) for e in (0, 1))
        assert second < first < inst.p.as_array() @ costs[:, 1]
        res = brute_force(inst)
        assert (res.solution.chosen, res.objective) == ((1,), second)


def _pin_instance(rng, kind, n: int, k: int, style: int) -> ScenarioInstance:
    numer = rng.randint(1, 101, size=k)
    shape = rng.randint(3)
    if shape == 0:
        v = generate_weights(10.0 ** rng.uniform(-4, -0.5), k)
    elif shape == 1:  # any weights, nonincreasing or not
        v = rng.random_sample(k) + 1e-3
        v = v / v.sum()
    else:  # the weighted maximum, whose optima need not be Pareto efficient
        v = np.eye(k)[0]
    return ScenarioInstance(_pin_costs(rng, (k, n), style), numer / numer.sum(), v, kind)


def _pin_outcome(inst: ScenarioInstance) -> str:
    res = brute_force(inst, check_pareto=True)
    return repr((res.objective.hex(), res.solution.chosen, res.optimal_is_pareto))


def _selection_brute_outcomes():
    rng = np.random.RandomState(3030)
    for n in range(1, 15):
        for q in range(1, n + 1):
            k = (1, 2, 3, 5, 10)[q % 5]
            for style in range(3):
                yield _pin_outcome(_pin_instance(rng, Selection(q=q), n, k, style))


def _selection_k1_brute_outcomes():
    # at K=1 the sum over q >= 8 chosen costs is where pairwise summation shows
    rng = np.random.RandomState(3031)
    for n in range(8, 15):
        for q in range(8, n + 1):
            for style in range(3):
                yield _pin_outcome(_pin_instance(rng, Selection(q=q), n, 1, style))


def _assignment_brute_outcomes():
    rng = np.random.RandomState(3032)
    for m in range(1, 8):
        for k in (1, 2, 5, 10):
            for style in range(3):
                yield _pin_outcome(_pin_instance(rng, Assignment(m=m), m * m, k, style))


def _explicit_solutions(rng, n: int, count: int, shape: int) -> list:
    # ragged lengths, alternating lengths, or one length with an empty solution
    lengths = {
        0: lambda i: rng.randint(1, n + 1),
        1: lambda i: (2, 5)[i % 2],
        2: lambda i: 0 if i == count // 2 else 4,
    }[shape]
    return [rng.choice(n, size=lengths(i), replace=False).tolist() for i in range(count)]


def _explicit_brute_outcomes():
    rng = np.random.RandomState(3033)
    for count in (1, 2, 7, 300, 2048, 2049, 5000):
        for shape in range(3):
            for style in range(3):
                n = rng.randint(6, 15)
                kind = Explicit(tuple(map(tuple, _explicit_solutions(rng, n, count, shape))))
                # tie-heavy costs at K=1 tie many solutions
                yield _pin_outcome(_pin_instance(rng, kind, n, (2, 1, 10)[style], style))


def _pin_weights(rng, k: int, shape: str) -> np.ndarray:
    if shape == "generated":
        return generate_weights(10.0 ** rng.uniform(-4, -0.5), k).as_array()
    if shape == "random":  # nonincreasing or not
        v = rng.random_sample(k) + 1e-3
        return v / v.sum()
    if shape == "uniform":
        return np.full(k, 1.0 / k)
    return np.eye(k)[{"max": 0, "min": k - 1}[shape]]  # weighted maximum or minimum


def _one_v_brute_outcomes(seed: int, shape: str):
    # every selection n <= 12 and assignment m <= 6, all under one weight shape
    rng = np.random.RandomState(seed)
    kinds = [(Selection(q=q), n, (1, 2, 3, 5, 10)[q % 5])
             for n in range(1, 13) for q in range(1, n + 1)]
    kinds += [(Assignment(m=m), m * m, k) for m in range(1, 7) for k in (1, 2, 5, 10)]
    for kind, n, k in kinds:
        for style in range(3):
            numer = rng.randint(1, 101, size=k)
            inst = ScenarioInstance(_pin_costs(rng, (k, n), style), numer / numer.sum(),
                                    _pin_weights(rng, k, shape), kind)
            yield _pin_outcome(inst)


def _tie_heavy_brute_outcomes():
    # costs 0..3 on instances of several kernel batches: selection n=14, q=7
    # (3,432 subsets) and assignment m=7 (5,040 matchings)
    rng = np.random.RandomState(3036)
    for kind, n in ((Selection(q=7), 14), (Assignment(m=7), 49)):
        for k in (1, 2, 5, 10):
            for shape in ("generated", "random", "max", "uniform", "min"):
                numer = rng.randint(1, 101, size=k) if k % 2 else np.ones(k)
                inst = ScenarioInstance(_pin_costs(rng, (k, n), 1), numer / numer.sum(),
                                        _pin_weights(rng, k, shape), kind)
                yield _pin_outcome(inst)


# sha256 over (objective.hex(), chosen, optimal_is_pareto) of brute_force with
# check_pareto on seeded instances.  Which of several equal optima brute force
# returns depends on its enumeration order, so any change to that order, to
# the cost sums or to the kernel shows here.  The last three families were
# recorded when brute force still evaluated every solution: uniform weights
# (its expected-cost bound equals the WOWA value up to rounding), the weighted
# minimum (the bound is 0) and tie-heavy costs over several kernel batches.
_BRUTE_PINS = {
    "assignment": (_assignment_brute_outcomes,
                  "a1a94e5fef66f2047d7b75f2a2e0033a5262aa6e01a88d73c444ee97fc7acaea"),
    "explicit": (_explicit_brute_outcomes,
                "49ee939474ca965f4ca82ffd752900a98c8606688b45837585578d2c8981878a"),
    "selection": (_selection_brute_outcomes,
                 "cd816a391857e226dfbd15a930ce2007a907216bb507b60bd3bdc30450782979"),
    "selection-k1": (_selection_k1_brute_outcomes,
                    "4d4b287a79a65380adaf8151263e4f86cd0ea5fc4a88854ce2c0240d92c390c4"),
    "tie-heavy-batches": (_tie_heavy_brute_outcomes,
                          "f36c20e79cb684f51efb0f94151ec4ecdd6802564f0e1aa96a3031010e162a35"),
    "uniform-v": (lambda: _one_v_brute_outcomes(3034, "uniform"),
                  "cb33141b8cffbbd45c0a56f4457f5fe7f67c771759f9d19f94910c60db357719"),
    "weighted-min": (lambda: _one_v_brute_outcomes(3035, "min"),
                     "377dab6def99764b270402aa702d08a20f8d876785b1d083c258e757c131eee4"),
}


@pytest.mark.parametrize("name", sorted(_BRUTE_PINS))
def test_brute_force_outcomes_are_pinned(name):
    outcomes, digest = _BRUTE_PINS[name]
    text = "\n".join(outcomes())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# (kind, size, K, alpha, seed, node_count, objective.hex()) of exact_bb on
# benchmark-sized instances; any change to the search order, the bounds or
# the kernel shows here.  The objectives were recorded before the node bound
# evaluated its completions in one batch and stopped at the incumbent, and
# have held since; the node counts are those of the averaged Frank-Wolfe
# direction warm-started from the parent, with 6 steps per node, and of
# reduced-cost fixing of selection elements.
_BB_PINS = [
    ("selection", 20, 5, 1e-2, 700, 59, "0x1.3ddfabfcd6dc1p+7"),
    ("selection", 20, 5, 1e-4, 701, 17, "0x1.a80c231152dddp+7"),
    ("selection", 20, 10, 1e-2, 702, 31, "0x1.0500d5cdbf7d8p+8"),
    ("selection", 20, 10, 1e-4, 703, 145, "0x1.f6bca22120762p+7"),
    ("assignment", 6, 5, 1e-2, 704, 17, "0x1.b4abadfd44fa3p+7"),
    ("assignment", 6, 5, 1e-4, 705, 25, "0x1.02df2c1fc6b0ep+8"),
    ("assignment", 6, 10, 1e-2, 706, 17, "0x1.180b5902ee69cp+8"),
    ("assignment", 6, 10, 1e-4, 707, 45, "0x1.19e55f7228376p+8"),
]


def _tie_heavy_assignment(rng, m: int) -> ScenarioInstance:
    # costs 0..2 tie many matchings under every weight vector
    k = rng.randint(2, 6)
    numer = rng.randint(1, 101, size=k)
    return ScenarioInstance(
        rng.randint(0, 3, size=(k, m * m)).astype(float), numer / numer.sum(),
        generate_weights(10.0 ** rng.uniform(-4, -0.5), k), Assignment(m=m),
    )


class TestBranchAndBound:
    @pytest.mark.parametrize(
        "kind, size, k, alpha, seed, nodes, objective", _BB_PINS,
        ids=[f"{kind}-{size}-{k}-{alpha}-{seed}" for kind, size, k, alpha, seed, *_ in _BB_PINS],
    )
    def test_search_is_pinned(self, kind, size, k, alpha, seed, nodes, objective):
        inst = gen_instance(kind, size, k, alpha, seed, q=5 if kind == "selection" else None)
        res = exact_bb(inst)
        assert (res.node_count, res.objective.hex()) == (nodes, objective)
        assert res.objective == wowa_value(inst, res.solution)

    def test_matches_brute_force_selection(self):
        rng = np.random.RandomState(5)
        for _ in range(60):
            inst = random_instance(rng, "selection", 12, 5, q=3)
            assert exact_bb(inst).objective == brute_force(inst).objective

    def test_matches_brute_force_on_scaled_fractional_costs(self):
        # The pruning margin 1e-12 * max(1, |best|) and the early Frank-Wolfe
        # stop must never cut off the optimum, whatever the scale of the costs.
        rng = np.random.RandomState(12)
        for i in range(300):
            n, k = rng.randint(12, 17), (2, 5, 10)[i % 3]
            numer = rng.randint(1, 101, size=k)
            inst = ScenarioInstance(
                rng.random((k, n)) * 100.0 * 10.0 ** rng.uniform(-6, 6),
                numer / numer.sum(),
                generate_weights(10.0 ** rng.uniform(-4, -1), k),
                Selection(q=n // 4),
            )
            assert exact_bb(inst).objective == brute_force(inst).objective, i

    def test_matches_brute_force_on_tie_heavy_selection(self):
        # Integer costs 0-3 tie many completions, so node bounds and element
        # prices often land on the incumbent's value: neither the pruning nor
        # the fixing cutoff best - 1e-12 * max(1, |best|) may cut off the optimum.
        rng = np.random.RandomState(16)
        for i in range(200):
            n, k = rng.randint(12, 17), (2, 5, 10)[i % 3]
            numer = rng.randint(1, 101, size=k)
            inst = ScenarioInstance(
                rng.randint(0, 4, size=(k, n)).astype(float),
                numer / numer.sum(),
                generate_weights(10.0 ** rng.uniform(-4, -0.5), k),
                Selection(q=rng.randint(2, n // 2 + 1)),
            )
            assert exact_bb(inst).objective == brute_force(inst).objective, i

    def test_matches_brute_force_assignment(self):
        rng = np.random.RandomState(6)
        for _ in range(30):
            inst = random_instance(rng, "assignment", 5, 4)
            assert exact_bb(inst).objective == brute_force(inst).objective

    @pytest.mark.parametrize("alpha", [1e-2, 1e-4])
    def test_matches_brute_force_at_desk_scale_assignment(self, alpha):
        # the assignment m=8, K=10 instances of the desk-scale grid (seed 2)
        for index in range(10):
            seed = instance_seed(2, "assignment", 8, 10, alpha, index)
            inst = gen_instance("assignment", 8, 10, alpha, seed)
            assert exact_bb(inst).objective.hex() == brute_force(inst).objective.hex(), index

    def test_uniform_v_closes_at_root(self):
        rng = np.random.RandomState(7)
        for _ in range(10):
            k, n = rng.randint(2, 7), rng.randint(6, 15)
            p = rng.random(k) + 0.05
            inst = ScenarioInstance(
                rng.randint(0, 80, size=(k, n)).astype(float),
                p / p.sum(),
                WeightVector.uniform(k),
                Selection(q=max(1, n // 4)),
            )
            res = exact_bb(inst)
            assert res.node_count == 1
            assert res.objective == brute_force(inst).objective

    def test_objective_matches_solution_value(self):
        rng = np.random.RandomState(8)
        for _ in range(30):
            inst = random_instance(rng, "selection", 10, 4, q=3)
            res = exact_bb(inst)
            assert res.objective == wowa_value(inst, res.solution)
            assert res.proof_status == "optimal"

    def test_time_limit_returns_incumbent(self):
        rng = np.random.RandomState(9)
        inst = random_instance(rng, "selection", 30, 8, q=8, alpha_range=(-4.0, -3.5))
        res = exact_bb(inst, time_limit=1e-9)  # spent by the incumbent heuristic
        assert res.proof_status == "time_limit"
        assert res.objective == wowa_value(inst, res.solution)

    @pytest.mark.parametrize("limit", [float("nan"), 0.0, -5.0, -float("inf")])
    def test_rejects_nan_and_nonpositive_time_limits(self, limit):
        rng = np.random.RandomState(9)
        with pytest.raises(ValueError, match="time limit must be positive"):
            exact_bb(random_instance(rng, "selection", 8, 3), time_limit=limit)

    def test_infinite_time_limit_is_no_limit(self):
        rng = np.random.RandomState(9)
        inst = random_instance(rng, "selection", 10, 4, q=3)
        res = exact_bb(inst, time_limit=float("inf"))
        assert res.proof_status == "optimal"
        assert res.objective == brute_force(inst).objective

    def test_rejects_non_monotone_weights(self):
        inst = ScenarioInstance(
            [[1.0, 2.0], [3.0, 1.0]], [0.5, 0.5], [0.3, 0.7], Selection(q=1)
        )
        with pytest.raises(ValueError):
            exact_bb(inst)

    def test_explicit_kind(self, paths_instance):
        res = exact_bb(paths_instance)
        assert res.objective == pytest.approx(6.0, abs=TOL)

    def test_node_bound_below_subtree_minimum(self):
        # validity of the relaxation: bound(fix) <= min WOWA over completions
        from wowaopt.exact import _BBContext

        rng = np.random.RandomState(10)
        for _ in range(40):
            inst = random_instance(rng, "selection", 8, rng.randint(2, 6), q=3)
            ctx = _BBContext(inst)
            e1, e2 = rng.choice(8, size=2, replace=False).tolist()
            fix = PartialFixing(frozenset({e1}), frozenset({e2}))
            bound, *_, warm = ctx.node_bound(fix, np.inf)
            completions = [
                wowa_value(inst, Solution((e1,) + rest))
                for rest in itertools.combinations(
                    [i for i in range(8) if i not in (e1, e2)], 2
                )
            ]
            assert bound <= min(completions) + TOL
            # a child warm-started from that state still gets a valid bound
            e3 = int(rng.choice([i for i in range(8) if i not in (e1, e2)]))
            child = PartialFixing(fix.forced_in | {e3}, fix.forced_out)
            child_bound, *_, (w, _, _) = ctx.node_bound(child, np.inf, warm)
            child_completions = [
                wowa_value(inst, Solution((e1, e3) + rest))
                for rest in itertools.combinations(
                    [i for i in range(8) if i not in (e1, e2, e3)], 1
                )
            ]
            assert child_bound <= min(child_completions) + TOL
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= SUM_TOL

    def test_child_reuses_its_parents_last_solve(self, monkeypatch):
        # the child whose fixing admits the parent's last completion takes that
        # solve as its first and makes one base solve fewer than its sibling
        from wowaopt import exact

        fixings = []

        def counting_solve(kind, costs, fix):
            fixings.append(fix)
            return solve_with_costs(kind, costs, fix)

        monkeypatch.setattr(exact, "solve_with_costs", counting_solve)
        rng = np.random.RandomState(13)
        for _ in range(40):
            inst = random_instance(rng, "selection", 10, rng.randint(2, 6), q=3)
            ctx = exact._BBContext(inst)
            *_, warm = ctx.node_bound(PartialFixing(), np.inf)
            w, _, last = warm
            e = int(rng.randint(10))
            forced_in, forced_out = PartialFixing({e}, ()), PartialFixing((), {e})
            admitting = forced_in if e in last[0].chosen else forced_out
            # for selection the reused solve is the one the child would make, to the bit
            sol, value = solve_with_costs(inst.kind, w @ ctx.C, admitting)
            assert (sol, value.hex()) == (last[0], last[1].hex())
            for child in (forced_in, forced_out):
                fixings.clear()
                ctx.node_bound(child, np.inf, warm)
                assert len(fixings) == exact._FW_STEPS - (child is admitting)

    def test_reused_solve_bounds_tie_heavy_assignment_children(self):
        # On 0-2 costs the Hungarian may return another of the tied matchings
        # than the reused one; every bound down to depth 3 must still hold.
        from wowaopt.exact import _BBContext

        m = 5
        matchings = [Solution([r * m + c for r, c in enumerate(perm)])
                     for perm in itertools.permutations(range(m))]
        rng = np.random.RandomState(14)
        other_tie = 0
        for _ in range(40):
            inst = _tie_heavy_assignment(rng, m)
            values = [(set(sol.chosen), wowa_value(inst, sol)) for sol in matchings]
            ctx = _BBContext(inst)
            stack = [(PartialFixing(), None)]
            while stack:
                fix, warm = stack.pop()
                bound, completion, _, child_warm = ctx.node_bound(fix, np.inf, warm)
                assert bound <= min(
                    value for chosen, value in values
                    if fix.forced_in <= chosen and not fix.forced_out & chosen
                ) + TOL
                if warm is not None:
                    last = warm[2][0]
                    if fix.forced_in <= set(last.chosen) and not fix.forced_out & set(last.chosen):
                        other_tie += solve_with_costs(inst.kind, warm[0] @ ctx.C, fix)[0] != last
                e = ctx.branch_element(fix, completion)
                if e is not None and len(fix.forced_in) + len(fix.forced_out) < 3:
                    stack.append((PartialFixing(fix.forced_in | {e}, fix.forced_out), child_warm))
                    stack.append((PartialFixing(fix.forced_in, fix.forced_out | {e}), child_warm))
        assert other_tie > 0  # the case the test is for did occur

    def test_matches_brute_force_on_tie_heavy_assignment(self):
        rng = np.random.RandomState(15)
        for i in range(40):
            inst = _tie_heavy_assignment(rng, 5)
            assert exact_bb(inst).objective == brute_force(inst).objective, i
