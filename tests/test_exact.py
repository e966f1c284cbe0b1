import hashlib
import itertools
from types import SimpleNamespace

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
from wowaopt import exact
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

    def test_cached_blocks_are_the_enumeration_in_a_compact_read_only_dtype(self):
        rng = np.random.RandomState(21)
        cases = [(Selection(q=4), 11, np.int8), (Assignment(m=5), 25, np.int8),
                 (Explicit(tuple(map(tuple, _explicit_solutions(rng, 12, 3000, 0)))), 12, np.int8),
                 (Explicit(((0, 199), (5,), (7, 130))), 200, np.int16), (Selection(q=2), 200, np.int16)]
        for kind, n, dtype in cases:
            exact._enumerated.cache_clear()
            batches = exact._enumerated(kind, n)
            blocks = [block for batch in batches for block in batch]
            assert ([row for block in blocks for row in block.tolist()]
                    == [row for array in kind.enumerate(n) for row in array.tolist()])
            # each block a compact, read-only copy that owns its memory
            assert all(len(b) <= exact.BLOCK_ROWS and not b.flags.writeable and b.base is None
                       and b.dtype == dtype for b in blocks)
            # every batch but the last fills a kernel call
            assert all(sum(map(len, batch)) >= exact.BLOCK_ROWS for batch in batches[:-1])
        exact._enumerated.cache_clear()

    def test_cached_enumeration_gives_the_same_outcome(self):
        rng = np.random.RandomState(22)
        for kind, n in ((Selection(q=5), 12), (Assignment(m=6), 36)):
            inst = _pin_instance(rng, kind, n, 5, 0)
            exact._enumerated.cache_clear()
            outcomes = [_pin_outcome(inst), _pin_outcome(inst)]
            exact._enumerated.cache_clear()
            outcomes.append(_pin_outcome(inst))
            assert len(set(outcomes)) == 1

    def test_screens_match_a_full_evaluation(self, monkeypatch, request):
        # With generated (nonincreasing) weights both bounds screen.  Kernel
        # batches of 7 rows let them screen all but the first 7 solutions;
        # the reference evaluates every solution and takes the first minimum.
        # The cache is cleared on both sides, so no 7-row entry is used here
        # from before or leaks into a later test.
        monkeypatch.setattr(exact, "BLOCK_ROWS", 7)
        exact._enumerated.cache_clear()
        request.addfinalizer(exact._enumerated.cache_clear)
        rng = np.random.RandomState(23)
        for i in range(90):
            if i % 3 < 2:
                n = rng.randint(8, 15)
                kind = Selection(q=rng.randint(1, n // 2 + 1))
            else:
                m = rng.randint(2, 7)
                kind, n = Assignment(m=m), m * m
            k = (1, 2, 5, 10)[i % 4]
            numer = rng.randint(1, 101, size=k)
            costs = _pin_costs(rng, (k, n), i % 2)  # every other instance tie-heavy 0..3
            inst = ScenarioInstance(costs, numer / numer.sum(),
                                    generate_weights(10.0 ** rng.uniform(-4, -0.5), k), kind)
            rows = np.vstack(kind.enumerate(n))
            values = wowa_batch(costs[:, rows].sum(axis=2), inst.v, inst.p)
            best = int(np.argmin(values))
            res = brute_force(inst)
            assert (res.objective.hex(), res.solution.chosen) == (
                values[best].hex(), tuple(rows[best].tolist())), i


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
# direction warm-started from the parent, with the kind's fw_steps per node
# (6 for selection, 3 for assignment), of reduced-cost fixing of selection
# elements and assignment edges and of bounding up to 16 open nodes per batch.
_BB_PINS = [
    ("selection", 20, 5, 1e-2, 700, 57, "0x1.3ddfabfcd6dc1p+7"),
    ("selection", 20, 5, 1e-4, 701, 17, "0x1.a80c231152dddp+7"),
    ("selection", 20, 10, 1e-2, 702, 31, "0x1.0500d5cdbf7d8p+8"),
    ("selection", 20, 10, 1e-4, 703, 145, "0x1.f6bca22120762p+7"),
    ("assignment", 6, 5, 1e-2, 704, 13, "0x1.b4abadfd44fa3p+7"),
    ("assignment", 6, 5, 1e-4, 705, 17, "0x1.02df2c1fc6b0ep+8"),
    ("assignment", 6, 10, 1e-2, 706, 9, "0x1.180b5902ee69cp+8"),
    ("assignment", 6, 10, 1e-4, 707, 41, "0x1.19e55f7228376p+8"),
]


def _grid_digest(results) -> str:
    text = "".join(res.objective.hex() + repr(res.solution.chosen) for res in results)
    return hashlib.sha256(text.encode()).hexdigest()


def _tie_heavy_assignment(rng, m: int) -> ScenarioInstance:
    # costs 0..2 tie many matchings under every weight vector
    k = rng.randint(2, 6)
    numer = rng.randint(1, 101, size=k)
    return ScenarioInstance(
        rng.randint(0, 3, size=(k, m * m)).astype(float), numer / numer.sum(),
        generate_weights(10.0 ** rng.uniform(-4, -0.5), k), Assignment(m=m),
    )


def _child(node, fix: PartialFixing):
    # a node with the given fixing that continues from node's final state, as
    # exact_bb pushes it
    return exact._Node(fix, node.w, node.avg, node.last)


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

    def test_desk_scale_assignment_is_pinned(self):
        # the 60 assignment m=8 instances of the desk-scale grid (seed 2) in
        # grid order: sha256 of each optimum's objective.hex() and chosen
        # edges, and the node total at 3 Frank-Wolfe steps per node
        results = [
            exact_bb(gen_instance("assignment", 8, k, alpha, instance_seed(2, "assignment", 8, k, alpha, i)))
            for k in (2, 5, 10) for alpha in (1e-2, 1e-4) for i in range(10)
        ]
        assert _grid_digest(results) == "7a2e9ea843e6deee68b6660880c8b35196c9c605df0a01e0df5b19a274a34f8b"
        assert sum(res.node_count for res in results) == 3934

    def test_desk_scale_selection_is_pinned(self):
        # the 60 selection n=40, q=10 instances of the desk-scale grid (seed
        # 2), pinned as the assignment cells are, at 6 Frank-Wolfe steps
        results = [
            exact_bb(gen_instance("selection", 40, k, alpha, instance_seed(2, "selection", 40, k, alpha, i), q=10))
            for k in (2, 5, 10) for alpha in (1e-2, 1e-4) for i in range(10)
        ]
        assert _grid_digest(results) == "29198345b4ed1c46c9e4ef73bdf367ab580b42962b4142113a7f05a9be560fb1"
        assert sum(res.node_count for res in results) == 8440

    def test_scale_assignment_is_pinned(self):
        # the four assignment m=10, K=10, alpha=1e-4 instances of the scale
        # grid (seed 2), pinned as the desk cells are
        results = [exact_bb(gen_instance("assignment", 10, 10, 1e-4, instance_seed(2, "assignment", 10, 10, 1e-4, i)))
                   for i in range(4)]
        assert _grid_digest(results) == "b931da08b5799f4a6683305e676b8bab4b35b5ee756d6263a8e504d268ea555f"
        assert sum(res.node_count for res in results) == 5004

    def test_scale_selection_is_pinned(self):
        # the four selection n=60 (q=15), K=10, alpha=1e-4 instances of the
        # scale grid (seed 2), pinned as the desk cells are
        results = [exact_bb(gen_instance("selection", 60, 10, 1e-4, instance_seed(2, "selection", 60, 10, 1e-4, i)))
                   for i in range(4)]
        assert _grid_digest(results) == "ab0b565bcf76549be96a4e38e0dfe9bc40a8cc1538bf614935320ab01410d607"
        assert sum(res.node_count for res in results) == 12544

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
            assert res.lower_bound == res.objective

    def test_time_limit_returns_incumbent(self):
        rng = np.random.RandomState(9)
        inst = random_instance(rng, "selection", 30, 8, q=8, alpha_range=(-4.0, -3.5))
        res = exact_bb(inst, time_limit=1e-9)  # spent by the incumbent heuristic
        assert res.proof_status == "time_limit"
        assert res.objective == wowa_value(inst, res.solution)
        assert res.lower_bound == -np.inf  # the root was never bounded

    def test_time_limit_reports_the_least_open_bound(self, monkeypatch):
        # a clock that advances one second per reading stops the search
        # after a few batches, with nodes bounded and nodes still open
        from wowaopt import exact

        inst = gen_instance("assignment", 6, 10, 1e-4, 707)
        optimum = exact_bb(inst).objective
        ticks = itertools.count()
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        res = exact_bb(inst, time_limit=4.5)
        assert res.proof_status == "time_limit" and res.node_count > 1
        assert -np.inf < res.lower_bound <= optimum <= res.objective

    @pytest.mark.parametrize("limit", [float("nan"), 0.0, -5.0, -float("inf"), True])  # True is not 1 s
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

    def test_explicit_kind_matches_brute_force_past_the_root(self):
        # below the root an explicit kind's fixings leave some rows without a
        # completion, through the default solve_rows and reduced_fixing hooks
        rng = np.random.RandomState(5)
        branched = 0
        for i in range(200):
            n, k = rng.randint(4, 10), rng.randint(2, 6)
            numer = rng.randint(1, 101, size=k)
            inst = ScenarioInstance(rng.randint(0, 101, size=(k, n)).astype(float), numer / numer.sum(),
                                    generate_weights(1e-2, k),
                                    Explicit(_explicit_solutions(rng, n, rng.randint(1, 30), 0)))
            res = exact_bb(inst)
            assert res.objective.hex() == brute_force(inst).objective.hex(), i
            branched += res.node_count > 1
        assert branched >= 50

    def test_node_bound_below_subtree_minimum(self):
        # validity of the relaxation: bound(fix) <= min WOWA over completions
        rng = np.random.RandomState(10)
        for _ in range(40):
            inst = random_instance(rng, "selection", 8, rng.randint(2, 6), q=3)
            ctx = exact._BBContext(inst)
            e1, e2 = rng.choice(8, size=2, replace=False).tolist()
            node = exact._Node(PartialFixing(frozenset({e1}), frozenset({e2})), ctx.p)
            ctx.node_bounds([node], np.inf)
            completions = [
                wowa_value(inst, Solution((e1,) + rest))
                for rest in itertools.combinations(
                    [i for i in range(8) if i not in (e1, e2)], 2
                )
            ]
            assert node.bound <= min(completions) + TOL
            # a child warm-started from that state still gets a valid bound,
            # bounded in one batch with its sibling
            e3 = int(rng.choice([i for i in range(8) if i not in (e1, e2)]))
            child = _child(node, PartialFixing(node.fix.forced_in | {e3}, node.fix.forced_out))
            sibling = _child(node, PartialFixing(node.fix.forced_in, node.fix.forced_out | {e3}))
            ctx.node_bounds([child, sibling], np.inf)
            child_completions = [
                wowa_value(inst, Solution((e1, e3) + rest))
                for rest in itertools.combinations(
                    [i for i in range(8) if i not in (e1, e2, e3)], 1
                )
            ]
            assert child.bound <= min(child_completions) + TOL
            assert np.all(child.w >= 0.0)
            assert abs(child.w.sum() - 1.0) <= SUM_TOL

    def test_child_reuses_its_parents_last_solve(self, monkeypatch):
        # the child whose fixing admits the parent's last completion takes that
        # solve as its first and makes one base solve fewer than its sibling
        fixings = []
        solve_rows = Selection.solve_rows

        def counting_rows(kind, costs, fixes):
            fixings.extend(fixes)
            return solve_rows(kind, costs, fixes)

        monkeypatch.setattr(Selection, "solve_rows", counting_rows)
        rng = np.random.RandomState(13)
        for _ in range(40):
            inst = random_instance(rng, "selection", 10, rng.randint(2, 6), q=3)
            ctx = exact._BBContext(inst)
            root = exact._Node(PartialFixing(), ctx.p)
            ctx.node_bounds([root], np.inf)
            last, last_value, _, _ = root.last
            e = int(rng.randint(10))
            forced_in, forced_out = PartialFixing({e}, ()), PartialFixing((), {e})
            admitting = forced_in if e in last.chosen else forced_out
            # for selection the reused solve is the one the child would make, to the bit
            sol, value = solve_with_costs(inst.kind, root.w @ ctx.C, admitting)
            assert (sol, value.hex()) == (last, last_value.hex())
            fixings.clear()
            ctx.node_bounds([_child(root, forced_in), _child(root, forced_out)], np.inf)
            for child in (forced_in, forced_out):
                assert sum(f is child for f in fixings) == inst.kind.fw_steps - (child is admitting)

    def test_reused_solve_bounds_tie_heavy_assignment_children(self):
        # On 0-2 costs the Hungarian may return another of the tied matchings
        # than the reused one; every bound down to depth 3 must still hold.
        # Each level of the tree is bounded in one batch.
        m = 5
        matchings = [Solution([r * m + c for r, c in enumerate(perm)])
                     for perm in itertools.permutations(range(m))]
        rng = np.random.RandomState(14)
        other_tie = 0
        for _ in range(40):
            inst = _tie_heavy_assignment(rng, m)
            values = [(set(sol.chosen), wowa_value(inst, sol)) for sol in matchings]
            ctx = exact._BBContext(inst)
            level = [exact._Node(PartialFixing(), ctx.p)]
            while level:
                warm = [(node.w, node.last) for node in level]  # what each node continues from
                ctx.node_bounds(level, np.inf)
                children = []
                for node, (w, last) in zip(level, warm):
                    fix = node.fix
                    assert node.attained is not None
                    assert node.bound <= min(
                        value for chosen, value in values
                        if fix.forced_in <= chosen and not fix.forced_out & chosen
                    ) + TOL
                    if last is not None:
                        last_sol, *_ = last
                        if (fix.forced_in <= set(last_sol.chosen)
                                and not fix.forced_out & set(last_sol.chosen)):
                            other_tie += solve_with_costs(inst.kind, w @ ctx.C, fix)[0] != last_sol
                    sol, *_ = node.attained
                    e = ctx.branch_element(fix, sol)
                    if e is not None and len(fix.forced_in) + len(fix.forced_out) < 3:
                        children.append(_child(node, PartialFixing(fix.forced_in | {e}, fix.forced_out)))
                        children.append(_child(node, PartialFixing(fix.forced_in, fix.forced_out | {e})))
                level = children
        assert other_tie > 0  # the case the test is for did occur

    def test_node_bounds_are_lockstep_invariant(self):
        # Each node of a batch gets, to the bit, the bound, attaining solve,
        # carried duals and warm state that it gets alone on a fresh search;
        # the batch meets the completions that the nodes meet alone.  Batches
        # mix warm and cold nodes, children that reuse their parent's last
        # solve (and its duals), fixings without completion, and targets that
        # stop nodes at different steps.
        def bits(a):
            return None if a is None else np.asarray(a).tobytes()

        def duals_bits(duals):
            # an assignment solve's (free rows, free columns, u, v); None for selection
            return None if duals is None else (*duals[:2], *([x.hex() for x in d] for d in duals[2:]))

        def solve_bits(solved):
            if solved is None:
                return None
            sol, value, duals, costs = solved
            return sol, value.hex(), duals_bits(duals), bits(costs)

        def outcome(node):
            return (node.bound.hex(), solve_bits(node.attained), bits(node.w), bits(node.avg),
                    solve_bits(node.last))

        def met(new):
            return {sol.chosen: bits(costs) for sol, costs in new}

        rng = np.random.RandomState(17)
        cases = 0
        for trial in range(60):
            kind = ("selection", "assignment")[trial % 2]
            inst = random_instance(rng, kind, 12 if kind == "selection" else 4,
                                   rng.randint(1, 8), q=rng.randint(2, 6))
            ctx = exact._BBContext(inst)
            elements = rng.permutation(inst.n).tolist()
            parents = [PartialFixing(elements[:j], elements[j:j + 2]) for j in range(3)]
            parents = [exact._Node(fix, ctx.p) for fix in parents if inst.kind.free_elements(fix, inst.n)]
            ctx.node_bounds(parents, np.inf)
            specs = []  # (fixing, the parent whose final state it continues from, or None)
            for parent in parents:
                if parent.attained is None:
                    continue
                fix, (last, *_) = parent.fix, parent.last
                for e in rng.choice(sorted(inst.kind.free_elements(fix, inst.n)), size=2):
                    e = int(e)
                    specs += [(PartialFixing(fix.forced_in | {e}, fix.forced_out), parent),
                              (PartialFixing(fix.forced_in, fix.forced_out | {e}),
                               parent if e in last.chosen or rng.randint(2) else None)]
            # a fixing without completion: too many forced in, or a row forced out
            if kind == "selection":
                specs.append((PartialFixing(range(inst.kind.q + 1), ()), None))
            else:
                specs.append((PartialFixing((), range(inst.kind.m)), None))
            specs = [specs[i] for i in rng.permutation(len(specs))]

            def batch():
                return [exact._Node(fix, ctx.p) if parent is None else _child(parent, fix)
                        for fix, parent in specs]

            def alone(target):
                nodes, new = batch(), []
                for node in nodes:
                    new += exact._BBContext(inst).node_bounds([node], target)
                return nodes, new

            single, single_new = alone(np.inf)
            # stop some nodes early: a target among the nodes' own bounds
            if trial % 3 > 0:
                target = float(np.median([node.bound for node in single if node.attained is not None]))
                single, single_new = alone(target)
            else:
                target = np.inf
            together = batch()
            new = exact._BBContext(inst).node_bounds(together, target)
            assert [outcome(node) for node in together] == [outcome(node) for node in single]
            assert len(met(new)) == len(new)  # each completion once
            assert met(new) == met(single_new)
            cases += sum(node.attained is None for node in together)
        assert cases >= 60  # every batch held a fixing without completion

    def test_matches_brute_force_on_tie_heavy_assignment(self):
        rng = np.random.RandomState(15)
        for i in range(40):
            inst = _tie_heavy_assignment(rng, 5)
            assert exact_bb(inst).objective == brute_force(inst).objective, i
