import hashlib

import numpy as np
import pytest

from oracles import min_assignment_by_permutations, min_selection_by_subsets
from wowaopt import (
    FeasibilityError,
    PartialFixing,
    Selection,
    solve_assignment,
    solve_selection,
    solve_with_costs,
)


class TestPartialFixing:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            PartialFixing(frozenset({1}), frozenset({1, 2}))

    def test_defaults_empty(self):
        fix = PartialFixing()
        assert fix.forced_in == frozenset() and fix.forced_out == frozenset()


class TestSelection:
    def test_two_smallest(self):
        sol, obj = solve_selection([3, 1, 2], 2)
        assert sol.chosen == (1, 2) and obj == 3.0

    def test_full_set(self):
        sol, obj = solve_selection([3, 1, 2], 3)
        assert sol.chosen == (0, 1, 2) and obj == 6.0

    def test_forced_out(self):
        sol, obj = solve_selection([3, 1, 2], 1, PartialFixing(frozenset(), frozenset({1})))
        assert sol.chosen == (2,) and obj == 2.0

    def test_forced_in_kept(self):
        sol, obj = solve_selection([3, 1, 2], 2, PartialFixing(frozenset({0}), frozenset()))
        assert 0 in sol.chosen and obj == 4.0

    def test_tie_break_by_index(self):
        sol, _ = solve_selection([5, 5, 5, 5], 2)
        assert sol.chosen == (0, 1)

    def test_infeasible_fixing(self):
        with pytest.raises(FeasibilityError):
            solve_selection([1, 2, 3], 3, PartialFixing(frozenset(), frozenset({0})))
        with pytest.raises(FeasibilityError):
            solve_selection([1, 2, 3], 1, PartialFixing(frozenset({0, 1}), frozenset()))

    def test_optimal_vs_exhaustive(self):
        rng = np.random.RandomState(0)
        for _ in range(100):
            n = rng.randint(2, 16)
            q = rng.randint(1, n + 1)
            costs = rng.randint(0, 100, size=n).astype(float)
            _, obj = solve_selection(costs, q)
            assert obj == min_selection_by_subsets(costs.tolist(), q)

    def test_fixing_respected_and_monotone(self):
        rng = np.random.RandomState(1)
        for _ in range(100):
            n = rng.randint(3, 14)
            q = rng.randint(1, n)
            costs = rng.randint(0, 100, size=n).astype(float)
            pool = rng.permutation(n)
            fin = frozenset(pool[:1].tolist())
            fout = frozenset(pool[1 : 1 + min(2, n - q - 1)].tolist()) if n - q > 1 else frozenset()
            if len(fin) > q:
                continue
            fix = PartialFixing(fin, fout)
            sol, obj = solve_selection(costs, q, fix)
            assert fin <= set(sol.chosen)
            assert not (fout & set(sol.chosen))
            _, free_obj = solve_selection(costs, q)
            assert obj >= free_obj


class TestAssignment:
    def test_two_by_two(self):
        sol, obj = solve_assignment([[1, 2], [2, 4]])
        assert sol.chosen == (1, 2) and obj == 4.0  # edges (0,1) and (1,0)

    def test_diagonal_friendly(self):
        sol, obj = solve_assignment([[0, 9], [9, 0]])
        assert sol.chosen == (0, 3) and obj == 0.0

    def test_all_ones_tie_break_is_identity(self):
        sol, obj = solve_assignment(np.ones((3, 3)))
        assert sol.chosen == (0, 4, 8) and obj == 3.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            solve_assignment([[1, 2, 3], [4, 5, 6]])

    def test_matches_permutation_oracle(self):
        rng = np.random.RandomState(2)
        for _ in range(120):
            m = rng.randint(1, 8)
            cost = rng.randint(0, 100, size=(m, m)).astype(float)
            _, obj = solve_assignment(cost)
            oracle, _ = min_assignment_by_permutations(cost.tolist())
            assert obj == oracle

    def test_forced_in_edge(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0]])
        sol, obj = solve_assignment(cost, PartialFixing(frozenset({1}), frozenset()))
        assert sol.chosen == (1, 2) and obj == 18.0

    def test_forced_out_edge(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0]])
        sol, obj = solve_assignment(cost, PartialFixing(frozenset(), frozenset({0})))
        assert sol.chosen == (1, 2) and obj == 18.0

    def test_forced_out_edge_with_negative_costs(self):
        # a forced-out edge is never matched, whatever the signs of the costs
        cost = np.array([[-10.0, 10.0], [10.0, -10.0]])
        sol, obj = solve_assignment(cost, PartialFixing(frozenset(), frozenset({0})))
        assert sol.chosen == (1, 2) and obj == 20.0

    def test_non_extendable_fixing(self):
        cost = np.ones((2, 2))
        with pytest.raises(FeasibilityError):
            solve_assignment(cost, PartialFixing(frozenset(), frozenset({0, 1})))

    def test_conflicting_forced_in(self):
        with pytest.raises(FeasibilityError):
            solve_assignment(np.ones((2, 2)), PartialFixing(frozenset({0, 1}), frozenset()))

    @pytest.mark.parametrize("m", [10, 30, 100])
    def test_matches_scipy_linear_sum_assignment(self, m):
        pytest.importorskip("scipy")
        from scipy.optimize import linear_sum_assignment

        rng = np.random.RandomState(m)
        for _ in range(3):
            cost = rng.randint(0, 1000, size=(m, m)).astype(float)
            sol, obj = solve_assignment(cost)
            rows, cols = linear_sum_assignment(cost)
            assert obj == cost[rows, cols].sum()
            assert sorted(c for _, c in sol.as_pairs(m)) == list(range(m))

    def test_fixing_respected_and_monotone(self):
        rng = np.random.RandomState(3)
        for _ in range(60):
            m = rng.randint(2, 7)
            cost = rng.randint(0, 100, size=(m, m)).astype(float)
            edge = int(rng.randint(0, m * m))
            _, free_obj = solve_assignment(cost)
            sol, obj = solve_assignment(cost, PartialFixing(frozenset({edge}), frozenset()))
            assert edge in sol.chosen
            assert obj >= free_obj


class TestDispatcher:
    def test_selection_dispatch(self):
        sol, obj = solve_with_costs(Selection(q=1), [4.0, 2.0, 7.0])
        assert sol.chosen == (1,) and obj == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            solve_with_costs("nope", [1.0])


def _pin_costs(rng, size: int, style: int) -> np.ndarray:
    # integers in 0..100, tie-heavy integers in 0..3, fractions scaled by 10^U(-6, 6)
    if style == 0:
        return rng.randint(0, 101, size=size).astype(float)
    if style == 1:
        return rng.randint(0, 4, size=size).astype(float)
    return rng.random_sample(size) * 10.0 ** rng.uniform(-6, 6)


def _pin_fixing(rng, order: list, n_in: int, most_out: int) -> PartialFixing:
    # forced in: the first n_in of order; forced out: up to most_out of the rest
    n_out = rng.randint(0, most_out + 1)
    return PartialFixing(order[:n_in], order[n_in:n_in + n_out])


def _pin_outcome(solve, costs, fix) -> str:
    try:
        sol, value = solve(costs, fix)
    except FeasibilityError as exc:
        return str(exc)
    return repr((sol.chosen, value.hex()))


def _assignment_outcomes():
    rng = np.random.RandomState(2024)
    for i in range(4000):
        m = 1 + i % 8
        cost = _pin_costs(rng, m * m, i // 8 % 3).reshape(m, m)
        # edges of a random perfect matching first, so that forced-in edges
        # mostly form a partial matching; every tenth case may not
        matching = [r * m + c for r, c in enumerate(rng.permutation(m))]
        order = matching + [e for e in rng.permutation(m * m).tolist() if e not in matching]
        if i % 10 == 9:
            rng.shuffle(order)
        fix = _pin_fixing(rng, order, rng.randint(0, m), m * m // 2)
        yield _pin_outcome(solve_assignment, cost, fix)


def _selection_outcomes():
    rng = np.random.RandomState(2025)
    for i in range(2000):
        n = rng.randint(1, 41)
        q = rng.randint(1, n + 1)
        costs = _pin_costs(rng, n, i % 3)
        fix = _pin_fixing(rng, rng.permutation(n).tolist(), rng.randint(0, q + 2), n - q + 1)
        yield _pin_outcome(lambda c, f: solve_selection(c, q, f), costs, fix)


# sha256 over the outcomes of seeded (costs, fixing) pairs: (chosen, value.hex())
# or the FeasibilityError message.  The branch-and-bound's path depends on
# which of tied optima the base solvers return, so any change to their tie
# breaking or arithmetic shows here.
_SOLVER_PINS = {
    "assignment": (_assignment_outcomes,
                   "9e59c04679f7a3e4d5d62e0bab0477a5774d3a24770896bc2fbe4406820ccceb"),
    "selection": (_selection_outcomes,
                  "764d8244cbc5700799448b6a6cb061950a1ee655b52a284c5d61a94366114a09"),
}


@pytest.mark.parametrize("name", sorted(_SOLVER_PINS))
def test_base_solver_outcomes_are_pinned(name):
    outcomes, digest = _SOLVER_PINS[name]
    text = "\n".join(outcomes())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
