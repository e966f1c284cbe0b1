import copy
import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import PATHS_COSTS, PATHS_P, PATHS_FEASIBLE, PATHS_V
from oracles import ref_wowa
from test_mip import _pinned_lp_instances
from wowaopt import (
    Assignment,
    Explicit,
    FeasibilityError,
    InstanceFormatError,
    PartialFixing,
    ScenarioInstance,
    Selection,
    Solution,
    WeightVector,
    check_feasible,
    gen_instance,
    generate_weights,
    is_feasible,
    read_instance,
    read_solution,
    remove_zero_scenarios,
    scenario_cost,
    scenario_costs,
    wowa_value,
    write_instance,
    write_solution,
)

TOL = 1e-9


class TestSolution:
    def test_sorted_and_deduplicated(self):
        assert Solution([3, 1, 2]).chosen == (1, 2, 3)
        with pytest.raises(ValueError):
            Solution([1, 1, 2])

    def test_rejects_non_integer_indices(self):
        # a float or bool index is not truncated or read as 0/1; numpy integers
        # and generators are accepted
        for chosen in ([1.5, 2], [True, 2], [2.0, 1], ["1"]):
            with pytest.raises(ValueError, match="must be integers"):
                Solution(chosen)
        assert Solution(np.array([3, 1], dtype=np.int8)).chosen == (1, 3)
        assert Solution(i for i in (2, 0)).chosen == (0, 2)

    def test_assignment_pair_decoding(self):
        sol = Solution([1, 2])  # (0,1) and (1,0) for m=2
        assert sol.as_pairs(2) == ((0, 1), (1, 0))


class TestScenarioCost:
    def test_paths_path1_scenario1(self, paths_instance):
        assert scenario_cost(paths_instance, Solution([0, 3]), 0) == pytest.approx(10.0, abs=TOL)

    def test_paths_path2_scenario4(self, paths_instance):
        assert scenario_cost(paths_instance, Solution([0, 2, 4]), 3) == pytest.approx(8.0, abs=TOL)

    def test_empty_solution_unchecked(self, paths_instance):
        assert scenario_costs(paths_instance, Solution([]), check=False).tolist() == [0.0] * 4

    def test_scenario_index_out_of_range(self, paths_instance):
        with pytest.raises(ValueError):
            scenario_cost(paths_instance, Solution([0, 3]), 4)

    def test_infeasible_solution_raises(self, paths_instance):
        with pytest.raises(FeasibilityError):
            scenario_cost(paths_instance, Solution([0, 1]), 0)


class TestWowaValue:
    def test_paths_values(self, paths_instance):
        assert wowa_value(paths_instance, Solution([0, 3])) == pytest.approx(8.28, abs=TOL)
        assert wowa_value(paths_instance, Solution([0, 2, 4])) == pytest.approx(6.32, abs=TOL)

    def test_constant_cost_path_for_any_weights(self, paths_instance):
        rng = np.random.RandomState(0)
        for _ in range(20):
            v = rng.random(4) + 0.01
            p = rng.random(4) + 0.01
            inst = ScenarioInstance(PATHS_COSTS, p / p.sum(), v / v.sum(), Explicit(PATHS_FEASIBLE))
            assert wowa_value(inst, Solution([1, 4])) == pytest.approx(6.0, abs=TOL)

    def test_scenario_permutation_invariance(self):
        rng = np.random.RandomState(1)
        for _ in range(50):
            k, n, q = rng.randint(2, 8), rng.randint(2, 9), 2
            q = min(q, n)
            costs = rng.randint(0, 50, size=(k, n)).astype(float)
            p = rng.random(k) + 0.01
            p /= p.sum()
            v = np.sort(rng.random(k) + 0.01)[::-1]
            v /= v.sum()
            sol = Solution(rng.choice(n, size=q, replace=False).tolist())
            perm = rng.permutation(k)
            a = ScenarioInstance(costs, p, v, Selection(q=q))
            b = ScenarioInstance(costs[perm], p[perm], v, Selection(q=q))
            assert wowa_value(a, sol) == pytest.approx(wowa_value(b, sol), abs=TOL)

    def test_positive_homogeneity(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            k, n = rng.randint(1, 7), rng.randint(2, 8)
            costs = rng.randint(0, 50, size=(k, n)).astype(float)
            p = rng.random(k) + 0.01
            p /= p.sum()
            v = rng.random(k) + 0.01
            v /= v.sum()
            lam = float(rng.random() * 5 + 0.1)
            sol = Solution([0])
            a = ScenarioInstance(costs, p, v, Selection(q=1))
            b = ScenarioInstance(lam * costs, p, v, Selection(q=1))
            assert wowa_value(b, sol) == pytest.approx(lam * wowa_value(a, sol), rel=1e-12)

    def test_value_between_scenario_extremes(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            k, n = rng.randint(1, 8), rng.randint(3, 10)
            costs = rng.randint(0, 50, size=(k, n)).astype(float)
            p = rng.random(k) + 0.01
            v = rng.random(k) + 0.01
            inst = ScenarioInstance(costs, p / p.sum(), v / v.sum(), Selection(q=2))
            sol = Solution(rng.choice(n, size=2, replace=False).tolist())
            sc = scenario_costs(inst, sol)
            assert sc.min() - TOL <= wowa_value(inst, sol) <= sc.max() + TOL

    def test_matches_reference(self, paths_instance):
        for path in PATHS_FEASIBLE:
            a = scenario_costs(paths_instance, Solution(path)).tolist()
            assert wowa_value(paths_instance, Solution(path)) == pytest.approx(
                ref_wowa(a, PATHS_V, PATHS_P), abs=TOL
            )


class TestFeasibility:
    def test_selection(self):
        inst = ScenarioInstance([[1.0, 2.0, 3.0]], [1.0], [1.0], Selection(q=2))
        assert is_feasible(inst, Solution([0, 2]))
        assert not is_feasible(inst, Solution([0]))
        with pytest.raises(FeasibilityError, match=r"^element indices outside 0\.\.2$"):
            check_feasible(inst, Solution([0, 3]))

    def test_assignment_perfect_matching(self):
        inst = ScenarioInstance([[1.0] * 4], [1.0], [1.0], Assignment(m=2))
        assert is_feasible(inst, Solution([0, 3]))   # (0,0), (1,1)
        assert is_feasible(inst, Solution([1, 2]))   # (0,1), (1,0)
        assert not is_feasible(inst, Solution([0, 1]))  # row 0 twice
        with pytest.raises(FeasibilityError):
            check_feasible(inst, Solution([0, 1]))

    def test_explicit_membership(self, paths_instance):
        assert is_feasible(paths_instance, Solution([1, 4]))
        assert not is_feasible(paths_instance, Solution([0, 4]))


def _problems(costs, p, v, kind) -> list[str]:
    # the violations one construction reports, in order
    with pytest.raises(InstanceFormatError) as exc:
        ScenarioInstance(costs, p, v, kind)
    return str(exc.value).split("; ")


class TestConstructionErrors:
    def test_well_formed(self, paths_instance):
        inst = paths_instance
        assert ScenarioInstance(inst.costs, inst.p, inst.v, inst.kind) == inst

    def test_probabilities_not_summing(self):
        problems = _problems([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.4], [0.5, 0.5], Selection(q=1))
        assert len(problems) == 1 and problems[0].startswith("p:")

    def test_nan_probabilities(self):
        problems = _problems([[1.0, 2.0], [3.0, 4.0]], [np.nan, np.nan], [0.5, 0.5],
                             Selection(q=1))
        assert len(problems) == 1 and problems[0].startswith("p:")

    @pytest.mark.parametrize("p", [0.5, ["a", "b"], ["0.5", "0.5"]],
                             ids=["scalar", "strings", "digit-strings"])
    def test_unparsable_probabilities_are_typed(self, p):
        problems = _problems([[1.0, 2.0], [3.0, 4.0]], p, [0.5, 0.5], Selection(q=1))
        assert [msg for msg in problems if not msg.startswith("p:")] == []

    def test_weight_rule_is_the_weight_vectors(self):
        # within SUM_TOL of [0, 1]: WeightVector accepts and clips these
        v = [1.0 + 5e-10, -5e-10]
        assert WeightVector(v).values == (1.0, 0.0)
        costs = [[1.0, 2.0], [3.0, 4.0]]
        assert ScenarioInstance(costs, [0.5, 0.5], v, Selection(q=1)).v.values == (1.0, 0.0)

    def test_assignment_needs_square(self):
        problems = _problems(np.ones((2, 10)), [0.5, 0.5], [0.5, 0.5], Assignment(m=3))
        assert len(problems) == 1 and problems[0].startswith("kind:")

    def test_negative_costs(self):
        problems = _problems([[-1.0, 2.0]], [1.0], [1.0], Selection(q=1))
        assert any(msg.startswith("costs:") for msg in problems)

    def test_every_violation_in_one_error(self):
        problems = _problems([[-1.0, 2.0], [3.0, 4.0]], [0.5, 0.4, 0.2], [0.5, 0.5],
                             Selection(q=3))
        assert problems == [
            "costs: negative entries are not allowed",
            "p: has 3 entries, expected K=2",
            "p: probabilities must sum to 1, got 1.1",
            "kind: selection size q=3 outside 1..2",
        ]

    @pytest.mark.parametrize("kind, n", [(Selection(q=2.5), 4), (Selection(q=True), 4),
                                         (Assignment(m=2.0), 4), (Assignment(m=False), 4)],
                             ids=["q-float", "q-bool", "m-float", "m-bool"])
    def test_kind_size_must_be_an_integer(self, kind, n):
        problems = _problems(np.ones((1, n)), [1.0], [1.0], kind)
        assert len(problems) == 1 and problems[0].startswith("kind:")
        assert "not an integer" in problems[0]

    @pytest.mark.parametrize("kind", [Selection(q=np.int64(2)), Assignment(m=np.int32(2))],
                             ids=["q", "m"])
    def test_numpy_integer_kind_sizes_accepted(self, kind):
        inst = ScenarioInstance(np.ones((1, 4)), [1.0], [1.0], kind)
        assert read_instance(write_instance(inst)) == inst

    @pytest.mark.parametrize("costs, message", [
        ([[1.0], [1.0, 2.0]], "costs: must be a K-by-n matrix"),
        ([1.0, 2.0], "costs: must be a K-by-n matrix"),
        ("ab", "costs: must be a K-by-n matrix"),
        ([["a"]], "costs: expected a number, got 'a'"),
        ([["3"]], "costs: expected a number, got '3'"),
        ([[None]], "costs: expected a number, got None"),
        ([[True]], "costs: expected a number, got True"),
        ([[1.0, False]], "costs: expected a number, got False"),
        (np.ones((1, 2), dtype=bool), "costs: expected a number, got "),
        ([[1.0, np.nan]], "costs: non-finite entries"),
        (np.ones((0, 2)), "K: need at least one scenario"),
        (np.ones((1, 0)), "n: need at least one element"),
    ], ids=["ragged", "vector", "string", "letter", "digit-string", "none", "bool",
            "bool-among-floats", "bool-array", "non-finite", "no-scenario", "no-element"])
    def test_costs_must_be_a_matrix_of_numbers(self, costs, message):
        with pytest.raises(InstanceFormatError) as exc:
            ScenarioInstance(costs, [1.0], [1.0], Selection(q=1))
        assert str(exc.value).startswith(message)

    def test_numpy_scalars_are_costs(self):
        inst = ScenarioInstance([[np.float32(1.5), np.int64(2)]], [1.0], [1.0], Selection(q=1))
        assert inst.costs.tolist() == [[1.5, 2.0]]

    def test_explicit_solution_with_a_repeated_element(self):
        problems = _problems(np.ones((1, 3)), [1.0], [1.0], Explicit(((0, 0), (1, 2), (2, 2))))
        assert problems == ["kind: explicit solution 0 repeats an element",
                            "kind: explicit solution 2 repeats an element"]


class TestRemoveZeroScenarios:
    def test_drops_and_renormalizes(self):
        p, costs = remove_zero_scenarios([0.5, 0.0, 0.5], [[1, 2], [3, 4], [5, 6]])
        assert p.tolist() == [0.5, 0.5]
        assert costs.tolist() == [[1, 2], [5, 6]]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            remove_zero_scenarios([0.0, 0.0], [[1, 2], [3, 4]])

    @pytest.mark.parametrize("p, costs, message", [
        ([0.5, 0.5], [[1, 2]], r"^costs: has 1 rows, expected one per entry of p \(2\)$"),
        ([1.5, -0.5], [[1, 2], [3, 4]], r"^p: probabilities must be nonnegative$"),
    ], ids=["rows", "negative"])
    def test_errors_name_the_argument(self, p, costs, message):
        with pytest.raises(ValueError, match=message):
            remove_zero_scenarios(p, costs)

    @pytest.mark.parametrize("p", [[0.5, float("nan"), 0.5], [float("inf"), 1.0],
                                   [1.0, float("-inf")]], ids=["nan", "inf", "minus-inf"])
    def test_rejects_non_finite_probabilities(self, p):
        with pytest.raises(ValueError, match="finite"):
            remove_zero_scenarios(p, [[1, 2]] * len(p))


class TestSerialization:
    def test_minimal_selection_round_trip(self):
        inst = ScenarioInstance([[1.0, 2.0]], [1.0], [1.0], Selection(q=1))
        again = read_instance(write_instance(inst))
        assert again == inst

    def test_paths_round_trip_preserves_values(self, paths_instance):
        again = read_instance(write_instance(paths_instance))
        assert again == paths_instance
        for path in PATHS_FEASIBLE:
            assert wowa_value(again, Solution(path)) == wowa_value(paths_instance, Solution(path))

    def test_missing_field_named(self, paths_instance):
        import json

        doc = json.loads(write_instance(paths_instance))
        del doc["p"]
        with pytest.raises(InstanceFormatError, match="'p'"):
            read_instance(json.dumps(doc))

    def test_bad_json_reports_line(self):
        with pytest.raises(InstanceFormatError, match="line"):
            read_instance("{\n  broken\n}")

    def test_wrong_format_version(self, paths_instance):
        text = write_instance(paths_instance).replace('"format": 1', '"format": 99')
        with pytest.raises(InstanceFormatError, match="format"):
            read_instance(text)

    @pytest.mark.parametrize("kind, message", [
        ({"selection": {"q": 1}, "assignment": {"m": 1}}, "^kind must be an object with exactly one of "),
        ({"tree": {}}, "^unknown problem kind 'tree'$"),
    ], ids=["two-tags", "unknown-tag"])
    def test_kind_needs_exactly_one_known_tag(self, kind, message):
        with pytest.raises(InstanceFormatError, match=message):
            read_instance(json.dumps({**_SELECTION_DOC, "kind": kind}))

    def test_costs_shape_mismatch(self):
        text = (
            '{"format": 1, "n": 3, "K": 1, "kind": {"selection": {"q": 1}}, '
            '"p": [1.0], "v": [1.0], "costs": [[1.0, 2.0]]}'
        )
        with pytest.raises(InstanceFormatError, match="costs"):
            read_instance(text)

    def test_solution_round_trip(self):
        sol = Solution([4, 0, 2])
        assert read_solution(write_solution(sol)) == sol

    def test_solution_requires_format(self):
        with pytest.raises(InstanceFormatError, match="JSON object"):
            read_solution("[1, 2, 3]")
        with pytest.raises(InstanceFormatError, match="format"):
            read_solution('{"chosen": [1, 2, 3]}')

    def test_assignment_kind_round_trip(self):
        inst = ScenarioInstance(np.arange(8.0).reshape(2, 4), [0.5, 0.5], [0.6, 0.4],
                                Assignment(m=2))
        assert read_instance(write_instance(inst)) == inst

    def test_explicit_kind_round_trip(self, paths_instance):
        assert read_instance(write_instance(paths_instance)).kind == paths_instance.kind


_SELECTION_DOC = {"format": 1, "n": 3, "K": 1, "kind": {"selection": {"q": 2}},
                  "p": [1.0], "v": [1.0], "costs": [[1.0, 2.0, 3.0]]}
_ASSIGNMENT_DOC = {**_SELECTION_DOC, "n": 4, "kind": {"assignment": {"m": 2}},
                   "costs": [[1.0, 2.0, 3.0, 4.0]]}
_EXPLICIT_DOC = {**_SELECTION_DOC, "kind": {"explicit": {"solutions": [[0, 2], [1]]}}}
_SOLUTION_DOC = {"format": 1, "chosen": [0, 2]}

# (field named in the error, reader, valid document, path to one integer in it)
_INTEGER_FIELDS = [
    ("format", read_instance, _SELECTION_DOC, ("format",)),
    ("n", read_instance, _SELECTION_DOC, ("n",)),
    ("K", read_instance, _SELECTION_DOC, ("K",)),
    ("kind.selection.q", read_instance, _SELECTION_DOC, ("kind", "selection", "q")),
    ("kind.assignment.m", read_instance, _ASSIGNMENT_DOC, ("kind", "assignment", "m")),
    ("kind.explicit.solutions", read_instance, _EXPLICIT_DOC,
     ("kind", "explicit", "solutions", 0, 1)),
    ("format", read_solution, _SOLUTION_DOC, ("format",)),
    ("chosen", read_solution, _SOLUTION_DOC, ("chosen", 1)),
]


@pytest.mark.parametrize("bad", [2.0, 2.9, True, "2"], ids=["2.0", "2.9", "true", "string"])
@pytest.mark.parametrize("field, reader, doc, path", _INTEGER_FIELDS,
                         ids=[f"{r.__name__}:{f}" for f, r, _, _ in _INTEGER_FIELDS])
def test_integer_fields_must_be_json_integers(field, reader, doc, path, bad):
    reader(json.dumps(doc))  # the unmodified document is valid
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(InstanceFormatError, match=rf"^{re.escape(field)}: expected a JSON integer"):
        reader(json.dumps(doc))


@pytest.mark.parametrize("bad", ["1.0", True, None], ids=["string", "true", "null"])
@pytest.mark.parametrize("field, path", [("p", ("p", 0)), ("v", ("v", 0)),
                                         ("costs", ("costs", 0, 1))], ids=["p", "v", "costs"])
def test_float_fields_must_be_json_numbers(field, path, bad):
    doc = copy.deepcopy(_SELECTION_DOC)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(InstanceFormatError, match=rf"^{field}: expected a JSON number"):
        read_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "kind, n",
    [(Selection(q=3), 7), (Assignment(m=4), 16), (Explicit(PATHS_FEASIBLE), 5)],
    ids=["selection", "assignment", "explicit"],
)
def test_kind_methods_agree_with_enumeration(kind, n):
    inst = ScenarioInstance(np.zeros((1, n)), [1.0], [1.0], kind)
    feasible = [tuple(row) for block in kind.enumerate(n) for row in block.tolist()]
    assert len(feasible) == kind.size(n) == len(set(feasible))
    for sol in feasible:
        check_feasible(inst, Solution(sol))
    rng = np.random.RandomState(11)
    for _ in range(200):
        costs = rng.randint(0, 20, size=n).astype(float)
        order = rng.permutation(n).tolist()
        n_in, n_out = rng.randint(0, 5, size=2)
        fix = PartialFixing(order[:n_in], order[n_in:n_in + n_out])
        compatible = [s for s in feasible
                      if fix.forced_in <= set(s) and not fix.forced_out & set(s)]
        if not kind.free_elements(fix, n):
            assert len(compatible) <= 1
        if not compatible:
            with pytest.raises(FeasibilityError):
                kind.solve(costs, fix)
            continue
        sol, value = kind.solve(costs, fix)
        assert sol.chosen in compatible
        assert value == costs[list(sol.chosen)].sum()
        assert value == min(costs[list(s)].sum() for s in compatible)


def test_selection_reduced_fixing_prices_exactly():
    # Scenario costs 0-3 under weights in eighths give element costs whose
    # sums are exact, so completions tie often and a cutoff can equal a
    # completion's cost to the bit.  An element is fixed exactly when the
    # cheapest completion with it forced the other way costs >= cutoff; one
    # that cannot be forced the other way (the fixing admits one completion)
    # stays free.
    rng = np.random.RandomState(17)
    seen = {"no chosen free": 0, "no unchosen free": 0, "unchanged": 0, "in": 0, "out": 0}
    for _ in range(400):
        n, k = rng.randint(2, 11), rng.randint(1, 6)
        q = rng.randint(1, n + 1)
        kind = Selection(q=q)
        costs = rng.randint(0, 9, size=k) / 8.0 @ rng.randint(0, 4, size=(k, n)).astype(float)
        order = rng.permutation(n).tolist()
        n_in, n_out = rng.randint(0, q + 1), rng.randint(0, n - q + 1)
        fix = PartialFixing(order[:n_in], order[n_in:n_in + n_out])
        sol, z = kind.solve(costs, fix)
        compatible = [s for s in itertools.combinations(range(n), q)
                      if fix.forced_in <= set(s) and not fix.forced_out & set(s)]
        free = set(range(n)) - fix.forced_in - fix.forced_out
        price = {e: min((costs[list(s)].sum() for s in compatible
                         if (e in s) != (e in sol.chosen)), default=np.inf)
                 for e in free}
        finite = sorted({z} | {v for v in price.values() if v < np.inf})
        cutoffs = [z - 1] + finite + [(a + b) / 2 for a, b in zip(finite, finite[1:])] + [finite[-1] + 1]
        cutoff = cutoffs[rng.randint(len(cutoffs))]
        fixed = {e for e, v in price.items() if cutoff <= v < np.inf}
        got = kind.reduced_fixing(costs, fix, sol, z, cutoff, None)
        assert got == PartialFixing(fix.forced_in | (fixed & set(sol.chosen)),
                                    fix.forced_out | (fixed - set(sol.chosen)))
        if not fixed:
            assert got is fix
        seen["no chosen free"] += n_in == q
        seen["no unchosen free"] += n_out == n - q
        seen["unchanged"] += not fixed
        seen["in"] += bool(fixed & set(sol.chosen))
        seen["out"] += bool(fixed - set(sol.chosen))
    assert min(seen.values()) >= 10, seen


def test_assignment_reduced_fixing_is_sound():
    # Scenario costs 0-3 under weights in eighths keep the Hungarian's
    # potentials exact.  The duals certify the solve: feasible, tight on the
    # matched free edges, summing to their cost.  An edge is fixed out (in)
    # only when every completion with it in (out) costs at least the cutoff,
    # so the solved matching stays admissible.  Every other trial prices a
    # child with its parent's duals, as the search does when the child
    # reuses its parent's last solve.
    rng = np.random.RandomState(22)
    matchings = {m: [{r * m + c for r, c in enumerate(perm)} for perm in itertools.permutations(range(m))]
                 for m in range(1, 6)}
    seen = {"in": 0, "out": 0, "unfixed": 0, "parent duals": 0}
    for trial in range(400):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        kind = Assignment(m=m)
        costs = rng.randint(0, 9, size=k) / 8.0 @ rng.randint(0, 4, size=(k, m * m)).astype(float)
        # forced-in edges from one perfect matching, so that most fixings have a completion
        matching = sorted(matchings[m][rng.randint(len(matchings[m]))])
        order = rng.permutation(matching).tolist() + [e for e in rng.permutation(m * m).tolist()
                                                      if e not in matching]
        n_in, n_out = rng.randint(0, m), rng.randint(0, m * m // 2 + 1)
        fix = PartialFixing(order[:n_in], order[n_in:n_in + n_out])
        (solved,) = kind.solve_rows(costs[None], [fix])
        if solved is None:
            continue
        sol, z, duals = solved
        rows, cols, u, v = duals
        assert sol == kind.solve(costs, fix)[0]
        for i, ui in zip(rows, u):
            for j, vj in zip(cols, v):
                e = i * m + j
                if e in sol.chosen:
                    assert costs[e] == ui + vj
                elif e not in fix.forced_out:
                    assert costs[e] - ui - vj >= 0.0
        assert sum(u) + sum(v) == sum(costs[e] for e in sol.chosen if e not in fix.forced_in)
        node = fix
        free = sorted(kind.free_elements(fix, m * m))
        if trial % 2 and free:
            e = int(rng.choice(free))  # the child whose fixing admits sol
            node = (PartialFixing(fix.forced_in | {e}, fix.forced_out) if e in sol.chosen
                    else PartialFixing(fix.forced_in, fix.forced_out | {e}))
            seen["parent duals"] += 1
        compatible = [s for s in matchings[m] if node.forced_in <= s and not node.forced_out & s]
        price = {e: min((sum(costs[list(s)]) for s in compatible if (e in s) != (e in sol.chosen)),
                        default=np.inf)
                 for e in kind.free_elements(node, m * m)}
        finite = sorted({z} | {p for p in price.values() if p < np.inf})
        cutoffs = [z - 1] + finite + [(a + b) / 2 for a, b in zip(finite, finite[1:])] + [finite[-1] + 1]
        cutoff = cutoffs[rng.randint(len(cutoffs))]
        got = kind.reduced_fixing(costs, node, sol, z, cutoff, duals)
        fixed_in, fixed_out = got.forced_in - node.forced_in, got.forced_out - node.forced_out
        assert got.forced_in >= node.forced_in and got.forced_out >= node.forced_out
        assert fixed_in | fixed_out <= set(price)  # free edges only
        assert fixed_in <= set(sol.chosen) and not fixed_out & set(sol.chosen)
        assert all(price[e] >= cutoff for e in fixed_in | fixed_out)
        if not fixed_in and not fixed_out:
            assert got is node
        seen["in"] += bool(fixed_in)
        seen["out"] += bool(fixed_out)
        seen["unfixed"] += not fixed_in and not fixed_out
    assert min(seen.values()) >= 10, seen


def _enumerated(kind, n) -> list:
    arrays = kind.enumerate(n)
    assert isinstance(arrays, list)
    for array in arrays:
        assert array.ndim == 2 and array.dtype.kind == "i" and len(array) >= 1
    return arrays


@pytest.mark.parametrize("n, q", [(n, q) for n in range(1, 11) for q in range(1, n + 1)]
                         + [(14, 7), (16, 5), (24, 6)])
def test_selection_blocks_are_the_combinations_in_order(n, q):
    (rows,) = _enumerated(Selection(q=q), n)
    rows = rows.tolist()
    assert rows == [list(c) for c in itertools.combinations(range(n), q)]


@pytest.mark.parametrize("m", range(1, 9))
def test_assignment_blocks_are_the_permutations_in_order(m):
    (rows,) = _enumerated(Assignment(m=m), m * m)
    rows = rows.tolist()
    assert rows == [[r * m + perm[r] for r in range(m)]
                    for perm in itertools.permutations(range(m))]


def test_explicit_blocks_are_runs_of_equal_length_in_list_order():
    rng = np.random.RandomState(13)
    lengths = [3] * 5000 + [0, 0, 2, 4, 2, 0] + [1] * 2048 + [5, 5]
    solutions = tuple(tuple(rng.choice(9, size=k, replace=False).tolist()) for k in lengths)
    kind = Explicit(solutions)
    blocks = _enumerated(kind, 9)
    assert [b.shape for b in blocks] == [
        (5000, 3), (2, 0), (1, 2), (1, 4), (1, 2), (1, 0), (2048, 1), (2, 5),
    ]
    assert [tuple(row) for block in blocks for row in block.tolist()] == list(kind.solutions)


def test_instances_expose_immutable_costs(paths_instance):
    with pytest.raises(ValueError):
        paths_instance.costs[0, 0] = 99.0


# sha256 of write_instance at benchmark scale and for two pinned LP instances
# (fractional costs; K=1), recorded with the json.dumps(doc, indent=2) writer,
# so that no writer can change the file bytes unseen.
_WRITE_SHA256 = {
    "selection-5000": (lambda: gen_instance("selection", 5000, 10, 1e-2, 7),
                       "57169c15a1e3d52ba468a54af9a665453dc85200c28428b700b9d88f6dce40fd"),
    "assignment-60": (lambda: gen_instance("assignment", 60, 10, 1e-4, 7),
                      "c1f66a32e659a62cea0b7e4346699726329786bf08f28e22a1f1c74d2c8f11c6"),
    "explicit": (lambda: _pinned_lp_instances()["explicit"],
                 "514e8e32eb677a265957e32a14c3427f3447c7e8a9fbf38677a7118d9b1499ce"),
    "k1": (lambda: _pinned_lp_instances()["k1"],
           "fbe67c5b8f1413238d9980b2f930f03a19c6fb6a850fce00601733c4cd949303"),
}


@pytest.mark.parametrize("name", sorted(_WRITE_SHA256))
def test_write_instance_bytes_are_pinned(name):
    build, digest = _WRITE_SHA256[name]
    assert hashlib.sha256(write_instance(build()).encode()).hexdigest() == digest


def _dumps_reference(inst: ScenarioInstance) -> str:
    """The instance document as json.dumps(doc, indent=2) lays it out."""
    doc = {
        "format": 1,
        "n": inst.n,
        "K": inst.K,
        "kind": {inst.kind.tag: inst.kind.to_json()},
        "p": list(inst.p.values),
        "v": list(inst.v.values),
        "costs": [list(row) for row in inst.costs.tolist()],
    }
    return json.dumps(doc, indent=2) + "\n"


_EDGE_COSTS = [0.0, -0.0, 5e-324, 0.1, 1.0, 1e15, 1e16, 1e22, 123456.789]


@st.composite
def _instances(draw):
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["selection", "assignment", "explicit"]))
    n = m * m if kind == "assignment" else draw(st.integers(1, 12))
    cost = st.one_of(st.sampled_from(_EDGE_COSTS),
                     st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False))
    costs = draw(st.lists(st.lists(cost, min_size=n, max_size=n), min_size=k, max_size=k))
    numerators = draw(st.lists(st.integers(1, 100), min_size=k, max_size=k))
    p = [a / sum(numerators) for a in numerators]
    v = generate_weights(draw(st.floats(1e-6, 0.999)), k)
    if kind == "selection":
        problem = Selection(q=draw(st.integers(1, n)))
    elif kind == "assignment":
        problem = Assignment(m=m)
    else:
        problem = Explicit(tuple(draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            .map(lambda s: tuple(sorted(s))), min_size=1, max_size=4, unique=True))))
    return ScenarioInstance(costs, p, v, problem)


@settings(deadline=None)
@given(_instances())
def test_write_instance_equals_indented_json_dumps(inst):
    assert write_instance(inst) == _dumps_reference(inst)
    assert read_instance(write_instance(inst)) == inst
