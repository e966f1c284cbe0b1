import copy
import json
import re

import numpy as np
import pytest

from conftest import PATHS_COSTS, PATHS_P, PATHS_FEASIBLE, PATHS_V
from oracles import ref_wowa
from wowaopt import (
    Assignment,
    Explicit,
    FeasibilityError,
    InstanceFormatError,
    PartialFixing,
    ScenarioInstance,
    Selection,
    Solution,
    check_feasible,
    is_feasible,
    read_instance,
    read_solution,
    remove_zero_scenarios,
    scenario_cost,
    scenario_costs,
    validate,
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

    def test_assignment_pair_decoding(self):
        sol = Solution([1, 2])  # (0,1) and (1,0) for m=2
        assert sol.as_pairs(2) == ((0, 1), (1, 0))


class TestScenarioCost:
    def test_paths_path1_scenario1(self, paths_instance):
        assert scenario_cost(paths_instance, Solution([0, 3]), 0) == pytest.approx(10.0, abs=TOL)

    def test_paths_path2_scenario4(self, paths_instance):
        assert scenario_cost(paths_instance, Solution([0, 2, 4]), 3) == pytest.approx(8.0, abs=TOL)

    def test_empty_solution_unchecked(self, paths_instance):
        assert scenario_cost(paths_instance, Solution([]), 0, check=False) == 0.0

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


class TestValidate:
    def test_well_formed(self, paths_instance):
        assert validate(paths_instance) == []

    def test_probabilities_not_summing(self):
        inst = ScenarioInstance(
            [[1.0, 2.0], [3.0, 4.0]], [0.5, 0.4], [0.5, 0.5], Selection(q=1), checked=False
        )
        problems = validate(inst)
        assert len(problems) == 1 and problems[0].startswith("p:")

    def test_assignment_needs_square(self):
        inst = ScenarioInstance(
            np.ones((2, 10)), [0.5, 0.5], [0.5, 0.5], Assignment(m=3), checked=False
        )
        problems = validate(inst)
        assert len(problems) == 1 and problems[0].startswith("kind:")

    def test_negative_costs(self):
        inst = ScenarioInstance([[-1.0, 2.0]], [1.0], [1.0], Selection(q=1), checked=False)
        assert any(msg.startswith("costs:") for msg in validate(inst))

    def test_checked_construction_raises(self):
        with pytest.raises(InstanceFormatError):
            ScenarioInstance([[1.0, 2.0]], [0.9], [1.0], Selection(q=1))


class TestRemoveZeroScenarios:
    def test_drops_and_renormalizes(self):
        p, costs = remove_zero_scenarios([0.5, 0.0, 0.5], [[1, 2], [3, 4], [5, 6]])
        assert p.tolist() == [0.5, 0.5]
        assert costs.tolist() == [[1, 2], [5, 6]]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            remove_zero_scenarios([0.0, 0.0], [[1, 2], [3, 4]])


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


@pytest.mark.parametrize(
    "kind, n",
    [(Selection(q=3), 7), (Assignment(m=4), 16), (Explicit(PATHS_FEASIBLE), 5)],
    ids=["selection", "assignment", "explicit"],
)
def test_kind_methods_agree_with_enumeration(kind, n):
    inst = ScenarioInstance(np.zeros((1, n)), [1.0], [1.0], kind)
    feasible = list(kind.enumerate(n))
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
        if not kind.plausible(fix, n):
            assert not compatible
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


def test_instances_expose_immutable_costs(paths_instance):
    with pytest.raises(ValueError):
        paths_instance.costs[0, 0] = 99.0
