"""The input rules at the library's public entries.

Real-number input is Python or numpy ints and floats, never bools, strings
or None; element indices, counts, sizes, seeds and scenario indices are
Python or numpy integers, never bools or floats such as 1.0.  Each rejected
input raises ValueError naming the argument once; numpy input is read to the
same bits as the equivalent Python input.
"""

import dataclasses

import numpy as np
import pytest

from conftest import GOLDEN
from wowaopt import (
    DistortionFunction,
    Explicit,
    InstanceFormatError,
    PartialFixing,
    ScenarioInstance,
    Selection,
    Solution,
    SplitMix64,
    WeightVector,
    build_mip,
    compute_Lj,
    exact_bb,
    export_lp,
    f_pi,
    gen_instance,
    generate_weights,
    greedy_dual_point,
    instance_seed,
    objective_at,
    owa,
    rank_weights,
    read_instance,
    remove_zero_scenarios,
    scenario_cost,
    solve_assignment,
    solve_selection,
    solve_with_costs,
    wowa,
    write_instance,
    wstar_eval,
)

_HALF = [0.5, 0.5]
_PATHS = Explicit(((0, 3), (1, 4)))
_FIVE = np.array([3.0, 1.0, 4.0, 1.0, 5.0])


def _instance(p, v, kind=Selection(q=1), costs=((1.0, 2.0, 3.0),)):
    return ScenarioInstance(np.array(costs), p, v, kind)


def _paths():
    # the worked example, K = 4, with its solution x1 = {0, 3}
    return read_instance((GOLDEN / "paths_example.json").read_text()), Solution([0, 3])


def _objective(**point):
    # objective_at at greedy_dual_point's (beta, alpha), an entry replaced
    inst, sol = _paths()
    beta, alpha = greedy_dual_point(inst, sol)
    return objective_at(build_mip(inst), **{"beta": beta, "alpha": alpha, **point})


def _export(**fields):
    return export_lp(dataclasses.replace(build_mip(_paths()[0]), **fields))


# (entry, the text that names the argument in its error); each was coerced,
# or failed with a bare numpy error, before
_REJECTED = {
    "instance-string-p-v": (lambda: _instance(["1.0"], ["1"]), "p: expected a number"),
    "instance-bool-p-v": (lambda: _instance([True], [True]), "v: expected a number, got True"),
    "instance-bool-v": (lambda: _instance(_HALF, [True, False], costs=np.ones((2, 3))),
                        "v: expected a number, got True"),
    "wowa-strings": (lambda: wowa(["3", "1"], ["0.5", "0.5"], ["0.5", "0.5"]),
                     "a: expected a number, got '3'"),
    "owa-string": (lambda: owa(["3", 1], _HALF), "a: expected a number, got '3'"),
    "distortion-strings": (lambda: DistortionFunction(["0", "0.5", True]), "breakpoints: expected a number"),
    "wstar-bool": (lambda: wstar_eval(WeightVector(_HALF).distortion, True), "t: expected a number, got True"),
    "selection-matrix": (lambda: solve_selection([[5, 1], [3, 4]], 2), "costs: must be a vector"),
    "dispatch-matrix": (lambda: solve_with_costs(Selection(q=2), [[5, 1], [3, 4]]), "costs: must be a vector"),
    "assignment-bools": (lambda: solve_assignment([[True, False], [False, True]]),
                         "cost_matrix: expected a number, got True"),
    "assignment-strings": (lambda: solve_assignment([["1", "2"], ["3", "4"]]),
                           "cost_matrix: expected a number, got '1'"),
    "zero-scenarios": (lambda: remove_zero_scenarios(_HALF, [["1", "2"], [True, None]]),
                       "costs: expected a number, got '1'"),
    "rank-weights-floats": (lambda: rank_weights(_HALF, _HALF, [0.9, 1.7]), "permutation entry not an integer"),
    "f-pi-bools": (lambda: f_pi([1.0, 2.0], _HALF, _HALF, [True, False]), "permutation entry not an integer"),
    "explicit-float": (lambda: _instance([1.0], [1.0], Explicit(solutions=[[2.9, 0]])),
                       "kind: explicit solution 0 has a non-integer element"),
    "explicit-bool": (lambda: _instance([1.0], [1.0], Explicit(solutions=[[True, 0]])),
                      "kind: explicit solution 0 has a non-integer element"),
    "explicit-fixing-float": (lambda: solve_with_costs(_PATHS, _FIVE, PartialFixing({1.0}, ())),
                              "fixed element index not an integer"),
    "explicit-fixing-bool": (lambda: solve_with_costs(_PATHS, _FIVE, PartialFixing({True}, ())),
                             "fixed element index not an integer"),
    "explicit-fixing-range": (lambda: solve_with_costs(_PATHS, _FIVE, PartialFixing((), {7})),
                              "outside 0..4"),
    "objective-alpha-row": (lambda: _objective(alpha=np.ones((1, 4))),
                            "alpha: must have shape (4, 4)"),
    "objective-alpha-column": (lambda: _objective(alpha=np.ones((4, 1))),
                               "alpha: must have shape (4, 4)"),
    "objective-alpha-single": (lambda: _objective(alpha=[[1.0]]), "alpha: must have shape (4, 4)"),
    "objective-beta-short": (lambda: _objective(beta=[1.0]), "beta: must have shape (4,)"),
    "scenario-cost-bool": (lambda: scenario_cost(*_paths(), True), "j: must be an integer in 0..3"),
    "scenario-cost-float": (lambda: scenario_cost(*_paths(), 2.0), "j: must be an integer in 0..3"),
    "lj-bool": (lambda: compute_Lj(*_paths(), True), "j: must be an integer in 1..4"),
    "lj-float": (lambda: compute_Lj(*_paths(), 1.0), "j: must be an integer in 1..4"),
    "lj-fraction": (lambda: compute_Lj(*_paths(), 2.5), "j: must be an integer in 1..4"),
    "export-beta-strings": (lambda: _export(obj_beta=("1", True)),
                            "obj_beta: expected a number, got '1'"),
    "export-beta-short": (lambda: _export(obj_beta=np.ones(3)), "obj_beta: must have shape (4,)"),
    "export-beta-long": (lambda: _export(obj_beta=np.ones(5)), "obj_beta: must have shape (4,)"),
    "export-alpha-wide": (lambda: _export(obj_alpha=np.ones((4, 5))),
                          "obj_alpha: must have shape (4, 4)"),
    "generate-float-seed": (lambda: gen_instance("selection", 5, 2, 0.5, 1.5),
                            "seed: must be an integer, got 1.5"),
    "generate-bool-seed": (lambda: gen_instance("selection", 5, 2, 0.5, True),
                           "seed: must be an integer, got True"),
    "generate-string-alpha": (lambda: gen_instance("selection", 5, 2, "0.5", 1),
                              "alpha: must be a number in (0, 1), got '0.5'"),
    "derived-seed-bool": (lambda: instance_seed(True, "selection", 5, 2, 0.5, 0),
                          "seed: must be an integer, got True"),
    "derived-seed-index": (lambda: instance_seed(0, "selection", 5, 2, 0.5, -1),
                           "index: must be an integer of at least 0, got -1"),
    "splitmix-float-seed": (lambda: SplitMix64(2.5), "seed: must be an integer, got 2.5"),
    "weights-string-alpha": (lambda: generate_weights("0.5", 3),
                             "alpha: must be a number in (0, 1), got '0.5'"),
    "bb-string-time-limit": (lambda: exact_bb(_paths()[0], time_limit="5"), "time limit must be positive"),
    "bb-none-time-limit": (lambda: exact_bb(_paths()[0], time_limit=None), "time limit must be positive"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_coerced_input_is_rejected_naming_the_argument_once(name):
    entry, named = _REJECTED[name]
    with pytest.raises(ValueError) as exc:
        entry()
    assert str(exc.value).count(named) == 1
    if name.startswith(("instance", "explicit-float", "explicit-bool")):
        assert isinstance(exc.value, InstanceFormatError)


def test_numpy_input_is_read_to_the_same_bits():
    v, p = WeightVector([0.7, 0.3]), [0.25, 0.75]
    pairs = [
        (wowa([3, 1], v, p), wowa(np.array([3, 1]), np.array([0.7, 0.3]), [np.float32(0.25), 0.75])),
        (owa([3.0, 1.0], v), owa(np.array([3, 1], dtype=np.int8), v)),
        (wstar_eval(v.distortion, 0.25), wstar_eval(v.distortion, np.float64(0.25))),
        (f_pi([3.0, 1.0], v, p, [1, 0]), f_pi(np.array([3, 1]), v, p, np.array([1, 0]))),
        (rank_weights(v, p, [1, 0]), rank_weights(v, p, np.array([1, 0], dtype=np.int16))),
        (_instance([1.0], [1.0]).costs.tolist(),
         _instance(np.array([1]), (np.int64(1),), costs=np.array([[1, 2, 3]])).costs.tolist()),
        (solve_selection([3.0, 1.0, 2.0], 2, PartialFixing({2}, {0})),
         solve_selection(np.array([3, 1, 2]), np.int64(2), PartialFixing({np.int64(2)}, {np.int32(0)}))),
        (solve_assignment([[1.0, 2.0], [2.0, 4.0]], PartialFixing({1}, ())),
         solve_assignment(np.array([[1, 2], [2, 4]]), PartialFixing({np.int64(1)}, ()))),
        (solve_with_costs(_PATHS, _FIVE, PartialFixing({1}, ())),
         solve_with_costs(_PATHS, _FIVE.astype(int), PartialFixing({np.uint8(1)}, ()))),
        (Solution([1, 3]), Solution(np.array([3, 1]))),
        (Explicit([(0, 2)]), Explicit([np.array([2, 0], dtype=np.int8)])),
        (write_instance(gen_instance("selection", 5, 2, 0.5, 7)),
         write_instance(gen_instance("selection", np.int8(5), np.int64(2), np.float64(0.5), np.int64(7)))),
        (instance_seed(7, "selection", 5, 2, 0.5, 1),
         instance_seed(np.int64(7), "selection", 5, 2, 0.5, np.int32(1))),
    ]
    for python, numpy in pairs:  # repr round-trips every float to the bit
        assert repr(python) == repr(numpy)
    # the indices a numpy fixing or solution leaves are Python ints
    sol, _ = solve_assignment(np.ones((2, 2)), PartialFixing({np.int64(1)}, ()))
    assert [type(e) for e in sol.chosen] == [int, int]
    assert {type(e) for s in Explicit([np.array([2, 0])]).solutions for e in s} == {int}


class _Unhashable(tuple):
    def __hash__(self):
        raise TypeError("hashed again")


def test_explicit_kind_hashes_once():
    kind = Explicit(((0, 3), (1, 4)))
    assert hash(kind) == hash(Explicit([[3, 0], [1, 4]]))
    object.__setattr__(kind, "solutions", (_Unhashable((0, 3)),))
    assert hash(kind) == hash(Explicit(((0, 3), (1, 4))))  # the hash stored at construction
