"""Discrete optimization under scenario uncertainty with the WOWA criterion.

The toolkit covers: the OWA/WOWA aggregation operators and their
rank-dependent weights, scenario instances for selection and assignment
problems, an aggregate-then-solve approximation with an a-priori v1*K
ratio, exact solving (branch-and-bound, brute force, MIP export in LP
format), and a deterministic benchmark harness.
"""

from .aggregation import (
    DistortionFunction,
    NonIncreasingWeightsError,
    ProbabilityVector,
    RankWeights,
    WeightVector,
    f_pi,
    generate_weights,
    owa,
    rank_weights,
    wowa,
    wstar_eval,
)
from .approx import ApproxResult, aggregate_costs, approx_solve
from .base_solvers import (
    BaseSolver,
    EXACT_BASE,
    NO_FIXING,
    PartialFixing,
    solve_assignment,
    solve_selection,
    solve_with_costs,
)
from .exact import ExactResult, brute_force, exact_bb, search_space_size
from .experiments import (
    BenchmarkRecord,
    CellSummary,
    ExperimentConfig,
    SplitMix64,
    gen_instance,
    instance_seed,
    records_to_csv,
    run_benchmark,
    summaries_to_csv,
    summarize,
)
from .mip import (
    MipModel,
    build_mip,
    compute_Lj,
    export_lp,
    greedy_dual_point,
    objective_at,
    wowa_via_decomposition,
)
from .model import (
    Assignment,
    Explicit,
    FeasibilityError,
    InstanceFormatError,
    ProblemKind,
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
    solution_rank_weights,
    validate,
    wowa_value,
    write_instance,
    write_solution,
)

__version__ = "0.1.0"
