"""Exact big-integer workbench for knapsack instances with few distinct
weights and profits."""

from .composition import (
    ComposedInstance,
    CompositionConstants,
    canonical_solution,
    compose,
    count_distinct_profits,
    count_distinct_weights,
    pad_to_power_of_two,
)
from .core import (
    Encoding,
    Error,
    GuardError,
    Index,
    InternalError,
    InvariantError,
    Item,
    KnapsackInstance,
    Quadratization,
    RestrictedSubsetSumInstance,
    SchemaError,
    SolverResult,
    SubsetSumInstance,
    X3CInstance,
    digit_solutions,
    enumerate_restricted_universe,
    membership_in_restricted_universe,
    restricted_target,
)
from .frank_tardos import frank_tardos_reduce
from .generators import SplitMix64, gen_knapsack, gen_rss, gen_x3c
from .kernel import (
    GroupedInstance,
    group,
    ilp_to_knapsack,
    kernelize,
    kernelize_with_report,
    reduce_ilp,
    solve_grouped,
)
from .reductions import rss_decide, subset_sum_to_knapsack, x3c_has_exact_cover, x3c_to_rss
from .solvers import solve_brute_force, solve_dp_by_weight, solve_meet_in_middle

__version__ = "0.1.0"
