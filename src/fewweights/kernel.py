"""Size reduction for instances with few distinct weights and profits.

An instance with ``w#`` distinct weights and ``p#`` distinct profits is a
bounded integer program with ``w# * p#`` variables: one per (weight, profit)
class, counting how many items of that class are taken.  When the variable
count is small relative to the item count, the program is simply solved and
replaced by a constant-size equivalent.  Otherwise the coefficient vectors
are shrunk by the sign-preserving reduction and the program is re-encoded as
a knapsack instance via binary splitting, giving an output whose size depends
only on ``w# * p#``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    GuardError,
    InvariantError,
    Item,
    KnapsackInstance,
    SolverResult,
)
from .frank_tardos import frank_tardos_reduce
from .solvers import MEET_IN_MIDDLE_LIMIT, solve_meet_in_middle

__all__ = [
    "GroupedInstance",
    "ReducedILP",
    "group",
    "solve_grouped",
    "reduce_ilp",
    "binary_split",
    "ilp_to_knapsack",
    "kernelize",
    "kernelize_with_report",
    "instance_bits",
]

_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class GroupedInstance:
    """Multiplicity view of a knapsack instance: ``counts[i][j]`` items share
    weight ``weights[i]`` and profit ``profits[j]``."""

    weights: tuple[int, ...]
    profits: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    capacity: int
    target: int

    @property
    def item_count(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def variable_count(self) -> int:
        return len(self.weights) * len(self.profits)


@dataclass(frozen=True)
class ReducedILP:
    """The grouped program after coefficient reduction, variables flattened
    row-major over (weight class, profit class)."""

    weights: tuple[int, ...]
    capacity: int
    profits: tuple[int, ...]
    target: int
    bounds: tuple[int, ...]
    shape: tuple[int, int]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights) or any(p <= 0 for p in self.profits):
            raise InvariantError(
                "reduced.nonpositive",
                "reduced per-variable coefficients must be strictly positive",
            )
        if self.capacity < 0 or self.target < 0:
            raise InvariantError("reduced.negative", "reduced bounds must be naturals")


def group(inst: KnapsackInstance) -> GroupedInstance:
    """Lossless multiplicity grouping; items of one class are interchangeable
    so feasibility is preserved exactly."""
    weights = sorted({it.weight for it in inst.items})
    profits = sorted({it.profit for it in inst.items})
    w_pos = {w: i for i, w in enumerate(weights)}
    p_pos = {p: j for j, p in enumerate(profits)}
    counts = [[0] * len(profits) for _ in weights]
    for it in inst.items:
        counts[w_pos[it.weight]][p_pos[it.profit]] += 1
    return GroupedInstance(
        tuple(weights),
        tuple(profits),
        tuple(tuple(row) for row in counts),
        inst.capacity,
        inst.target,
    )


def solve_grouped(g: GroupedInstance, node_budget: int = _NODE_BUDGET) -> SolverResult:
    """Exact feasibility of the grouped program by depth-first search with
    weight and optimistic-profit pruning.

    Variables are visited heaviest-first (ties broken by profit then class
    position) so capacity pruning bites early, and values high-to-low, so the
    first feasible assignment found is deterministic.  Raises when the node
    budget runs out; callers fall back to an item-level oracle.
    """
    w_flat = [w for w in g.weights for _ in g.profits]
    p_flat = [p for _ in g.weights for p in g.profits]
    bounds = [c for row in g.counts for c in row]
    m = len(bounds)
    capacity, target = g.capacity, g.target

    order = sorted(range(m), key=lambda k: (-w_flat[k], -p_flat[k], k))
    w_ord = [w_flat[k] for k in order]
    p_ord = [p_flat[k] for k in order]
    b_ord = [bounds[k] for k in order]

    suffix_profit = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_profit[k] = suffix_profit[k + 1] + b_ord[k] * p_ord[k]

    assignment = [0] * m
    nodes = 0

    def walk(k: int, weight: int, profit: int):
        nonlocal nodes
        if profit >= target:
            return assignment[:k] + [0] * (m - k)
        if k == m or profit + suffix_profit[k] < target:
            return None
        top = b_ord[k]
        if w_ord[k] > 0:
            top = min(top, (capacity - weight) // w_ord[k])
        for x in range(top, -1, -1):
            nodes += 1
            if nodes > node_budget:
                raise GuardError("grouped.budget", f"exceeded {node_budget} nodes")
            assignment[k] = x
            found = walk(k + 1, weight + x * w_ord[k], profit + x * p_ord[k])
            if found is not None:
                return found
        assignment[k] = 0
        return None

    found_ord = walk(0, 0, 0)
    if found_ord is None:
        return SolverResult(feasible=False)
    found = [0] * m
    for pos, k in enumerate(order):
        found[k] = found_ord[pos]
    achieved_w = sum(x * w for x, w in zip(found, w_flat))
    achieved_p = sum(x * p for x, p in zip(found, p_flat))
    if achieved_w > capacity or achieved_p < target:
        raise InvariantError(
            "grouped.witness",
            f"witness has weight {achieved_w} > {capacity} or profit {achieved_p} < {target}",
        )
    return SolverResult(
        feasible=True,
        achieved_weight=achieved_w,
        achieved_profit=achieved_p,
        assignment=tuple(found),
    )


def reduce_ilp(g: GroupedInstance) -> ReducedILP:
    """Shrink the grouped program's two coefficient rows with the
    sign-preserving reduction at norm budget ``item count + 1``.

    Any candidate assignment ``x`` together with a trailing 1 is an integer
    vector of l1-norm at most that budget, so both inequalities keep their
    truth value for every assignment, and the reduced program is equivalent.
    """
    if any(w <= 0 for w in g.weights) or any(p <= 0 for p in g.profits):
        raise InvariantError(
            "kernel.zero-coefficient",
            "coefficient reduction requires strictly positive weights and profits",
        )
    w_flat = [w for w in g.weights for _ in g.profits]
    p_flat = [p for _ in g.weights for p in g.profits]
    bounds = tuple(c for row in g.counts for c in row)
    budget = g.item_count + 1

    reduced_w = frank_tardos_reduce(w_flat + [-g.capacity], budget)
    reduced_p = frank_tardos_reduce([-p for p in p_flat] + [g.target], budget)
    new_w = tuple(reduced_w[:-1])
    new_cap = -reduced_w[-1]
    new_p = tuple(-v for v in reduced_p[:-1])
    new_target = reduced_p[-1]

    # equal coefficients stay equal by sign preservation on difference
    # vectors; positivity is checked by ReducedILP itself
    for original, reduced in ((w_flat, new_w), (p_flat, new_p)):
        seen = {}
        for a, v in zip(original, reduced):
            if seen.setdefault(a, v) != v:
                raise InvariantError(
                    "kernel.reduce-collapse",
                    f"equal coefficients {a} reduced to {seen[a]} and {v}",
                )

    return ReducedILP(
        weights=new_w,
        capacity=new_cap,
        profits=new_p,
        target=new_target,
        bounds=bounds,
        shape=(len(g.weights), len(g.profits)),
    )


def binary_split(bound: int) -> list[int]:
    """Coefficients 1, 2, 4, ... plus a remainder whose subset sums cover
    exactly ``0..bound``."""
    if bound < 0:
        raise InvariantError("split.bound", "bound must be a natural")
    if bound == 0:
        return []
    steps = (bound + 1).bit_length() - 1
    coeffs = [1 << i for i in range(steps)]
    rest = bound - ((1 << steps) - 1)
    if rest:
        coeffs.append(rest)
    return coeffs


def ilp_to_knapsack(ri: ReducedILP) -> KnapsackInstance:
    """Re-encode the reduced program as a knapsack instance.

    Each bounded variable ``x`` becomes one item per splitting coefficient
    ``c``, carrying ``c`` times the variable's weight and profit; within a
    class any item subset realizes the same multiplier on both sides, so
    feasibility transfers exactly in both directions.
    """
    items = []
    for w, p, bound in zip(ri.weights, ri.profits, ri.bounds):
        for c in binary_split(bound):
            items.append(Item(c * w, c * p))
    return KnapsackInstance(tuple(items), ri.capacity, ri.target)


_CANONICAL_YES = KnapsackInstance((Item(1, 1),), 1, 1)
_CANONICAL_NO = KnapsackInstance((), 0, 1)


def _lg(x: int) -> int:
    return x.bit_length() if x > 0 else 0


def instance_bits(inst: KnapsackInstance) -> int:
    """Total encoding size: bit lengths of every number in the instance,
    counting value 0 as one bit."""
    total = max(1, _lg(inst.capacity)) + max(1, _lg(inst.target))
    for it in inst.items:
        total += max(1, _lg(it.weight)) + max(1, _lg(it.profit))
    return total


def kernelize_with_report(inst: KnapsackInstance):
    """Produce an equivalent instance of size polynomial in the number of
    distinct weights times distinct profits, plus a report of the branch
    taken.

    When the variable count is small against the item count (``r lg r <=
    lg n`` on bit lengths, ties solving), the instance is solved outright and
    collapsed to a canonical constant-size yes or no instance; otherwise the
    grouped program is coefficient-reduced and re-encoded.
    """
    g = group(inst)
    r = g.variable_count
    n = len(inst.items)
    if r * _lg(r) <= _lg(n):
        try:
            verdict = solve_grouped(g).feasible
        except GuardError:
            if n > MEET_IN_MIDDLE_LIMIT:
                raise
            verdict = solve_meet_in_middle(inst).feasible
        out = _CANONICAL_YES if verdict else _CANONICAL_NO
        branch = "solved"
    else:
        out = ilp_to_knapsack(reduce_ilp(g))
        branch = "reduced"
    report = {
        "r": r,
        "branch": branch,
        "input_bits": instance_bits(inst),
        "output_bits": instance_bits(out),
    }
    return out, report


def kernelize(inst: KnapsackInstance) -> KnapsackInstance:
    out, _ = kernelize_with_report(inst)
    return out
