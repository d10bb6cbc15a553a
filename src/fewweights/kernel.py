"""Size reduction for instances with few distinct weights and profits.

An instance with ``w#`` distinct weights and ``p#`` distinct profits is a
bounded integer program with at most ``w# * p#`` variables: one per
nonempty (weight, profit) class, counting how many items of that class are
taken.  When ``r = w# * p#`` is small relative to the item count, the program
is simply solved and replaced by a constant-size equivalent.  Otherwise the
coefficient vectors go through the sign-preserving reduction, which never
grows a row's largest entry, and the program is re-encoded as a knapsack
instance via binary splitting, giving an output whose size depends only on
``w# * p#``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import (
    GuardError,
    InternalError,
    InvariantError,
    Item,
    KnapsackInstance,
    SolverResult,
)
from .frank_tardos import frank_tardos_reduce
# not called here: the benchmark's span tracer wraps kernel.solve_meet_in_middle
from .solvers import solve_meet_in_middle  # noqa: F401

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
    "GROUPED_CLASS_LIMIT",
]

_NODE_BUDGET = 5_000_000
# the search recurses once per class, so this keeps it inside the
# interpreter's default recursion limit of 1000 frames
GROUPED_CLASS_LIMIT = 512


@dataclass(frozen=True)
class GroupedInstance:
    """Multiplicity view of a knapsack instance: one ``(weight, profit, item
    indices)`` entry per nonempty class, sorted by weight, then profit."""

    classes: tuple[tuple[int, int, tuple[int, ...]], ...]
    capacity: int
    target: int

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(sorted({w for w, _, _ in self.classes}))

    @property
    def profits(self) -> tuple[int, ...]:
        return tuple(sorted({p for _, p, _ in self.classes}))

    @property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """Dense counts: ``counts[i][j]`` items share weight ``weights[i]``
        and profit ``profits[j]``."""
        sizes = {(w, p): len(members) for w, p, members in self.classes}
        profits = self.profits
        return tuple(tuple(sizes.get((w, p), 0) for p in profits) for w in self.weights)

    @property
    def item_count(self) -> int:
        return sum(len(members) for _, _, members in self.classes)

    @property
    def variable_count(self) -> int:
        """The parameter ``r = w# * p#``, empty classes included."""
        return len(self.weights) * len(self.profits)


@dataclass(frozen=True)
class ReducedILP:
    """The grouped program after coefficient reduction: at most ``w# * p#``
    variables, one per nonempty class, in the grouped class order."""

    weights: tuple[int, ...]
    capacity: int
    profits: tuple[int, ...]
    target: int
    bounds: tuple[int, ...]

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
    by_weight = defaultdict(lambda: defaultdict(list))
    for i, it in enumerate(inst.items):
        by_weight[it.weight][it.profit].append(i)
    classes = tuple(
        (w, p, tuple(members))
        for w in sorted(by_weight)
        for p, members in sorted(by_weight[w].items())
    )
    return GroupedInstance(classes, inst.capacity, inst.target)


def solve_grouped(g: GroupedInstance) -> SolverResult:
    """Exact feasibility of the grouped program by depth-first search with
    weight and optimistic-profit pruning.

    Classes are visited heaviest-first (ties broken by higher profit) so
    capacity pruning bites early, and counts high-to-low, so the first
    feasible assignment found is deterministic.  A count ``x`` for a class
    takes its first ``x`` items, which gives the witness ``chosen``.  Raises
    when the class limit or the node budget ``_NODE_BUDGET`` is exceeded;
    callers fall back to an item-level oracle.
    """
    if len(g.classes) > GROUPED_CLASS_LIMIT:
        raise GuardError(
            "solve.grouped",
            f"{len(g.classes)} classes exceed limit {GROUPED_CLASS_LIMIT}",
        )
    classes = g.classes[::-1]
    m = len(classes)
    capacity, target = g.capacity, g.target

    suffix_profit = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        _, p, members = classes[k]
        suffix_profit[k] = suffix_profit[k + 1] + len(members) * p

    taken = [0] * m
    nodes = 0

    def walk(k: int, weight: int, profit: int) -> bool:
        # on success taken[k:] is all zero: every deeper level resets its count
        nonlocal nodes
        if profit >= target:
            return True
        if k == m or profit + suffix_profit[k] < target:
            return False
        w, p, members = classes[k]
        top = len(members)
        if w > 0:
            top = min(top, (capacity - weight) // w)
        for x in range(top, -1, -1):
            nodes += 1
            if nodes > _NODE_BUDGET:
                raise GuardError("grouped.budget", f"exceeded {_NODE_BUDGET} nodes")
            taken[k] = x
            if walk(k + 1, weight + x * w, profit + x * p):
                return True
        taken[k] = 0
        return False

    if not walk(0, 0, 0):
        return SolverResult(feasible=False)
    achieved_w = sum(x * w for x, (w, _, _) in zip(taken, classes))
    achieved_p = sum(x * p for x, (_, p, _) in zip(taken, classes))
    if achieved_w > capacity or achieved_p < target:
        raise InternalError(
            "grouped.witness",
            f"witness has weight {achieved_w} > {capacity} or profit {achieved_p} < {target}",
        )
    return SolverResult(
        feasible=True,
        chosen=frozenset(
            i for x, (_, _, members) in zip(taken, classes) for i in members[:x]
        ),
        achieved_weight=achieved_w,
        achieved_profit=achieved_p,
    )


def reduce_ilp(g: GroupedInstance) -> ReducedILP:
    """Reduce the grouped program's two coefficient rows with the
    sign-preserving reduction at norm budget ``item count + 1``; it never
    grows a row, so no coefficient exceeds the largest one of its row.

    Any candidate assignment ``x`` together with a trailing 1 is an integer
    vector of l1-norm at most that budget, so both inequalities keep their
    truth value for every assignment, and the reduced program is equivalent.
    """
    weights = [w for w, _, _ in g.classes]
    profits = [p for _, p, _ in g.classes]
    if any(w <= 0 for w in weights) or any(p <= 0 for p in profits):
        raise InvariantError(
            "kernel.zero-coefficient",
            "coefficient reduction requires strictly positive weights and profits",
        )
    budget = g.item_count + 1

    reduced_w = frank_tardos_reduce(weights + [-g.capacity], budget)
    reduced_p = frank_tardos_reduce([-p for p in profits] + [g.target], budget)
    new_w = tuple(reduced_w[:-1])
    new_cap = -reduced_w[-1]
    new_p = tuple(-v for v in reduced_p[:-1])
    new_target = reduced_p[-1]

    # equal coefficients stay equal by sign preservation on difference
    # vectors; positivity is checked by ReducedILP itself
    for original, reduced in ((weights, new_w), (profits, new_p)):
        seen = {}
        for a, v in zip(original, reduced):
            if seen.setdefault(a, v) != v:
                raise InternalError(
                    "kernel.reduce-collapse",
                    f"equal coefficients {a} reduced to {seen[a]} and {v}",
                )

    return ReducedILP(
        weights=new_w,
        capacity=new_cap,
        profits=new_p,
        target=new_target,
        bounds=tuple(len(members) for _, _, members in g.classes),
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

    When ``r = w# * p#`` is small against the item count (``r lg r <= lg n``
    on bit lengths, ties solving), the instance is solved outright and
    collapsed to a canonical constant-size yes or no instance; otherwise the
    grouped program is coefficient-reduced and re-encoded.  A grouped search
    out of nodes raises ``GuardError("grouped.budget")``.
    """
    g = group(inst)
    r = g.variable_count
    n = len(inst.items)
    if r * _lg(r) <= _lg(n):
        out = _CANONICAL_YES if solve_grouped(g).feasible else _CANONICAL_NO
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
