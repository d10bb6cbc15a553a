"""Size reduction for instances with few distinct weights and profits.

An instance with ``w#`` distinct weights and ``p#`` distinct profits is a
bounded integer program with at most ``w# * p#`` variables: one per
nonempty (weight, profit) class, counting how many items of that class are
taken.  ``GroupedInstance`` holds that program on both sides of the
coefficient reduction, and binary splitting re-encodes it exactly as a
knapsack instance.  When ``r = w# * p#`` is small relative to the item
count, the program is solved outright, by meet-in-the-middle on that
re-encoding, and replaced by a constant-size equivalent.  Otherwise the
coefficient rows go through the sign-preserving reduction, which never
grows a row's largest entry, before the re-encoding, giving an output whose
size depends only on ``w# * p#``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import (
    InternalError,
    InvariantError,
    Item,
    KnapsackInstance,
    SolverResult,
    _as_tuple,
    _check_int,
    _shown,
)
from .frank_tardos import frank_tardos_reduce
from .solvers import solve_meet_in_middle

__all__ = [
    "GroupedInstance",
    "group",
    "solve_grouped",
    "reduce_ilp",
    "binary_split",
    "ilp_to_knapsack",
    "kernelize",
    "kernelize_with_report",
    "instance_bits",
]


@dataclass(frozen=True)
class GroupedInstance:
    """Multiplicity view of a knapsack instance: one ``(weight, profit, item
    indices)`` entry per nonempty class, sorted by weight, then profit.

    Weights, profits, capacity and target must be naturals and each class's
    indices a tuple, or ``InvariantError("grouped.*")`` is raised; the
    indices themselves are not read, so the check costs one step per class."""

    classes: tuple[tuple[int, int, tuple[int, ...]], ...]
    capacity: int
    target: int

    def __post_init__(self):
        object.__setattr__(self, "classes", _as_tuple(self.classes, "grouped.classes", "classes"))
        for c in self.classes:
            if not (isinstance(c, tuple) and len(c) == 3):
                raise InvariantError("grouped.classes", "a class is a (weight, profit, members) tuple")
            w, p, members = c
            _check_int("grouped.weight", "class weight", w, 0)
            _check_int("grouped.profit", "class profit", p, 0)
            if not isinstance(members, tuple):
                raise InvariantError("grouped.members", "class members must be a tuple")
        _check_int("grouped.capacity", "capacity", self.capacity, 0)
        _check_int("grouped.target", "target", self.target, 0)

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
    """Exact feasibility of the grouped program: meet-in-the-middle on its
    binary-split re-encoding ``ilp_to_knapsack(g)``.

    A class's count ``x`` is the sum of its chosen splitting coefficients,
    and the witness ``chosen`` takes the class's first ``x`` items; its
    totals, summed over those items, must equal the re-encoded solve's
    checked totals, or ``InternalError("kernel.witness")`` is raised; taking an
    index twice, from two classes that share it, raises ``InvariantError("grouped.members")``.
    Meet-in-the-middle's entry budget is the only cost guard
    (``GuardError("solve.mim")``).
    """
    res = solve_meet_in_middle(ilp_to_knapsack(g))
    if not res.feasible:
        return res
    chosen = []
    weight = profit = k = 0
    for w, p, members in g.classes:
        x = 0
        for c in binary_split(len(members)):
            if k in res.chosen:
                x += c
            k += 1
        taken = members[:x]
        chosen.extend(taken)
        weight += len(taken) * w
        profit += len(taken) * p
    witness = frozenset(chosen)
    if len(witness) != len(chosen):
        raise InvariantError("grouped.members", "the witness takes an item that two classes share")
    if (weight, profit) != (res.achieved_weight, res.achieved_profit):
        raise InternalError("kernel.witness", f"witness weight {_shown(weight)}, profit"
                            f" {_shown(profit)}; split solve weight"
                            f" {_shown(res.achieved_weight)}, profit {_shown(res.achieved_profit)}")
    return SolverResult(True, witness, weight, profit)


def reduce_ilp(g: GroupedInstance) -> GroupedInstance:
    """Reduce the grouped program's two coefficient rows with the
    sign-preserving reduction at norm budget ``item count + 1``; it never
    grows a row, so no coefficient exceeds the largest one of its row.

    Any candidate assignment ``x`` together with a trailing 1 is an integer
    vector of l1-norm at most that budget, so both inequalities keep their
    truth value for every assignment, and the reduced program is equivalent.
    The difference ``e_i - e_j`` of two unit vectors has l1-norm 2, within
    the budget, so every strict order and every equality between two
    coefficients of a row survives: the reduced classes, each keeping its
    own item indices, are still sorted by (weight, profit) and distinct.
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
    new_w = reduced_w[:-1]
    new_cap = -reduced_w[-1]
    new_p = [-v for v in reduced_p[:-1]]
    new_target = reduced_p[-1]

    # unit vectors are in the budget, so every sign survives, and equal
    # coefficients stay equal by sign preservation on difference vectors
    if any(v <= 0 for v in new_w + new_p) or new_cap < 0 or new_target < 0:
        raise InternalError(
            "kernel.reduce-sign",
            "reduced coefficients must be positive and reduced bounds naturals",
        )
    for original, reduced in ((weights, new_w), (profits, new_p)):
        seen = {}
        for a, v in zip(original, reduced):
            if seen.setdefault(a, v) != v:
                raise InternalError(
                    "kernel.reduce-collapse",
                    f"equal coefficients {_shown(a)} reduced to {_shown(seen[a])} and"
                    f" {_shown(v)}",
                )

    classes = tuple(
        (w, p, members) for w, p, (_, _, members) in zip(new_w, new_p, g.classes)
    )
    return GroupedInstance(classes, new_cap, new_target)


def binary_split(bound: int) -> list[int]:
    """Coefficients 1, 2, 4, ... plus a remainder whose subset sums cover
    exactly ``0..bound``."""
    _check_int("split.bound", "bound", bound, 0)
    if bound == 0:
        return []
    steps = (bound + 1).bit_length() - 1
    coeffs = [1 << i for i in range(steps)]
    rest = bound - ((1 << steps) - 1)
    if rest:
        coeffs.append(rest)
    return coeffs


def ilp_to_knapsack(g: GroupedInstance) -> KnapsackInstance:
    """Re-encode the (reduced) grouped program as a knapsack instance.

    Each class of ``c`` items is a variable bounded by ``c``, and becomes
    one item per splitting coefficient of ``c``, carrying that multiple of
    the class's weight and profit; within a class any item subset realizes
    the same multiplier on both sides, so feasibility transfers exactly in
    both directions.
    """
    items = tuple(
        Item(c * w, c * p) for w, p, members in g.classes for c in binary_split(len(members))
    )
    return KnapsackInstance(items, g.capacity, g.target)


_CANONICAL_YES = KnapsackInstance((Item(1, 1),), 1, 1)
_CANONICAL_NO = KnapsackInstance((), 0, 1)


def instance_bits(inst: KnapsackInstance) -> int:
    """Total encoding size: bit lengths of every number in the instance,
    counting value 0 as one bit."""
    total = (inst.capacity.bit_length() or 1) + (inst.target.bit_length() or 1)
    for it in inst.items:
        total += (it.weight.bit_length() or 1) + (it.profit.bit_length() or 1)
    return total


def kernelize_with_report(inst: KnapsackInstance):
    """Produce an equivalent instance of size polynomial in the number of
    distinct weights times distinct profits, plus a report of the branch
    taken.

    When ``r = w# * p#`` is small against the item count (``r lg r <= lg n``
    on bit lengths, ties solving), the instance is solved outright and
    collapsed to a canonical constant-size yes or no instance; otherwise the
    grouped program is coefficient-reduced and re-encoded.  A solve over
    meet-in-the-middle's entry budget raises ``GuardError("solve.mim")``.

    Zero coefficients leave the program first: every zero-weight class fits
    whole at no cost, so it is taken and its profit comes off the target,
    and a zero-profit class never helps, so it is dropped.  ``r`` and ``n``
    are those of the program that is left.
    """
    g = group(inst)
    # instance_bits(inst), summed per class rather than per item
    input_bits = (inst.capacity.bit_length() or 1) + (inst.target.bit_length() or 1)
    for w, p, members in g.classes:
        input_bits += len(members) * ((w.bit_length() or 1) + (p.bit_length() or 1))
    gain = sum(len(members) * p for w, p, members in g.classes if w == 0)
    g = GroupedInstance(
        tuple(c for c in g.classes if c[0] > 0 and c[1] > 0),
        g.capacity,
        max(0, g.target - gain),
    )
    r = g.variable_count
    n = g.item_count
    if r * r.bit_length() <= n.bit_length():
        out = _CANONICAL_YES if solve_grouped(g).feasible else _CANONICAL_NO
        branch = "solved"
    else:
        out = ilp_to_knapsack(reduce_ilp(g))
        branch = "reduced"
    report = {
        "r": r,
        "branch": branch,
        "input_bits": input_bits,
        "output_bits": instance_bits(out),
    }
    return out, report


def kernelize(inst: KnapsackInstance) -> KnapsackInstance:
    out, _ = kernelize_with_report(inst)
    return out
