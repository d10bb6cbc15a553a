"""Exact verdicts for the few-classes shapes, independent of the library.

The grouped branch-and-bound in ``kernel`` is what the few-classes workload
measures, so its answers are checked by code that shares nothing with it:
plain greedy and prefix-sum arguments on (weight, profit) pairs.
"""

from __future__ import annotations

from itertools import accumulate


def max_profit(pairs, capacity: int) -> int:
    """Largest total profit of a subset of ``pairs`` (weight, profit) whose
    weight is at most ``capacity``.

    Covers the shapes where a greedy choice is exact:

    * one distinct profit: the best subset is the largest one that fits, and
      the lightest items give it;
    * at most two distinct weights: for each count of heavier-class items,
      the rest of the capacity goes to the lighter class, and within a class
      the most profitable items are taken, read off prefix sums.
    """
    profits = {p for _, p in pairs}
    if not profits:
        return 0
    if len(profits) == 1:
        (profit,) = profits
        fitting = sum(1 for total in accumulate(sorted(w for w, _ in pairs)) if total <= capacity)
        return fitting * profit

    by_weight: dict[int, list[int]] = {}
    for w, p in pairs:
        by_weight.setdefault(w, []).append(p)
    if len(by_weight) > 2:
        raise ValueError("exact only for one distinct profit or at most two distinct weights")
    classes = [
        (w, [0, *accumulate(sorted(ps, reverse=True))]) for w, ps in sorted(by_weight.items())
    ]
    light_w, light = classes[0]
    heavy_w, heavy = classes[-1] if len(classes) == 2 else (light_w, [0])
    best = 0
    for taken, heavy_profit in enumerate(heavy):
        room = capacity - taken * heavy_w
        if room < 0:
            break
        best = max(best, heavy_profit + light[min(len(light) - 1, room // light_w)])
    return best


def feasible(inst) -> bool:
    """Verdict of a knapsack instance in one of the shapes above."""
    pairs = [(it.weight, it.profit) for it in inst.items]
    return max_profit(pairs, inst.capacity) >= inst.target
