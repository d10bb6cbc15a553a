"""Independent exact oracles.

These solvers know nothing about how an instance was built; they enumerate.
All three return a maximum-profit witness so that maximality-based arguments
can be exercised, and all arithmetic is plain Python integers.  Each guards
its own cost: brute force by items, meet-in-the-middle by front entries, the
DP by the cells of its table, items times capacities.  The last two count
again for the width of what each entry or cell holds.

All three recompute a feasible result's totals from its witness, and one
over the capacity or off the search's optimum raises ``InternalError``.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter

from .core import GuardError, InternalError, KnapsackInstance, SolverResult, _shown

__all__ = [
    "solve_brute_force",
    "solve_meet_in_middle",
    "solve_dp_by_weight",
    "pick_oracle",
    "BRUTE_FORCE_LIMIT",
    "MEET_IN_MIDDLE_BUDGET",
    "DP_CELL_LIMIT",
]

BRUTE_FORCE_LIMIT = 25
# front entries meet-in-the-middle may read and keep over all extensions, each
# counted once more per 2**10 bits of capacity, total profit and item mask (a
# bit per item); with target 0, where the profit bound drops nothing, 40 items
# of weight = profit = 2**i stay within it in about 3 s at 425 MB peak RSS,
# and 30 items of weight 2**i and profit 2**(40000 + i) in 0.6 s at 361 MB,
# while 28 such doubling items next to 400,000 copies of one light item are
# refused in 0.2 s, where their 400,028-bit masks took 1.7 GB uncharged
# (Python 3.11, 2 vCPUs)
MEET_IN_MIDDLE_BUDGET = 2**23
# cells (items + 1) * (capacity + 1) the DP may fill, counted once more per
# 2**12 items of item-mask width and per 2**12 bits of total profit; at the
# limit, unit-weight items with rising profits take 2.0-3.1 s for 4095 items
# at capacity 4095 (5.1 s with profits 2**i), 1.6-2.7 s for 8191 items at
# capacity 1023 and 0.8 s for 65,535 at capacity 15, under 25 MB RSS, and 18
# items of weight 2**i and profit 2**100000 + i take 0.7 s at capacity 35,000,
# at 464 MB RSS (Python 3.11, 2 vCPUs)
DP_CELL_LIMIT = 2**24

# chunk size for the brute-force scan; bounds peak memory at ~2**18 entries
_CHUNK_BITS = 18


def _mask_sums(items) -> tuple[list[int], list[int]]:
    """Subset sums indexed by bitmask: entry ``m`` is the sum over set bits of
    ``m``, built by doubling so the index *is* the subset."""
    ws = [0]
    ps = [0]
    for it in items:
        w, p = it.weight, it.profit
        ws += [s + w for s in ws]
        ps += [s + p for s in ps]
    return ws, ps


def _mask_indices(mask: int) -> frozenset[int]:
    # one pass over the binary digits, lowest bit first
    return frozenset(i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1")


def _witness(inst: KnapsackInstance, chosen, optimum: int, code: str) -> SolverResult:
    """The feasible result for the witness ``chosen`` of a search that found
    profit ``optimum``, with both totals recomputed from the witness."""
    weight, profit = inst.subset_weight(chosen), inst.subset_profit(chosen)
    if weight > inst.capacity or profit != optimum:
        raise InternalError(code, f"witness weight {_shown(weight)}, profit {_shown(profit)};"
                            f" capacity {_shown(inst.capacity)}, optimum {_shown(optimum)}")
    return SolverResult(True, chosen, weight, profit)


def solve_brute_force(inst: KnapsackInstance) -> SolverResult:
    """Enumerate all subsets in ascending bitmask order (bit ``i`` is item
    ``i``); report the first maximum-profit subset that fits the capacity,
    which is the one with the smallest bitmask."""
    n = len(inst.items)
    if n > BRUTE_FORCE_LIMIT:
        raise GuardError("solve.brute", f"{n} items exceed limit {BRUTE_FORCE_LIMIT}")
    low_n = min(n, _CHUNK_BITS)
    low_ws, low_ps = _mask_sums(inst.items[:low_n])
    high_ws, high_ps = _mask_sums(inst.items[low_n:])
    capacity = inst.capacity

    best_p = -1
    best_mask = 0
    for high_mask, (base_w, base_p) in enumerate(zip(high_ws, high_ps)):
        if base_w > capacity:
            continue
        rem = capacity - base_w
        shifted = high_mask << low_n
        for low_mask in range(1 << low_n):
            if low_ws[low_mask] <= rem:
                p = base_p + low_ps[low_mask]
                if p > best_p:
                    best_p = p
                    best_mask = shifted | low_mask

    # the empty subset always fits, so a maximum exists
    if best_p < inst.target:
        return SolverResult(feasible=False)
    return _witness(inst, _mask_indices(best_mask), best_p, "solve.brute")


def solve_meet_in_middle(inst: KnapsackInstance) -> SolverResult:
    """Build the Pareto front of a prefix and of a suffix of the items in
    ascending weight order, then combine them in one two-pointer sweep
    (Horowitz–Sahni split with Nemhauser–Ullmann dominance pruning and a
    profit bound on each front).

    The items are sorted by weight and grouped into classes of equal
    weight; each class is ordered by profit, highest first, and on equal
    profit the later index comes first.  The prefix grows from the lightest
    class and the suffix from the heaviest; each next class goes whole to
    whichever front is smaller, ties to the prefix.  Within a class the k
    first items outweigh no other k of it and profit at least as much
    (the exchange argument of Kellerer–Pferschy–Pisinger 2004), so one
    step merges the front with its copies shifted by each such prefix that
    fits the capacity and keeps, for each weight, the merge's first most
    profitable entry if it beats every lighter one.  So a front is sorted by
    weight, each entry strictly heavier and strictly more profitable than
    the one before it, and an entry is a subset of its side that no other
    subset of that side dominates by weight and profit; the best fitting
    pair over the two fronts is a maximum-profit subset.

    Each extension also drops every entry whose profit plus the profit of
    all items not yet placed on its side is below ``inst.target``.  This is
    exact: a subset that reaches the target splits into one part per side,
    and each part (and every entry that dominates it) passes the bound; an
    entry that fails it fails it again after every later extension.  So the
    verdict and the maximum profit of a feasible instance are those of the
    unbounded fronts.  As profits rise along a front, the entries the bound
    drops are its light end, and dropping them within the dominance step
    keeps what dropping them after it would.  With target 0 the bound drops
    nothing.  A front may end up empty, and then the instance is infeasible.

    The verdict and the achieved (maximum) profit agree with brute force.
    Ties between witnesses are broken deterministically over the sorted
    order: a witness takes a prefix of each class's order; among
    maximum-profit pairs the lightest prefix-front entry wins, paired with
    the heaviest suffix-front entry that fits; while a front is built, the
    entry with fewer items of the added class is kept on equal (weight,
    profit), as the merge lists it first and sorts by weight stably.
    ``chosen`` holds the original item indices.

    Cost is counted in front entries read and kept, not items, each weighted
    by value and mask width.  A class step reads the front and keeps at most
    ``steps + 1`` times its size, ``steps`` being how many first-k prefixes
    of the class fit the capacity; one whose ``(steps + 2)`` front sizes
    could push the total past ``MEET_IN_MIDDLE_BUDGET`` is refused before
    its entries are built.  A class of one item that fits is charged three
    front sizes.
    """
    n = len(inst.items)
    capacity, target = inst.capacity, inst.target
    weights = [it.weight for it in inst.items]
    profits = [it.profit for it in inst.items]
    # stable sorts: by weight, within a weight by profit from the highest, and
    # on equal profit by index from the last
    order = sorted(range(n - 1, -1, -1), key=profits.__getitem__, reverse=True)
    order.sort(key=weights.__getitem__)
    weights = [weights[i] for i in order]  # in sorted order from here on
    # [start, end) of each run of equal weight in sorted order
    cuts = [k for k in range(1, n) if weights[k] != weights[k - 1]]
    classes = list(zip([0, *cuts], [*cuts, n])) if n else []
    # profit of the first k sorted items; the prefix's side has yet to place
    # the items past its last class, the suffix's side those before its first
    acc = [0, *accumulate(profits[i] for i in order)]
    prefix = [(0, 0, 0)]
    suffix = [(0, 0, 0)]
    lo, hi = 0, len(classes) - 1
    spent = 0
    cost = 1 + (capacity.bit_length() + acc[n].bit_length() + n) // 2**10
    while lo <= hi:
        front = min(prefix, suffix, key=len)
        start, end = classes[lo] if front is prefix else classes[hi]
        weight = weights[start]
        steps = end - start if weight == 0 else min(end - start, capacity // weight)
        if spent + (steps + 2) * len(front) * cost > MEET_IN_MIDDLE_BUDGET:
            raise GuardError(
                "solve.mim",
                f"{n} items need over {MEET_IN_MIDDLE_BUDGET // cost} front entries,"
                f" charged {cost} each for value and mask width against a budget of"
                f" {MEET_IN_MIDDLE_BUDGET}",
            )
        # the front, and the front shifted by each first-k prefix of the class
        # that fits, the items at sorted positions start to k - 1
        merged = list(front)
        for k in range(start + 1, start + steps + 1):
            w_k, p_k, bits = (k - start) * weight, acc[k] - acc[start], (1 << k) - (1 << start)
            room = capacity - w_k
            merged += [(w + w_k, p + p_k, m | bits) for w, p, m in front if w <= room]
        merged.sort(key=itemgetter(0))
        floor = target - (acc[n] - acc[end] if front is prefix else acc[start])
        grown = []
        last_w, last_p = -1, floor - 1
        for entry in merged:
            w, p, _ = entry
            if p > last_p:
                if w == last_w:
                    grown[-1] = entry
                else:
                    grown.append(entry)
                last_w, last_p = w, p
        if front is prefix:
            prefix = grown
            lo += 1
        else:
            suffix = grown
            hi -= 1
        spent += (len(front) + len(grown)) * cost

    best_p = -1
    best_mask = 0
    j = len(suffix) - 1
    for w, p, m in prefix:
        # prefix weights rise, so the heaviest fitting suffix entry only
        # moves down; once none fits, no later prefix entry has one either
        while j >= 0 and suffix[j][0] > capacity - w:
            j -= 1
        if j < 0:
            break
        if p + suffix[j][1] > best_p:
            best_p = p + suffix[j][1]
            best_mask = m | suffix[j][2]

    if best_p < target:
        return SolverResult(feasible=False)
    chosen = frozenset(order[k] for k in _mask_indices(best_mask))
    return _witness(inst, chosen, best_p, "solve.mim")


def solve_dp_by_weight(inst: KnapsackInstance) -> SolverResult:
    """Weight-indexed dynamic program: cell ``w`` keeps the best profit at
    weight exactly ``w`` and the bitmask of a subset reaching it, up to the
    capacity or the total item weight, whichever is lower.  Ties prefer
    leaving an item out, and the witness is the lightest best cell."""
    n, capacity = len(inst.items), inst.capacity
    profit_bits = sum(it.profit for it in inst.items).bit_length()
    cells = (n + 1) * (capacity + 1) * (n // 2**12 + profit_bits // 2**12 + 1)
    if cells > DP_CELL_LIMIT:
        raise GuardError("solve.dp", f"{n} items at capacity {_shown(capacity)}:"
                         f" {_shown(cells)} cells, limit {DP_CELL_LIMIT}")
    top = min(capacity, sum(it.weight for it in inst.items))
    dp = [-1] * (top + 1)
    dp[0] = 0
    masks = [0] * (top + 1)
    for i, it in enumerate(inst.items):
        wi, pi, bit = it.weight, it.profit, 1 << i
        for w in range(top, wi - 1, -1):
            prev = dp[w - wi]
            if prev >= 0 and prev + pi > dp[w]:
                dp[w] = prev + pi
                masks[w] = masks[w - wi] | bit

    best_p = max(dp)
    if best_p < inst.target:
        return SolverResult(feasible=False)
    return _witness(inst, _mask_indices(masks[dp.index(best_p)]), best_p, "solve.dp")


def pick_oracle(inst: KnapsackInstance):
    """Item-level oracle for an instance, as ``(name, oracle)``: always
    meet-in-the-middle, whose own entry budget decides what it refuses."""
    return "mim", solve_meet_in_middle
