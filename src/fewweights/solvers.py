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

from operator import itemgetter

from .core import GuardError, InternalError, KnapsackInstance, SolverResult

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
# counted once more per 2**10 bits of capacity plus total profit; with target
# 0, where the profit bound drops nothing, 40 items of weight = profit = 2**i
# stay within it in about 3 s at 425 MB peak RSS, and 30 items of weight 2**i
# and profit 2**(40000 + i) in 0.6 s at 361 MB (Python 3.11, 2 vCPUs)
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
        raise InternalError(code, f"witness weight {weight}, profit {profit}; "
                            f"capacity {inst.capacity}, optimum {optimum}")
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


def _extend_front(front: list, i: int, item, capacity: int, floor: int) -> list:
    """Add item ``i`` to a Pareto front of ``(weight, profit, mask)`` entries.

    The front is sorted by weight, and each entry is strictly heavier and
    strictly more profitable than the one before it.  Shifted entries over
    ``capacity`` are dropped, and so are entries whose profit is below
    ``floor``; they form the front's light end, so this is the same as
    pruning after the dominance step.  At equal weight the stable sort puts
    the entry without item ``i`` first, so on equal (weight, profit) it is
    kept.
    """
    w_i, p_i, bit = item.weight, item.profit, 1 << i
    room = capacity - w_i
    shifted = [(w + w_i, p + p_i, m | bit) for w, p, m in front if w <= room]
    out = []
    last_w, last_p = -1, floor - 1
    for entry in sorted(front + shifted, key=itemgetter(0)):
        w, p, _ = entry
        if p > last_p:
            if w == last_w:
                out[-1] = entry
            else:
                out.append(entry)
            last_w, last_p = w, p
    return out


def solve_meet_in_middle(inst: KnapsackInstance) -> SolverResult:
    """Build the Pareto front of a prefix and of a suffix of the items in
    ascending weight order, then combine them in one two-pointer sweep
    (Horowitz–Sahni split with Nemhauser–Ullmann dominance pruning and a
    profit bound on each front).

    The items are sorted by weight (stable, so equal weights keep index
    order).  The prefix grows from the lightest item and the suffix from the
    heaviest; each next item goes to whichever front is smaller, ties to the
    prefix.  A front entry is a subset of its side that no other subset of
    that side dominates by weight and profit, so the best fitting pair over
    the two fronts is a maximum-profit subset.

    Each extension also drops every entry whose profit plus the profit of
    all items not yet placed on its side is below ``inst.target``.  This is
    exact: a subset that reaches the target splits into one part per side,
    and each part (and every entry that dominates it) passes the bound; an
    entry that fails it fails it again after every later extension.  So the
    verdict and the maximum profit of a feasible instance are those of the
    unbounded fronts.  With target 0 the bound drops nothing.  A front may
    end up empty, and then the instance is infeasible.

    The verdict and the achieved (maximum) profit agree with brute force.
    Ties between witnesses are broken deterministically over the sorted
    order: among maximum-profit pairs the lightest prefix-front entry wins,
    paired with the heaviest suffix-front entry that fits; while a front is
    built, the entry without the later-added item is kept on equal (weight,
    profit).  ``chosen`` holds the original item indices.

    Cost is counted in front entries read and kept, not items, each weighted
    by value width: an extension keeps at most twice what it reads, and one
    that could push the total past ``MEET_IN_MIDDLE_BUDGET`` is refused first.
    """
    n = len(inst.items)
    capacity, target = inst.capacity, inst.target
    order = sorted(range(n), key=lambda i: inst.items[i].weight)
    items = [inst.items[i] for i in order]
    # profit of the items not yet placed on the prefix's / the suffix's side
    prefix_rest = suffix_rest = sum(it.profit for it in items)
    prefix = [(0, 0, 0)]
    suffix = [(0, 0, 0)]
    lo, hi = 0, n - 1
    spent = 0
    cost = 1 + (capacity.bit_length() + prefix_rest.bit_length()) // 2**10
    while lo <= hi:
        front = min(prefix, suffix, key=len)
        if spent + 3 * len(front) * cost > MEET_IN_MIDDLE_BUDGET:
            raise GuardError(
                "solve.mim",
                f"{n} items need over {MEET_IN_MIDDLE_BUDGET // cost} front entries,"
                f" charged {cost} each for value width against a budget of"
                f" {MEET_IN_MIDDLE_BUDGET}",
            )
        if front is prefix:
            prefix_rest -= items[lo].profit
            prefix = grown = _extend_front(front, lo, items[lo], capacity, target - prefix_rest)
            lo += 1
        else:
            suffix_rest -= items[hi].profit
            suffix = grown = _extend_front(front, hi, items[hi], capacity, target - suffix_rest)
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
        raise GuardError("solve.dp", f"{n} items at capacity {capacity}: {cells} cells, "
                         f"limit {DP_CELL_LIMIT}")
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
