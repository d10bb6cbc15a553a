"""Problem-to-problem transformations and the small exact-cover oracle.

The cover-to-numbers map turns each triple into the sum of the corresponding
base powers, so a family of triples partitions the universe exactly when the
mapped numbers hit the common target.  The exact-cover brute force is kept
deliberately naive; it is the reference oracle everything else is checked
against.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import (
    GuardError,
    Item,
    KnapsackInstance,
    RestrictedSubsetSumInstance,
    SolverResult,
    SubsetSumInstance,
    X3CInstance,
    restricted_target,
)

__all__ = [
    "x3c_to_rss",
    "subset_sum_to_knapsack",
    "rss_decide",
    "x3c_has_exact_cover",
]

_RSS_DECIDE_GUARD = 10**6
# the largest n mapped to numbers, which is also `gen_rss`'s yes-instance limit
_RSS_SIZE_LIMIT = 400


def x3c_to_rss(inst: X3CInstance) -> RestrictedSubsetSumInstance:
    """Map each triple to the sum of base powers at its elements, keeping the
    input order.  The result is always a valid restricted instance: every
    element occurs in exactly three triples, so the numbers sum to three
    times the target."""
    if inst.n > _RSS_SIZE_LIMIT:
        raise GuardError("reduce.size", f"n = {inst.n}, limit {_RSS_SIZE_LIMIT}")
    base = 3 * inst.n + 1
    numbers = tuple(sum(base**j for j in t) for t in inst.triples)
    return RestrictedSubsetSumInstance(inst.n, numbers)


def subset_sum_to_knapsack(inst: SubsetSumInstance) -> KnapsackInstance:
    """Weight-equals-profit embedding: capacity and target both become the
    subset-sum target."""
    items = tuple(Item(a, a) for a in inst.numbers)
    return KnapsackInstance(items, inst.target, inst.target)


def rss_decide(inst: RestrictedSubsetSumInstance) -> SolverResult:
    """Exact decision by enumerating all cardinality-``n`` position subsets.

    Only subsets of exactly ``n`` positions count as solutions; other
    cardinalities are not searched.  Positions are reported 0-based in
    the order the subset enumeration first finds a hit.
    """
    m = 3 * inst.n
    if comb(m, inst.n) > _RSS_DECIDE_GUARD:
        raise GuardError(
            "rss.decide", f"C({m},{inst.n}) exceeds guard {_RSS_DECIDE_GUARD}"
        )
    target = restricted_target(inst.n)
    for positions in combinations(range(m), inst.n):
        total = sum(inst.numbers[p] for p in positions)
        if total == target:
            return SolverResult(
                feasible=True,
                chosen=frozenset(positions),
                achieved_weight=total,
                achieved_profit=total,
            )
    return SolverResult(feasible=False)


def x3c_has_exact_cover(inst: X3CInstance) -> bool:
    """Brute-force exact-cover check: try every choice of ``n`` triples."""
    m = 3 * inst.n
    if comb(m, inst.n) > _RSS_DECIDE_GUARD:
        raise GuardError(
            "x3c.cover", f"C({m},{inst.n}) exceeds guard {_RSS_DECIDE_GUARD}"
        )
    for chosen in combinations(inst.triples, inst.n):
        seen: set[int] = set()
        for t in chosen:
            seen.update(t)
        # triples are validated subsets of 1..3n, so full coverage == cover
        if len(seen) == m:
            return True
    return False
