"""Seeded, bit-reproducible instance generators.

All randomness flows through :class:`SplitMix64`, a self-contained 64-bit
generator chosen so that a fixed seed produces identical instances on every
platform and Python version.  No-instances are never constructed blindly:
they are rejection-sampled against the exact cover oracle, so every label is
ground truth.
"""

from __future__ import annotations

from .core import (
    GuardError,
    InvariantError,
    Item,
    KnapsackInstance,
    RestrictedSubsetSumInstance,
    X3CInstance,
)
from .reductions import x3c_has_exact_cover, x3c_to_rss

__all__ = [
    "SplitMix64",
    "gen_x3c",
    "gen_rss",
    "gen_knapsack",
    "RSS_NO_INSTANCE_SIZE_1",
]

_MASK64 = (1 << 64) - 1
_RESAMPLE_BUDGET = 10**5
# Largest yes-instance sizes, in n or in items times 64-bit words per value;
# `fewweights gen` at each (Python 3.11, 2 vCPUs) takes 1.9 s for x3c, 2.4 s for
# rss, and for knapsack 0.6 s, or 3.0 s with every value distinct and
# max_value = items, where the distinct draws collect coupons
_X3C_SIZE_LIMIT = 2**15
_RSS_SIZE_LIMIT = 400
_KNAPSACK_WORDS_LIMIT = 2**15

# The only size-1 instance family has a single possible triple, so a verified
# no-instance cannot come from triples; this universe-member multiset is the
# deterministic fallback: sums to three times the target, but no single
# number hits it.
RSS_NO_INSTANCE_SIZE_1 = (12, 48, 192)


class SplitMix64:
    """SplitMix64: named, portable 64-bit generator (Steele, Lea, Vigna).

    state' = state + 0x9E3779B97F4A7C15;  the output mixes the new state with
    two xor-shift-multiply rounds.  Same seed, same byte stream, everywhere.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_word(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 by unbiased rejection; bounds beyond
        64 bits draw several words."""
        if bound <= 0:
            raise InvariantError("rng.bound", f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        bits = bound.bit_length()
        words = (bits + 63) // 64
        shift = 64 * words - bits
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next_word()
            value >>= shift
            if value < bound:
                return value

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def _random_partition_triples(rng: SplitMix64, n: int) -> list[tuple[int, int, int]]:
    elements = list(range(1, 3 * n + 1))
    rng.shuffle(elements)
    return [
        tuple(sorted(elements[3 * i : 3 * i + 3]))  # noqa: E203
        for i in range(n)
    ]


def gen_x3c(n: int, seed: int, want_yes: bool) -> X3CInstance:
    """Seeded cover instance with a known answer.

    A yes-instance concatenates three independent random partitions of the
    universe into triples, so the first ``n`` triples are a planted cover
    (and every element occurs exactly three times).  A no-instance instead
    shuffles three copies of every element into random triples and
    rejection-samples until the brute-force oracle confirms no cover exists;
    three full partitions would each contain a cover, so they cannot serve
    here.
    """
    if n < 1:
        raise InvariantError("gen.n", "size parameter must be >= 1")
    rng = SplitMix64(seed)
    if want_yes:
        if n > _X3C_SIZE_LIMIT:
            raise GuardError("gen.size", f"n = {n}, limit {_X3C_SIZE_LIMIT}")
        triples = []
        for _ in range(3):
            triples.extend(_random_partition_triples(rng, n))
        return X3CInstance(n, tuple(triples))

    if n == 1:
        raise GuardError(
            "gen.x3c-no", "every size-1 instance contains a cover; no-instance impossible"
        )
    if n > 3:
        raise GuardError(
            "gen.x3c-no", f"verified no-instances are desk-scale only (n <= 3), got {n}"
        )
    slots = [j for j in range(1, 3 * n + 1) for _ in range(3)]
    for _ in range(_RESAMPLE_BUDGET):
        rng.shuffle(slots)
        triples = [
            tuple(sorted(slots[3 * i : 3 * i + 3]))  # noqa: E203
            for i in range(3 * n)
        ]
        if any(len(set(t)) != 3 for t in triples):
            continue
        inst = X3CInstance(n, tuple(triples))
        if not x3c_has_exact_cover(inst):
            return inst
    raise GuardError("gen.x3c-budget", f"no no-instance found in {_RESAMPLE_BUDGET} tries")


def gen_rss(n: int, seed: int, want_yes: bool) -> RestrictedSubsetSumInstance:
    """Restricted instance with a known answer, via the cover reduction.

    Size 1 has no cover-based no-instance, so that one case returns the
    hardcoded fallback multiset instead.
    """
    if not want_yes and n == 1:
        return RestrictedSubsetSumInstance(1, RSS_NO_INSTANCE_SIZE_1)
    if want_yes and n > _RSS_SIZE_LIMIT:
        raise GuardError("gen.size", f"n = {n}, limit {_RSS_SIZE_LIMIT}")
    return x3c_to_rss(gen_x3c(n, seed, want_yes))


def _distinct_values(rng: SplitMix64, count: int, top: int) -> list[int]:
    # draws from 1..top, insertion order kept for determinism
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        v = rng.randrange(top) + 1
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def gen_knapsack(
    n_items: int, w_distinct: int, p_distinct: int, max_value: int, seed: int
) -> KnapsackInstance:
    """Random instance with exactly the requested numbers of distinct weights
    and profits.

    Every sampled value is used at least once; the remaining items draw
    uniformly from the pools.  Capacity and target are uniform over the
    achievable ranges so that both verdicts occur.
    """
    if n_items < 1:
        raise InvariantError("gen.items", "need at least one item")
    if not 1 <= w_distinct <= n_items or not 1 <= p_distinct <= n_items:
        raise InvariantError(
            "gen.distinct", "distinct counts must lie in 1..n_items"
        )
    if max_value < max(w_distinct, p_distinct):
        raise InvariantError(
            "gen.max-value", "max_value too small for the requested distinct counts"
        )
    words = n_items * (max_value.bit_length() // 64 + 1)
    if words > _KNAPSACK_WORDS_LIMIT:
        raise GuardError("gen.size", f"{words} item words, limit {_KNAPSACK_WORDS_LIMIT}")
    rng = SplitMix64(seed)
    weights = _distinct_values(rng, w_distinct, max_value)
    profits = _distinct_values(rng, p_distinct, max_value)
    weight_column = weights + [rng.choice(weights) for _ in range(n_items - w_distinct)]
    profit_column = profits + [rng.choice(profits) for _ in range(n_items - p_distinct)]
    rng.shuffle(weight_column)
    rng.shuffle(profit_column)
    pairs = list(zip(weight_column, profit_column))
    shared = {pair: Item(*pair) for pair in set(pairs)}  # one Item per distinct pair
    items = tuple(map(shared.__getitem__, pairs))
    capacity = rng.randrange(sum(weight_column) + 1)
    target = rng.randrange(sum(profit_column) + 1)
    return KnapsackInstance(items, capacity, target)
