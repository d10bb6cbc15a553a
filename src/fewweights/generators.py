"""Seeded, bit-reproducible instance generators.

All randomness flows through :class:`SplitMix64`, a self-contained 64-bit
generator chosen so that a fixed seed produces identical instances on every
platform and Python version.  No-instances are never constructed blindly:
they are rejection-sampled against the exact cover oracle, so every label is
ground truth.
"""

from __future__ import annotations

import struct

from .core import (
    GuardError,
    InvariantError,
    Item,
    KnapsackInstance,
    RestrictedSubsetSumInstance,
    X3CInstance,
    _check_int,
    _shown,
)
from .reductions import _RSS_SIZE_LIMIT, x3c_has_exact_cover, x3c_to_rss

__all__ = [
    "SplitMix64",
    "gen_x3c",
    "gen_rss",
    "gen_knapsack",
    "RSS_NO_INSTANCE_SIZE_1",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# words mixed at once at most; past this the cost per word stops falling and
# a bigger block only holds more memory
_BLOCK = 256


def _lanes(count: int):
    """``count``, then lanes 0..count-1 holding 1, (i + 1)·gamma mod 2^64 and
    2^64 - 1 in lane i, and the little-endian unpacking of each lane's low word."""
    layout = struct.Struct("<" + "Q8x" * count)
    ones = int.from_bytes(layout.pack(*[1] * count), "little")
    steps = [(i + 1) * _GAMMA & _MASK64 for i in range(count)]
    ramp = int.from_bytes(layout.pack(*steps), "little")
    return count, ones, ramp, ones * _MASK64, layout.unpack


# _LANES[c] for 2 <= c <= _BLOCK: the lanes of the least power of two >= c
_LANES = [None, None] + [
    lanes for k in range(1, _BLOCK.bit_length()) for lanes in [_lanes(1 << k)] * (1 << k - 1)
]
_RESAMPLE_BUDGET = 10**5
# Largest yes-instance sizes, in n or in items times 64-bit words per value
# (rss's is in reductions); `fewweights gen` at each (Python 3.11.7, 2 vCPUs)
# takes 1.2-1.3 s for x3c, 0.4-0.5 s for rss, and for knapsack 0.5 s, or 1.5 s
# with every value distinct and max_value = items: the draws collect coupons
_X3C_SIZE_LIMIT = 2**15
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

    After k words the state is seed + k·0x9E3779B97F4A7C15 mod 2^64, so the
    states of a block of words are known at once, and the block is mixed as
    one Python int with each word in the low half of its own 128-bit lane.
    A lane never carries into the next: a state lane is below 2^65 before it
    is reduced, each shift is masked back to the low 64 bits of every lane
    before the xor, so no lane's bits reach another's, and a 64-bit lane
    times a 64-bit constant stays below 2^128.  A batch of draws mixes words
    a block at a time and hands the words it did not use back by stepping
    the state back, so it reads the stream a word-at-a-time loop would.
    """

    def __init__(self, seed: int):
        _check_int("rng.seed", "seed", seed)
        self._state = seed & _MASK64

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state, _MASK64)

    def randrange(self, bound: int) -> int:
        """Uniform draw from 0..bound-1 by unbiased rejection; bounds beyond
        64 bits draw several words."""
        _check_int("rng.bound", "bound", bound, 1)
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
        i = len(seq)
        for j in self._draws(range(i, 1, -1)):
            i -= 1
            seq[i], seq[j] = seq[j], seq[i]

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def choices(self, seq, k: int) -> list:
        """``k`` independent draws from ``seq``: ``[choice(seq) for _ in range(k)]``."""
        return [seq[j] for j in self._draws([len(seq)] * k)]

    def _draws(self, bounds) -> list[int]:
        """``[randrange(b) for b in bounds]``, with the words for bounds of
        2 to 2^64 - 1 mixed a block at a time; a bound of 1 takes no word."""
        out: list[int] = []
        words: tuple[int, ...] = ()
        pos = have = 0
        end = self._state  # state of the last word mixed
        for bound in bounds:
            if not 1 < bound <= _MASK64:
                if bound == 1:
                    out.append(0)
                    continue
                self._state = (end - (have - pos) * _GAMMA) & _MASK64
                out.append(self.randrange(bound))
                words, pos, have, end = (), 0, 0, self._state
                continue
            shift = 64 - bound.bit_length()
            while True:
                if pos == have:
                    # twice the words the remaining bounds need without rejection
                    want = min(2 * (len(bounds) - len(out)), _BLOCK)
                    have, ones, ramp, mask, unpack = _LANES[want]
                    mixed = _mix((end * ones + ramp) & mask, mask)
                    words = unpack(mixed.to_bytes(have << 4, "little"))
                    end = (end + have * _GAMMA) & _MASK64
                    pos = 0
                value = words[pos] >> shift
                pos += 1
                if value < bound:
                    break
            out.append(value)
        self._state = (end - (have - pos) * _GAMMA) & _MASK64
        return out


def _mix(z: int, mask: int) -> int:
    """SplitMix64's output function on each 128-bit lane of ``z`` whose low
    64 bits ``mask`` selects."""
    z = ((z ^ ((z >> 30) & mask)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ ((z >> 27) & mask)) * 0x94D049BB133111EB) & mask
    return z ^ ((z >> 31) & mask)


def _random_partition_triples(rng: SplitMix64, n: int) -> list[tuple[int, int, int]]:
    elements = list(range(1, 3 * n + 1))
    rng.shuffle(elements)
    # X3CInstance sorts each triple
    return [tuple(elements[3 * i : 3 * i + 3]) for i in range(n)]  # noqa: E203


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
    _check_int("gen.n", "size parameter", n, 1)
    rng = SplitMix64(seed)
    if want_yes:
        if n > _X3C_SIZE_LIMIT:
            raise GuardError("gen.size", f"n = {_shown(n)}, limit {_X3C_SIZE_LIMIT}")
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
            "gen.x3c-no", f"verified no-instances are desk-scale only (n <= 3), got {_shown(n)}"
        )
    slots = [j for j in range(1, 3 * n + 1) for _ in range(3)]
    for _ in range(_RESAMPLE_BUDGET):
        rng.shuffle(slots)
        triples = [tuple(slots[3 * i : 3 * i + 3]) for i in range(3 * n)]  # noqa: E203
        if any(len(set(t)) != 3 for t in triples):
            continue
        inst = X3CInstance(n, tuple(triples))
        if not x3c_has_exact_cover(inst):
            return inst
    raise GuardError("gen.x3c-budget", f"no no-instance found in {_RESAMPLE_BUDGET} tries")


# the universe {1, 2, 3} has a single triple, so every size-1 cover instance
# is that triple three times, whatever the seed
_RSS_YES_SIZE_1 = x3c_to_rss(gen_x3c(1, 0, True))
_RSS_NO_SIZE_1 = RestrictedSubsetSumInstance(1, RSS_NO_INSTANCE_SIZE_1)


def gen_rss(n: int, seed: int, want_yes: bool) -> RestrictedSubsetSumInstance:
    """Restricted instance with a known answer, via the cover reduction.

    At size 1 the seed does not matter: the one cover instance reduces to
    the yes-instance (84, 84, 84), and since size 1 has no cover-based
    no-instance, the no-instance is the hardcoded fallback multiset.  Both
    are built once, and every size-1 call returns one of the two.
    """
    _check_int("gen.n", "size parameter", n)
    _check_int("rng.seed", "seed", seed)
    if n == 1:
        return _RSS_YES_SIZE_1 if want_yes else _RSS_NO_SIZE_1
    if want_yes and n > _RSS_SIZE_LIMIT:
        raise GuardError("gen.size", f"n = {_shown(n)}, limit {_RSS_SIZE_LIMIT}")
    return x3c_to_rss(gen_x3c(n, seed, want_yes))


def _distinct_values(rng: SplitMix64, count: int, top: int) -> list[int]:
    # draws from 1..top, insertion order kept for determinism
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        # each draw adds at most one value, so none of these is one too many
        for v in rng._draws([top] * (count - len(out))):
            if v + 1 not in seen:
                seen.add(v + 1)
                out.append(v + 1)
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
    _check_int("gen.items", "item count", n_items, 1)
    _check_int("gen.distinct", "distinct count", w_distinct)
    _check_int("gen.distinct", "distinct count", p_distinct)
    _check_int("gen.max-value", "max_value", max_value)
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
        raise GuardError("gen.size", f"{_shown(words)} item words, limit {_KNAPSACK_WORDS_LIMIT}")
    rng = SplitMix64(seed)
    weights = _distinct_values(rng, w_distinct, max_value)
    profits = _distinct_values(rng, p_distinct, max_value)
    weight_column = weights + rng.choices(weights, n_items - w_distinct)
    profit_column = profits + rng.choices(profits, n_items - p_distinct)
    rng.shuffle(weight_column)
    rng.shuffle(profit_column)
    pairs = list(zip(weight_column, profit_column))
    shared = {pair: Item(*pair) for pair in set(pairs)}  # one Item per distinct pair
    items = tuple(map(shared.__getitem__, pairs))
    capacity = rng.randrange(sum(weight_column) + 1)
    target = rng.randrange(sum(profit_column) + 1)
    return KnapsackInstance(items, capacity, target)
