"""Shared reference oracles, all deliberately naive and independent of the
package's solver machinery."""

from __future__ import annotations

import itertools
import random

import pytest

from fewweights.core import Item, KnapsackInstance, RestrictedSubsetSumInstance


def knapsack_reference(inst: KnapsackInstance) -> int:
    """Maximum profit of a subset within the capacity, by direct combination
    enumeration (the empty subset always fits)."""
    best_profit = 0
    for r in range(len(inst.items) + 1):
        for combo in itertools.combinations(range(len(inst.items)), r):
            if sum(inst.items[i].weight for i in combo) <= inst.capacity:
                best_profit = max(best_profit, sum(inst.items[i].profit for i in combo))
    return best_profit


def subset_sum_reference(numbers, target) -> bool:
    sums = {0}
    for a in numbers:
        sums |= {s + a for s in sums}
    return target in sums


def ilp_reference(weights, profits, bounds, capacity, target) -> bool:
    """Feasibility of the bounded program by full assignment enumeration."""
    for x in itertools.product(*(range(b + 1) for b in bounds)):
        w = sum(c * v for c, v in zip(x, weights))
        p = sum(c * v for c, v in zip(x, profits))
        if w <= capacity and p >= target:
            return True
    return False


def l1_ball(dim, radius):
    """All nonzero integer vectors with l1-norm at most ``radius``."""

    def rec(i, rem):
        if i == dim:
            yield ()
            return
        for v in range(-rem, rem + 1):
            for rest in rec(i + 1, rem - abs(v)):
                yield (v,) + rest

    for b in rec(0, radius):
        if any(b):
            yield b


def sign(x) -> int:
    return (x > 0) - (x < 0)


def random_knapsack(rng: random.Random, n: int, max_value: int) -> KnapsackInstance:
    items = tuple(
        Item(rng.randrange(max_value + 1), rng.randrange(max_value + 1))
        for _ in range(n)
    )
    total_w = sum(it.weight for it in items)
    total_p = sum(it.profit for it in items)
    return KnapsackInstance(items, rng.randrange(total_w + 2), rng.randrange(total_p + 2))


# the palette form's pattern characters; character i names palette entry i
PATTERN_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_"


def expand_references(obj: dict) -> dict:
    """A knapsack document with each back-reference replaced by a copy of the
    entry it names, and a palette form by a copy of the palette entry each
    pattern character names: the document as the per-item format spelled
    it."""
    entries = obj["items"]
    if isinstance(entries, dict):
        palette = entries["palette"]
        items = [dict(palette[PATTERN_ALPHABET.index(c)]) for c in entries["pattern"]]
        return {**obj, "items": items}
    items: list = []
    for entry in entries:
        items.append(dict(items[entry]) if type(entry) is int else entry)
    return {**obj, "items": items}


@pytest.fixture
def rss_yes_1() -> RestrictedSubsetSumInstance:
    return RestrictedSubsetSumInstance(1, (84, 84, 84))


@pytest.fixture
def rss_no_1() -> RestrictedSubsetSumInstance:
    return RestrictedSubsetSumInstance(1, (12, 48, 192))
