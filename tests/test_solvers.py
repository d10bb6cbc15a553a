from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewweights.solvers as solvers
from conftest import knapsack_reference, random_knapsack
from fewweights.composition import compose, index_labels
from fewweights.core import GuardError, Index, Item, KnapsackInstance
from fewweights.generators import gen_knapsack, gen_rss
from fewweights.kernel import group, solve_grouped
from fewweights.solvers import (
    BRUTE_FORCE_LIMIT,
    DP_CELL_LIMIT,
    pick_oracle,
    solve_brute_force,
    solve_dp_by_weight,
    solve_meet_in_middle,
)

ALL_SOLVERS = [solve_brute_force, solve_meet_in_middle, solve_dp_by_weight]


def _doubling_items(n):
    """Item ``i`` has weight = profit = 2**i, so every subset is on the
    Pareto front and each front doubles with every item it takes."""
    return tuple(Item(2**i, 2**i) for i in range(n))


@pytest.mark.parametrize("solver", ALL_SOLVERS)
class TestKnownAnswers:
    def test_take_both(self, solver):
        inst = KnapsackInstance((Item(3, 3), Item(5, 5)), 8, 8)
        res = solver(inst)
        assert res.feasible and res.chosen == frozenset({0, 1})
        assert res.achieved_weight == 8 and res.achieved_profit == 8

    def test_empty_infeasible(self, solver):
        assert not solver(KnapsackInstance((), 0, 1)).feasible

    def test_zero_target_empty_set(self, solver):
        res = solver(KnapsackInstance((Item(1, 10),), 0, 0))
        assert res.feasible and res.chosen == frozenset()
        assert res.achieved_profit == 0

    def test_small_dp_case(self, solver):
        inst = KnapsackInstance((Item(2, 3), Item(2, 3), Item(2, 7)), 5, 10)
        res = solver(inst)
        assert res.feasible
        assert res.achieved_profit == 10  # capacity admits two items: (2,3) + (2,7)

    def test_zero_capacity(self, solver):
        inst = KnapsackInstance((Item(2, 3),), 0, 0)
        assert solver(inst).feasible


def test_small_dp_optimum_cross_check():
    inst = KnapsackInstance((Item(2, 3), Item(2, 3), Item(2, 7)), 5, 10)
    assert knapsack_reference(inst) == 10


class TestPairedRandom:
    def test_thousand_trials(self):
        rng = random.Random(20250810)
        for trial in range(1000):
            n = rng.randrange(0, 13) if trial % 10 else rng.randrange(13, 17)
            inst = random_knapsack(rng, n, 40)
            results = [s(inst) for s in ALL_SOLVERS]
            verdicts = {r.feasible for r in results}
            assert len(verdicts) == 1, (trial, inst)
            if results[0].feasible:
                profits = {r.achieved_profit for r in results}
                assert len(profits) == 1, (trial, inst)
                for r in results:
                    assert inst.subset_weight(r.chosen) == r.achieved_weight
                    assert inst.subset_profit(r.chosen) == r.achieved_profit
                    assert r.achieved_weight <= inst.capacity
                    assert r.achieved_profit >= inst.target
            if n <= 10:
                best_p = knapsack_reference(inst)
                assert results[0].feasible == (best_p >= inst.target)
                if results[0].feasible:
                    assert results[0].achieved_profit == best_p

    def test_big_values_brute_vs_mim(self):
        rng = random.Random(77)
        for _ in range(150):
            n = rng.randrange(0, 14)
            inst = random_knapsack(rng, n, 2**48)
            a = solve_brute_force(inst)
            b = solve_meet_in_middle(inst)
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.achieved_profit == b.achieved_profit

    def test_heavy_high_half_brute_vs_dp(self):
        # 20 items put two past brute force's 18-item low half; every
        # high-half subset with the 200-weight item exceeds the capacity
        rng = random.Random(19)
        items = [Item(rng.randrange(1, 30), rng.randrange(1, 30)) for _ in range(18)]
        inst = KnapsackInstance((*items, Item(200, 1000), Item(150, 900)), 180, 0)
        a = solve_brute_force(inst)
        assert a.achieved_profit == solve_dp_by_weight(inst).achieved_profit
        assert 19 in a.chosen and 18 not in a.chosen


class TestDeterminism:
    def test_repeat_runs_identical(self):
        rng = random.Random(5)
        inst = random_knapsack(rng, 12, 30)
        for solver in ALL_SOLVERS:
            first = solver(inst)
            second = solver(inst)
            assert first == second

    def test_brute_smallest_mask_tie_break(self):
        inst = KnapsackInstance((Item(1, 5), Item(1, 5)), 1, 5)
        assert solve_brute_force(inst).chosen == frozenset({0})
        inst = KnapsackInstance((Item(1, 5), Item(2, 5)), 2, 5)
        assert solve_brute_force(inst).chosen == frozenset({0})
        # the empty set is mask 0
        inst = KnapsackInstance((Item(1, 0),), 1, 0)
        assert solve_brute_force(inst).chosen == frozenset()
        # {1, 2} is mask 6 and {0, 3} mask 9, though (0, 3) < (1, 2)
        inst = KnapsackInstance(tuple(Item(v, v) for v in (1, 2, 3, 4)), 5, 5)
        assert solve_brute_force(inst).chosen == frozenset({1, 2})

    def test_mim_tie_break(self):
        # equal weights form one class, ordered by profit and then later index
        # first, so a witness that takes one of two equal items takes item 1
        inst = KnapsackInstance((Item(1, 5), Item(1, 5)), 1, 5)
        assert solve_meet_in_middle(inst).chosen == frozenset({1})
        # on equal (weight, profit) the entry with fewer items of the added
        # class stays, so the zero item 0 is left out
        inst = KnapsackInstance((Item(0, 0), Item(1, 5)), 1, 5)
        assert solve_meet_in_middle(inst).chosen == frozenset({1})
        # the split is over ascending weight: the lighter item 1 starts the
        # prefix, so the heavier item 0 is the suffix entry the empty prefix
        # entry pairs with
        inst = KnapsackInstance((Item(2, 5), Item(1, 5)), 2, 5)
        assert solve_meet_in_middle(inst).chosen == frozenset({0})

    def test_dp_tie_leaves_item_out(self):
        # {0} and {1, 2} both reach weight 3 and profit 5; item 2 would only
        # tie cell 3, so the cell keeps {0}
        inst = KnapsackInstance((Item(3, 5), Item(1, 2), Item(2, 3)), 3, 5)
        res = solve_dp_by_weight(inst)
        assert res.chosen == frozenset({0})
        assert (res.achieved_weight, res.achieved_profit) == (3, 5)
        # equal profits at weights 1 and 2: the lightest such cell is the witness
        inst = KnapsackInstance((Item(2, 4), Item(1, 4)), 2, 4)
        assert solve_dp_by_weight(inst).chosen == frozenset({1})

    def test_mim_original_indices(self):
        # descending weights: the split sees the items reversed, and the
        # unique optimum {1, 4} would read {0, 3} without the map back
        inst = KnapsackInstance(
            tuple(Item(w, p) for w, p in [(9, 1), (7, 8), (5, 1), (3, 1), (1, 6)]), 8, 14
        )
        res = solve_meet_in_middle(inst)
        assert res.chosen == frozenset({1, 4})
        assert (res.achieved_weight, res.achieved_profit) == (8, 14)
        # equal weights behind a heavier item 0: the unique optimum {2, 4}
        # sits at sorted positions {1, 3}
        inst = KnapsackInstance(
            (Item(4, 9),) + tuple(Item(2, p) for p in (1, 5, 3, 5)), 4, 10
        )
        res = solve_meet_in_middle(inst)
        assert res.chosen == frozenset({2, 4})
        assert (res.achieved_weight, res.achieved_profit) == (4, 10)


class TestGuards:
    def test_brute_limit(self):
        items = tuple(Item(1, 1) for _ in range(BRUTE_FORCE_LIMIT + 1))
        with pytest.raises(GuardError):
            solve_brute_force(KnapsackInstance(items, 1, 1))

    def test_mim_entry_budget(self, monkeypatch):
        # 12 doubling items: each side extends six times, reading 2**k and
        # keeping 2**(k+1) entries, so 2 * 3 * (2**6 - 1) = 378 in all;
        # target 0 turns the profit bound off, so every entry is kept
        inst = KnapsackInstance(_doubling_items(12), 2**12, 0)
        monkeypatch.setattr(solvers, "MEET_IN_MIDDLE_BUDGET", 378)
        res = solve_meet_in_middle(inst)
        assert res.feasible and res.achieved_profit == 2**12 - 1
        monkeypatch.setattr(solvers, "MEET_IN_MIDDLE_BUDGET", 377)
        with pytest.raises(GuardError) as exc:
            solve_meet_in_middle(inst)
        assert exc.value.code == "solve.mim"

    def test_mim_many_cheap_items(self):
        # the budget counts front entries, not items: equal items keep tiny fronts
        items = tuple(Item(1, 1) for _ in range(200))
        res = solve_meet_in_middle(KnapsackInstance(items, 100, 100))
        assert res.feasible and len(res.chosen) == 100

    def test_dp_capacity_limit(self):
        # the limit counts (items + 1) * (capacity + 1) cells, not capacity
        inst = KnapsackInstance((Item(1, 1),), DP_CELL_LIMIT // 2, 1)
        with pytest.raises(GuardError) as exc:
            solve_dp_by_weight(inst)
        assert exc.value.code == "solve.dp"

    def test_dp_table_stops_at_total_weight(self):
        # a capacity far above the total weight allocates only the cells
        # the items reach
        inst = KnapsackInstance((Item(2, 5),), DP_CELL_LIMIT // 2 - 1, 5)
        tracemalloc.start()
        try:
            res = solve_dp_by_weight(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.chosen, res.achieved_weight, res.achieved_profit) == ({0}, 2, 5)
        assert peak < 1 << 20

    def test_pick_oracle(self):
        assert pick_oracle(KnapsackInstance((), 0, 0))[0] == "mim"
        composed = compose([gen_rss(1, s, False) for s in range(16)])
        assert len(composed.knapsack.items) == 78
        assert pick_oracle(composed.knapsack)[0] == "mim"


class TestComposedInstances:
    def test_planted_yes_found_by_mim(self):
        inputs = [gen_rss(1, s, s == 2) for s in range(4)]
        comp = compose(inputs)
        res = solve_meet_in_middle(comp.knapsack)
        assert res.feasible
        assert res.achieved_weight <= comp.constants.capacity
        assert res.achieved_profit >= comp.constants.target

    def test_all_no_rejected_by_mim(self):
        inputs = [gen_rss(1, s, False) for s in range(4)]
        comp = compose(inputs)
        assert not solve_meet_in_middle(comp.knapsack).feasible

    def test_mim_decides_t8(self):
        rng = random.Random(8)
        patterns = [
            [False] * 8,
            [i == 5 for i in range(8)],
            [rng.random() < 0.5 for _ in range(8)],
        ]
        for pattern in patterns:
            comp = compose([gen_rss(1, 100 + s, yes) for s, yes in enumerate(pattern)])
            assert len(comp.knapsack.items) == 42
            res = solve_meet_in_middle(comp.knapsack)
            assert res.feasible == any(pattern), pattern
            if res.feasible:
                assert comp.knapsack.subset_weight(res.chosen) == res.achieved_weight
                assert comp.knapsack.subset_profit(res.chosen) == res.achieved_profit
                assert res.achieved_weight <= comp.constants.capacity
                assert res.achieved_profit >= comp.constants.target

    def test_pick_oracle_decides_t16(self):
        no = compose([gen_rss(1, s, False) for s in range(16)]).knapsack
        _, oracle = pick_oracle(no)
        assert not oracle(no).feasible

        comp = compose([gen_rss(1, s, s == 3) for s in range(16)])
        yes = comp.knapsack
        _, oracle = pick_oracle(yes)
        res = oracle(yes)
        assert res.feasible
        # the maximal witness is the canonical solution of input 3
        assert res.achieved_weight == yes.capacity
        assert res.achieved_profit == yes.target
        assert yes.subset_weight(res.chosen) == res.achieved_weight
        assert yes.subset_profit(res.chosen) == res.achieved_profit
        index_items = frozenset(
            yes.items[i].label for i in res.chosen if isinstance(yes.items[i].label, Index)
        )
        assert index_items == index_labels(3, comp.constants.lg_t)
        assert solve_grouped(group(yes)).feasible


def _tied_knapsacks():
    """Up to 20 items drawn from pools of at most three weights and three
    profits, so most items share their weight, their profit or both."""
    rng = random.Random(2026)
    for _ in range(400):
        w_pool = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
        p_pool = [rng.randrange(5) for _ in range(rng.randrange(1, 4))]
        items = tuple(
            Item(rng.choice(w_pool), rng.choice(p_pool)) for _ in range(rng.randrange(21))
        )
        total_w = sum(it.weight for it in items)
        total_p = sum(it.profit for it in items)
        yield KnapsackInstance(items, rng.randrange(total_w + 2), rng.randrange(total_p + 2))


def _composed_knapsacks():
    """Compositions at t = 2..16 and n = 1, 2: all-no, last-yes, middle-yes."""
    for t in (2, 4, 8, 16):
        for n in (1, 2):
            for yes in (None, t - 1, t // 2):
                yield compose([gen_rss(n, 10 * t + i, i == yes) for i in range(t)]).knapsack


# few-weight inputs of 1024-2048 items that meet-in-the-middle decided in
# under 0.4 s when it still extended its fronts one item at a time
_FEW_WEIGHT_SHAPES = [
    (1024, 2, 8, 256, 7),
    (1024, 2, 8, 256, 8),
    (2048, 2, 8, 256, 7),
    (2048, 2, 8, 256, 8),
    (4096, 4, 4, 256, 7),
    (1024, 3, 3, 64, 7),
    (1024, 3, 3, 64, 8),
]


def test_mim_verdicts_pinned():
    # sha256 over (feasible, achieved profit) of every input, witnesses left
    # out: 400 tied small instances, 24 compositions and 7 few-weight inputs,
    # as decided by the item-at-a-time search
    rows = []
    witnesses = []
    few = (gen_knapsack(n, w, p, 2**bits, seed) for n, w, p, bits, seed in _FEW_WEIGHT_SHAPES)
    for inst in (*_tied_knapsacks(), *_composed_knapsacks(), *few):
        res = solve_meet_in_middle(inst)
        rows.append([res.feasible, str(res.achieved_profit)])
        witnesses.append([res.feasible, str(res.achieved_weight), str(res.achieved_profit),
                          sorted(res.chosen or ())])
    assert sum(feasible for feasible, _ in rows) == 268 + 16 + 3
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "7107eda2d486336d9ad9fe5765928655a1e93480532a6aaa5fa2da69cc18cf97"
    # and over the witnesses too, as the class-at-a-time search picks them
    digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
    assert digest == "6a79a0c7e2021e12891922211f1b9c88cf1f5a7a1956e102f46d7121c26f2862"


_SMALL = st.sampled_from([0, 1, 2, 7])


@st.composite
def _pruning_knapsacks(draw):
    """Up to 16 items in shapes that defeat or stress Pareto pruning."""
    shape = draw(st.sampled_from(["random", "weight_is_profit", "duplicates", "zeros"]))
    if shape == "random":
        pairs = draw(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
                              max_size=16))
    elif shape == "weight_is_profit":
        pairs = [(v, v) for v in draw(st.lists(st.integers(0, 60), max_size=16))]
    elif shape == "duplicates":
        palette = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                min_size=1, max_size=3))
        pairs = draw(st.lists(st.sampled_from(palette), max_size=16))
    else:
        pairs = draw(st.lists(st.tuples(_SMALL, _SMALL), max_size=16))
    total_w = sum(w for w, _ in pairs)
    total_p = sum(p for _, p in pairs)
    capacity = draw(st.one_of(st.just(0), st.integers(0, total_w)))
    target = draw(st.one_of(st.just(0), st.integers(0, total_p + 1)))
    return KnapsackInstance(tuple(Item(w, p) for w, p in pairs), capacity, target)


@settings(max_examples=250, deadline=None)
@given(_pruning_knapsacks())
def test_mim_matches_brute_force(inst):
    expected = solve_brute_force(inst)
    got = solve_meet_in_middle(inst)
    assert got.feasible == expected.feasible
    if got.feasible:
        # a feasible result carries the maximum profit, not just one >= target
        assert got.achieved_profit == expected.achieved_profit
        assert inst.subset_weight(got.chosen) == got.achieved_weight
        assert inst.subset_profit(got.chosen) == got.achieved_profit
        assert got.achieved_weight <= inst.capacity


@st.composite
def _knapsacks_and_optimum(draw):
    """Up to 14 items with weights and profits in small ranges, so ties are
    common, plus the capacity and the optimum profit under it."""
    top = draw(st.sampled_from([1, 3, 10]))
    value = st.integers(0, top)
    pairs = draw(st.lists(st.tuples(value, value), max_size=14))
    items = tuple(Item(w, p) for w, p in pairs)
    capacity = draw(st.integers(0, sum(w for w, _ in pairs)))
    optimum = solve_brute_force(KnapsackInstance(items, capacity, 0)).achieved_profit
    return items, capacity, optimum


@settings(max_examples=300, deadline=None)
@given(_knapsacks_and_optimum(), st.sampled_from([-1, 0, 1]))
def test_mim_target_at_optimum(drawn, offset):
    # the profit bound is tightest when the target sits at the optimum
    items, capacity, optimum = drawn
    inst = KnapsackInstance(items, capacity, max(0, optimum + offset))
    expected = solve_brute_force(inst)
    got = solve_meet_in_middle(inst)
    assert got.feasible == expected.feasible == (offset <= 0)
    if got.feasible:
        assert got.achieved_profit == expected.achieved_profit == optimum
        assert inst.subset_weight(got.chosen) == got.achieved_weight
        assert inst.subset_profit(got.chosen) == got.achieved_profit
        assert got.achieved_weight <= inst.capacity


@settings(max_examples=300, deadline=None)
@given(_knapsacks_and_optimum(), st.sampled_from([-1, 0]))
def test_mim_witness_takes_class_prefixes(drawn, offset):
    # within each class of equal weight a witness takes the first items of
    # the class's order: profit highest first, then the later index
    items, capacity, optimum = drawn
    inst = KnapsackInstance(items, capacity, max(0, optimum + offset))
    res = solve_meet_in_middle(inst)
    assert res.feasible and res.achieved_profit == optimum
    for weight in {it.weight for it in items}:
        order = sorted(
            (i for i, it in enumerate(items) if it.weight == weight),
            key=lambda i: (-items[i].profit, -i),
        )
        taken = [i in res.chosen for i in order]
        assert taken == sorted(taken, reverse=True), (weight, order, res.chosen)
