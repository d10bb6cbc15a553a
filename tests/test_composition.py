from __future__ import annotations

import hashlib
import json
from itertools import product
from math import comb

import pytest

from fewweights.composition import (
    ComposedInstance,
    CompositionConstants,
    build_encoding_items,
    build_index_items,
    build_quadratization_items,
    canonical_solution,
    compose,
    composition_metadata,
    count_distinct_profits,
    count_distinct_weights,
    index_labels,
    pad_to_power_of_two,
    quadratization_labels,
)
from fewweights.core import (
    Encoding,
    Index,
    InvariantError,
    Item,
    KnapsackInstance,
    Quadratization,
    RestrictedSubsetSumInstance,
)
from fewweights.generators import gen_rss
from fewweights.serialize import instance_to_obj
from fewweights.solvers import solve_brute_force


YES1 = RestrictedSubsetSumInstance(1, (84, 84, 84))
NO1 = RestrictedSubsetSumInstance(1, (12, 48, 192))


class TestConstants:
    def test_frozen_values_size_two_one(self):
        c = CompositionConstants(2, 1)
        assert c.rss_target == 84
        assert c.shift == 504          # 3 * 2 * 1 * 84
        assert c.block == 588          # 84 + 1 * 504
        assert c.quad_scale == 21168   # 9 * 4 * 1 * 588
        assert c.layer_total == 1
        assert c.index_scale == 3 * 21168**2  # lg t = 1
        assert c.capacity == c.index_scale + 21168 + 4 * 588 == 1344276192
        assert c.target == c.capacity + 9 * 588 == 1344281484

    def test_quad_scale_dominates_encoding_profits(self):
        for t, n in product((2, 4, 8, 16), (1, 2)):
            c = CompositionConstants(t, n)
            total = 3 * t * c.block + 9 * n * c.block * comb(t, 2)
            assert c.quad_scale > total

    def test_rejects_bad_shape(self):
        with pytest.raises(InvariantError):
            CompositionConstants(3, 1)
        with pytest.raises(InvariantError):
            CompositionConstants(1, 1)
        with pytest.raises(InvariantError):
            CompositionConstants(2, 0)

    def test_derived_magnitudes_are_not_arguments(self):
        with pytest.raises(TypeError):
            CompositionConstants(2, 1, capacity=5)

    def test_pair_code_bijective(self):
        c = CompositionConstants(16, 1)
        codes = {c.pair_code(k, l) for k in range(4) for l in range(4)}
        assert codes == set(range(16))


class TestPinnedOutputs:
    """Digests of the constants and of composed documents, so a rewrite of
    the magnitudes or the item families that changes a byte fails here."""

    def test_constants(self):
        rows = []
        for t in (2, 4, 8, 16, 32):
            for n in (1, 2, 3):
                c = CompositionConstants(t, n)
                rows.append([str(v) for v in (
                    c.t, c.n, c.lg_t, c.rss_target, c.shift, c.block, c.quad_scale,
                    c.index_scale, c.layer_total, c.capacity, c.target,
                )])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "944ce51cfbfdc6df37af9b1a74f3ef9f12a71e18a122f144329928ee6a29082d"

    def test_composed_documents(self):
        docs = [
            json.dumps(instance_to_obj(
                compose([gen_rss(n, s, s == y) for s in range(t)]).knapsack
            ))
            for t, n, y in [(2, 1, 0), (8, 1, 5), (4, 2, 3), (16, 1, 15), (8, 3, 2)]
        ]
        digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
        assert digest == "4030a080217f7e55233325618bc5f2fc1556e01b4b0585f5b221ab6da98bf45a"


class TestPadding:
    def test_three_becomes_four(self):
        out = pad_to_power_of_two([YES1, NO1, YES1])
        assert len(out) == 4 and out[3] is out[2]

    def test_one_becomes_two(self):
        out = pad_to_power_of_two([NO1])
        assert len(out) == 2 and out[1] is out[0]

    def test_power_of_two_unchanged(self):
        assert pad_to_power_of_two([YES1] * 4) == [YES1] * 4

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvariantError):
            pad_to_power_of_two([YES1, gen_rss(2, 0, True)])

    def test_empty_rejected(self):
        with pytest.raises(InvariantError):
            pad_to_power_of_two([])


class TestItemFamilies:
    def test_encoding_items_size_two_one(self):
        c = CompositionConstants(2, 1)
        items = build_encoding_items([YES1, YES1], c)
        assert [(it.weight, it.profit) for it in items[:3]] == [(588, 588)] * 3
        assert [(it.weight, it.profit) for it in items[3:]] == [(588, 2352)] * 3

    @pytest.mark.parametrize("t,n", [(2, 1), (4, 1), (4, 2)])
    def test_encoding_group_sums(self, t, n):
        c = CompositionConstants(t, n)
        inputs = [gen_rss(n, 7 + i, True) for i in range(t)]
        items = build_encoding_items(inputs, c)
        for i in range(t):
            block_items = [
                it for it in items if isinstance(it.label, Encoding) and it.label.instance == i
            ]
            assert sum(it.weight for it in block_items) == 3 * c.block
            assert sum(it.profit for it in block_items) == 3 * c.block + 9 * n * c.block * i

    def test_encoding_items_refuse_bad_inputs(self):
        c = CompositionConstants(2, 1)
        with pytest.raises(InvariantError) as err:
            build_encoding_items([YES1], c)
        assert err.value.code == "compose.count"
        with pytest.raises(InvariantError) as err:
            build_encoding_items([YES1, gen_rss(2, 0, True)], c)
        assert err.value.code == "compose.mixed-n"

    def test_quadratization_single_item(self):
        c = CompositionConstants(2, 1)
        (item,) = build_quadratization_items(c)
        assert item.label == Quadratization((1, 1), 0, 0)
        assert item.weight == c.quad_scale == 21168
        # bonus is 4.5 nB + 1.5 nB realized exactly
        assert item.profit == 21168 + 2646 + 882 == 24696

    @pytest.mark.parametrize("t,count", [(4, 5), (8, 12), (16, 22)])
    def test_quadratization_counts(self, t, count):
        c = CompositionConstants(t, 1)
        assert len(build_quadratization_items(c)) == count

    def test_index_items_size_two_one(self):
        c = CompositionConstants(2, 1)
        zero, one = build_index_items(c)
        assert zero.label == Index(0, 0) and one.label == Index(1, 0)
        assert zero.weight == zero.profit == c.index_scale + c.quad_scale == 1344273840
        assert one.weight == one.profit == c.index_scale + 3 * c.block == 1344254436

    def test_index_item_count(self):
        c = CompositionConstants(4, 1)
        items = build_index_items(c)
        assert len(items) == 4
        assert all(it.weight == it.profit for it in items)


class TestCompose:
    def test_small_instance_shape(self):
        comp = compose([YES1, YES1])
        assert isinstance(comp, ComposedInstance)
        assert len(comp.knapsack.items) == 9  # 6 encoding + 1 quad + 2 index
        assert count_distinct_weights(comp.knapsack) == 4
        assert comp.knapsack.capacity == comp.constants.capacity

    def test_pads_internally(self):
        comp = compose([YES1, NO1, YES1])
        assert comp.constants.t == 4
        assert len(comp.inputs) == 4

    def test_item_family_counts(self):
        comp = compose([gen_rss(2, i, True) for i in range(4)])
        t, n, lg_t = 4, 2, 2
        labels = [it.label for it in comp.knapsack.items]
        assert sum(isinstance(x, Encoding) for x in labels) == 3 * n * t
        assert sum(isinstance(x, Quadratization) for x in labels) == 3 * comb(lg_t, 2) + lg_t
        assert sum(isinstance(x, Index) for x in labels) == 2 * lg_t

    @pytest.mark.parametrize(
        "code", ["compose.layers", "compose.dominance", "compose.distinct-weights"]
    )
    def test_output_checks_raise(self, monkeypatch, code):
        # one extra encoding item breaks exactly one property of the output
        import fewweights.composition as composition

        def extra(c):
            if code == "compose.layers":
                return [Item(c.index_scale - 1, 0)]
            if code == "compose.dominance":
                return [Item(0, c.quad_scale)]
            return [Item(w, 0) for w in range(1, 15)]

        real = composition.build_encoding_items
        monkeypatch.setattr(
            composition, "build_encoding_items", lambda inputs, c: real(inputs, c) + extra(c)
        )
        with pytest.raises(InvariantError) as err:
            compose([YES1, YES1])
        assert err.value.code == code

    @pytest.mark.parametrize("t, n", [(2, 1), (8, 1), (4, 2)])
    def test_gadgets_built_once_per_shape(self, t, n):
        # two compositions at one (t, n) share the constants and the very
        # quadratization and index items; only the encoding items differ
        first, second = (
            compose([gen_rss(n, seed + i, i % 2 == 0) for i in range(t)]) for seed in (0, 100)
        )
        gadgets = slice(3 * n * t, None)
        shared = list(zip(first.knapsack.items[gadgets], second.knapsack.items[gadgets]))
        assert len(shared) == 3 * comb(t.bit_length() - 1, 2) + 3 * (t.bit_length() - 1)
        assert all(a is b for a, b in shared)
        assert first.constants is second.constants

    @pytest.mark.parametrize("t, n", [(2, 1), (8, 1), (4, 2)])
    def test_encoding_items_built_once_per_input(self, t, n):
        # equal inputs at one (t, n) share the very encoding items of each
        # input index, though at n = 2 each call builds a new input object
        first, second = (
            compose([gen_rss(n, 7 + i, i % 2 == 0) for i in range(t)]) for _ in range(2)
        )
        encoding = slice(0, 3 * n * t)
        shared = list(zip(first.knapsack.items[encoding], second.knapsack.items[encoding]))
        assert all(a is b for a, b in shared)
        # one input at two indexes gets one set of items per index
        twice = compose([first.inputs[0]] * t).knapsack.items
        assert twice[0].profit < twice[3 * n].profit

    def test_encoding_cache_keeps_at_most_its_bound(self):
        # more distinct inputs at one (t, n) than the cache holds items: it
        # never holds more than its bound, and ends full
        import fewweights.composition as composition

        info = composition._encoding_item.cache_info
        keys = set()
        for first in range(1000, 1000 + 16 * 32, 32):
            inputs = [gen_rss(4, first + i, True) for i in range(32)]
            compose(inputs)
            keys.update(
                (i, j, a) for i, inst in enumerate(inputs) for j, a in enumerate(inst.numbers)
            )
            assert info().currsize <= info().maxsize
        assert len(keys) > info().maxsize
        assert info().currsize == info().maxsize

    def test_mixed_sizes_rejected(self):
        with pytest.raises(InvariantError):
            compose([YES1, gen_rss(2, 0, True)])

    def test_metadata(self):
        comp = compose([YES1, YES1])
        meta = composition_metadata(comp)
        assert meta["t"] == 2 and meta["n"] == 1
        assert meta["Y"] == "21168"
        assert int(meta["W"]) == comp.constants.capacity
        assert set(meta) == {"t", "n", "X", "B", "Y", "Z", "T", "W", "P"}


class TestCanonicalSolution:
    def test_frozen_small_solutions(self):
        comp = compose([YES1, YES1])
        # claiming the second input: its first slot, the quad diag, the set bit
        assert canonical_solution(comp, 1, [0]) == frozenset({3, 6, 8})
        # claiming the first input: slot, all later encoding items, the zero bit
        assert canonical_solution(comp, 0, [0]) == frozenset({0, 3, 4, 5, 7})

    @pytest.mark.parametrize("t,n", [(2, 1), (4, 1), (2, 2)])
    def test_exact_equality(self, t, n):
        inputs = [gen_rss(n, 40 + i, True) for i in range(t)]
        comp = compose(inputs)
        for i in range(t):
            sol = canonical_solution(comp, i, range(n))
            assert comp.knapsack.subset_weight(sol) == comp.constants.capacity
            assert comp.knapsack.subset_profit(sol) == comp.constants.target

    def test_rejects_bad_witnesses(self):
        comp = compose([YES1, NO1])
        with pytest.raises(InvariantError):
            canonical_solution(comp, 0, [0, 1])  # wrong cardinality
        with pytest.raises(InvariantError):
            canonical_solution(comp, 0, [5])  # out of range
        with pytest.raises(InvariantError):
            canonical_solution(comp, 1, [0])  # 12 != target
        with pytest.raises(InvariantError):
            canonical_solution(comp, 2, [0])  # no such input


class TestLayers:
    def test_frozen_layer_reads(self):
        comp = compose([YES1, YES1])
        c = comp.constants
        by_label = {it.label: it for it in comp.knapsack.items}
        z1 = [by_label[Index(1, 0)]]
        z0 = [by_label[Index(0, 0)]]
        x = [comp.knapsack.items[0]]
        assert c.index_layer(z1) == (1, 1)
        assert c.index_layer(x) == (0, 0)
        assert c.quad_layer(z0) == (1, 1)
        assert c.index_layer(z0) == (1, 1)

    @pytest.mark.parametrize("t", [2, 4, 8])
    def test_compatibility_layer_sums(self, t):
        """Index plus quad selections for any index fill the quad layer to
        exactly the layer total, in weight and in profit."""
        c = CompositionConstants(t, 1)
        items = build_quadratization_items(c) + build_index_items(c)
        by_label = {it.label: it for it in items}
        for i in range(t):
            picked = [by_label[lab] for lab in quadratization_labels(i, c.lg_t)]
            picked += [by_label[lab] for lab in index_labels(i, c.lg_t)]
            assert c.quad_layer(picked) == (c.layer_total, c.layer_total)

    def test_index_extraction_spot(self):
        comp = compose([YES1, NO1])
        c = comp.constants
        items = comp.knapsack.items
        hits = 0
        for mask in range(1 << 9):
            subset = [items[i] for i in range(9) if mask >> i & 1]
            weight, profit = c.index_layer(subset)
            if weight <= 1 and profit >= 1:
                hits += 1
                chosen_index = frozenset(
                    it.label for it in subset if isinstance(it.label, Index)
                )
                assert any(chosen_index == index_labels(i, 1) for i in range(2))
        assert hits > 0


class TestQuadIdentity:
    @pytest.mark.parametrize("t,n", [(2, 1), (4, 1), (4, 2)])
    def test_profit_weight_gap(self, t, n):
        c = CompositionConstants(t, n)
        by_label = {it.label: it for it in build_quadratization_items(c)}
        for i in range(t):
            picked = [by_label[lab] for lab in quadratization_labels(i, c.lg_t)]
            gap = sum(it.profit for it in picked) - sum(it.weight for it in picked)
            assert gap == (9 * i * (i + 1) // 2 - 3 * i) * n * c.block


class TestReplacementDominance:
    @pytest.mark.parametrize("t", [4, 8])
    def test_merged_pair_wins(self, t):
        c = CompositionConstants(t, 1)
        by_label = {it.label: it for it in build_quadratization_items(c)}
        for k in range(c.lg_t):
            for l in range(k + 1, c.lg_t):
                one_zero = by_label[Quadratization((1, 0), k, l)]
                zero_one = by_label[Quadratization((0, 1), k, l)]
                both = by_label[Quadratization((1, 1), k, l)]
                assert one_zero.weight + zero_one.weight == both.weight
                assert one_zero.profit + zero_one.profit < both.profit


class TestDistinctCounts:
    def test_empty(self):
        inst = KnapsackInstance((), 0, 0)
        assert count_distinct_weights(inst) == count_distinct_profits(inst) == 0

    @pytest.mark.parametrize("t,n", [(2, 1), (4, 1), (2, 2)])
    def test_family_bound(self, t, n):
        inputs = [gen_rss(n, 60 + i, i % 2 == 0) for i in range(t)]
        comp = compose(inputs)
        lg_t = comp.constants.lg_t
        m = 3 * n
        bound = m * (m + 1) * (m + 2) // 6 + 3 * comb(lg_t, 2) + 3 * lg_t
        assert count_distinct_weights(comp.knapsack) <= bound


def test_or_equivalence_smallest_scale():
    for pattern in product([False, True], repeat=2):
        comp = compose([YES1 if yes else NO1 for yes in pattern])
        assert solve_brute_force(comp.knapsack).feasible == any(pattern)


def test_maximal_witness_spells_out_the_solved_input():
    """With only the first input solvable, the maximal solution's index items
    must spell index 0."""
    comp = compose([YES1, NO1])
    result = solve_brute_force(comp.knapsack)
    assert result.feasible
    picked_index = frozenset(
        comp.knapsack.items[i].label
        for i in result.chosen
        if isinstance(comp.knapsack.items[i].label, Index)
    )
    assert picked_index == index_labels(0, comp.constants.lg_t)
