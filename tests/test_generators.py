from __future__ import annotations

import pytest

from fewweights.composition import count_distinct_profits, count_distinct_weights
from fewweights.core import GuardError, InvariantError
from fewweights.generators import (
    RSS_NO_INSTANCE_SIZE_1,
    SplitMix64,
    gen_knapsack,
    gen_rss,
    gen_x3c,
)
from fewweights.reductions import rss_decide, x3c_has_exact_cover


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # first outputs of the published reference implementation for seed 0
        rng = SplitMix64(0)
        assert [rng.next_word() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_stream(self):
        a = SplitMix64(123456789)
        b = SplitMix64(123456789)
        assert [a.next_word() for _ in range(50)] == [b.next_word() for _ in range(50)]

    def test_randrange_stays_in_bounds(self):
        rng = SplitMix64(7)
        draws = [rng.randrange(10) for _ in range(2000)]
        assert set(draws) == set(range(10))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(InvariantError):
            SplitMix64(0).randrange(0)

    def test_shuffle_is_a_permutation(self):
        rng = SplitMix64(1)
        seq = list(range(20))
        rng.shuffle(seq)
        assert sorted(seq) == list(range(20)) and seq != list(range(20))


class TestGenX3C:
    def test_size_one_forced(self):
        inst = gen_x3c(1, 42, True)
        assert inst.triples == ((1, 2, 3),) * 3

    def test_size_one_no_impossible(self):
        with pytest.raises(GuardError):
            gen_x3c(1, 42, False)

    def test_no_needs_desk_scale(self):
        with pytest.raises(GuardError):
            gen_x3c(4, 0, False)

    def test_rejects_size_zero(self):
        with pytest.raises(InvariantError):
            gen_x3c(0, 0, True)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [2, 3])
    def test_labels_are_ground_truth(self, n, seed):
        assert x3c_has_exact_cover(gen_x3c(n, seed, True))
        assert not x3c_has_exact_cover(gen_x3c(n, seed, False))

    def test_planted_cover_is_first_partition(self):
        inst = gen_x3c(3, 5, True)
        covered = set()
        for t in inst.triples[:3]:
            covered.update(t)
        assert covered == set(range(1, 10))

    def test_deterministic(self):
        assert gen_x3c(2, 9, True) == gen_x3c(2, 9, True)
        assert gen_x3c(2, 9, True) != gen_x3c(2, 10, True)


class TestGenRss:
    def test_size_one_fixtures(self):
        assert gen_rss(1, 5, True).numbers == (84, 84, 84)
        assert gen_rss(1, 5, False).numbers == RSS_NO_INSTANCE_SIZE_1

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verdict_matches_label(self, n, seed):
        assert rss_decide(gen_rss(n, seed, True)).feasible
        assert not rss_decide(gen_rss(n, seed, False)).feasible


class TestGenKnapsack:
    def test_distinct_counts_exact(self):
        inst = gen_knapsack(12, 3, 3, 100, 9)
        assert count_distinct_weights(inst) == 3
        assert count_distinct_profits(inst) == 3

    def test_single_class(self):
        inst = gen_knapsack(5, 1, 1, 10, 1)
        assert count_distinct_weights(inst) == 1
        assert count_distinct_profits(inst) == 1
        assert len(inst.items) == 5

    def test_deterministic(self):
        assert gen_knapsack(8, 2, 3, 50, 4) == gen_knapsack(8, 2, 3, 50, 4)
        assert gen_knapsack(8, 2, 3, 50, 4) != gen_knapsack(8, 2, 3, 50, 5)

    def test_pinned_output(self):
        inst = gen_knapsack(8, 2, 3, 50, 4)
        pairs = [(28, 38), (28, 26), (28, 26), (28, 29), (28, 29), (28, 29), (32, 29), (32, 26)]
        assert [(it.weight, it.profit) for it in inst.items] == pairs
        assert (inst.capacity, inst.target) == (43, 138)

    def test_equal_items_are_one_object(self):
        inst = gen_knapsack(200, 2, 3, 50, 6)
        pairs = {(it.weight, it.profit) for it in inst.items}
        assert len({id(it) for it in inst.items}) == len(pairs)

    def test_bounds_inside_totals(self):
        inst = gen_knapsack(10, 2, 2, 30, 2)
        assert inst.capacity <= sum(it.weight for it in inst.items)
        assert inst.target <= sum(it.profit for it in inst.items)

    def test_unsatisfiable_parameters(self):
        with pytest.raises(InvariantError):
            gen_knapsack(3, 4, 1, 10, 0)  # more distinct weights than items
        with pytest.raises(InvariantError):
            gen_knapsack(3, 2, 2, 1, 0)  # pool too small for distinct draws
        with pytest.raises(InvariantError):
            gen_knapsack(0, 0, 0, 10, 0)

    def test_huge_values(self):
        inst = gen_knapsack(6, 3, 2, 2**64, 11)
        assert count_distinct_weights(inst) == 3
        assert max(it.weight for it in inst.items) > 2**32  # overwhelmingly likely
