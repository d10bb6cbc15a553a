from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_references
from fewweights import generators
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
from fewweights.serialize import instance_to_obj

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """SplitMix64 one word per call: the reference the block mixer must match
    word for word and state for state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        if bound == 1:
            return 0
        bits = bound.bit_length()
        words = (bits + 63) // 64
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | self.next_word()
            value >>= 64 * words - bits
            if value < bound:
                return value

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def choices(self, seq, k: int) -> list:
        return [self.choice(seq) for _ in range(k)]


# 2**k + 1 rejects almost half its draws; 2**64 and wider take several words
_EDGE_BOUNDS = [1, 2, 3, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**130, 2**130 + 1, 2**5 + 1, 2**63 + 1]

_BOUNDS = st.one_of(st.sampled_from(_EDGE_BOUNDS), st.integers(1, 2**140))
_CALLS = st.one_of(
    st.tuples(st.just("next_word")),
    st.tuples(st.just("randrange"), _BOUNDS),
    # a repeated run of mixed bounds: wide bounds between one-word ones hand
    # words back mid-block, and long batches cross block boundaries
    st.tuples(st.just("draws"), st.lists(_BOUNDS, min_size=1, max_size=4), st.integers(0, 150)),
    st.tuples(st.just("shuffle"), st.integers(0, 600)),
    st.tuples(st.just("choice"), st.integers(1, 5)),
    st.tuples(st.just("choices"), st.integers(1, 5), st.integers(0, 600)),
    # a range stands in for a long sequence; len() stops at 2**63 - 1
    st.tuples(st.just("choices"), st.sampled_from([2**5 + 1, 2**62 + 1, 2**63 - 1]), st.integers(0, 300)),
)


def _call(rng, name, *args):
    if name == "next_word":
        return rng.next_word()
    if name == "randrange":
        return rng.randrange(*args)
    if name == "draws":
        bounds = args[0] * args[1]
        if isinstance(rng, ScalarSplitMix64):
            return [rng.randrange(b) for b in bounds]
        return rng._draws(bounds)
    if name == "shuffle":
        seq = list(range(args[0]))
        rng.shuffle(seq)
        return seq
    if name == "choice":
        return rng.choice(range(args[0]))
    return rng.choices(range(args[0]), args[1])


def _digest(objs) -> str:
    text = json.dumps(objs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the canonical JSON of seeds 0-7, as the word-at-a-time generator
# made them; any change to the byte stream changes these
_PINNED_KNAPSACK = {
    (4096, 2, 1, 2**64): "e31136ff462654694aecb9b1751732b6b8e7b78309fd1536aba1e69e2af3c045",
    (4096, 1, 2, 2**64): "77e5dfbab1bcd19439f5d6b99e859e1ce51527f035f67145928e82592e36b6a9",
    (30, 8, 8, 2**256): "ab1bc2f95ae699325acb9f3e7242b2561a5a4d00078db37d80a14f82fb53376b",
    (500, 500, 500, 500): "e04776311e781517218e43839241a88aa0b41e05fba530f2a4cbdcb10b3c91de",
    (3, 1, 1, 1): "d13b3cfc27495bccd497519660f07f779b734eb79cbcbe971637316444b48f85",
}
_PINNED_COVER = {
    (gen_x3c, 1, True): "31b3340c8678eda1d69f453365c19d162f51733e9a6bf094675688ac182c3c58",
    (gen_x3c, 2, True): "0c34bac6b32d81caab16244d9b071362b5613923d66ae70a810a9a3432664b01",
    (gen_x3c, 2, False): "fcc336a3f468e791063ff1b93fd98c28a4ef70fcbc7ab9597773ea8a02c28fa3",
    (gen_x3c, 3, True): "2274289a020e1d0d4c8cbb7f9ebebb9693279c12f92ee0c043b15fbe8a681b9a",
    (gen_x3c, 3, False): "0c9433c1bb177374d1349f02595c3abdadc52285998c2cc2cc44c5279e57d327",
    (gen_x3c, 5, True): "45b6fd61a1e78a319e80d49de474a04fbe90fbe15a4c7c0f89b111c252202e50",
    (gen_rss, 1, True): "5919ae4c5497c9818e29453ea1639fdee1af5553dd1e514d2f91a6be2bfc16e9",
    (gen_rss, 1, False): "7a39e1c7cc9d7321f7220bc9f5896e8f575cf81290bc171b96edb24789e159f2",
    (gen_rss, 2, True): "b4ca325c01edceed681670564ef09cc04dafb087d4fd47215deb34708ea5528c",
    (gen_rss, 2, False): "e5484b532897eadc8e1146dad5a4511ab718214e448e7ef2ed7ce420e09bfd72",
    (gen_rss, 3, True): "a02a370370be8ccb36effd3d9ff162e30d44d0bac0aa0dfbff0d487da74e79fc",
    (gen_rss, 3, False): "881851d9ddbfac937fcb77225e78a8aa19144b04b695018abb96d3c11f723e1c",
    (gen_rss, 5, True): "564ca2a5457a0c40deca1f16a54aa262d5885c71f9911be06796d604b2e7918d",
}
_PINNED_EDGE_DRAWS = "7a3034727ef8c14f515ab3a5e61381da9e6832a4a8d54aa30e14afc115f747d1"


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

    @given(seed=st.integers(0, _MASK64), calls=st.lists(_CALLS, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_reference(self, seed, calls):
        fast, slow = SplitMix64(seed), ScalarSplitMix64(seed)
        for call in calls:
            assert _call(fast, *call) == _call(slow, *call), call
            assert fast._state == slow.state, call

    def test_one_element_choices_take_no_word(self):
        rng = SplitMix64(5)
        assert rng.choices(["x"], 1000) == ["x"] * 1000
        assert rng._state == 5

    def test_bound_one_keeps_the_mixed_block(self, monkeypatch):
        # a bound of 1 between one-word bounds neither takes a word nor
        # hands the rest of the block back, so one block serves them all
        mixed = []
        real = generators._mix

        def counted(z, mask):
            mixed.append(z)
            return real(z, mask)

        monkeypatch.setattr(generators, "_mix", counted)
        draws = SplitMix64(5)._draws([3, 1] * 50)
        assert draws[1::2] == [0] * 50
        assert len(mixed) == 1

    def test_choices_of_empty_sequence(self):
        assert SplitMix64(5).choices([], 0) == []
        with pytest.raises(InvariantError):
            SplitMix64(5).choices([], 1)

    def test_edge_bound_draws_pinned(self):
        draws = []
        for seed in range(8):
            rng = SplitMix64(seed)
            draws.append([rng.randrange(b) for b in _EDGE_BOUNDS * 40] + [rng.next_word()])
        assert _digest(draws) == _PINNED_EDGE_DRAWS


class TestPinnedStreams:
    @pytest.mark.parametrize("shape", list(_PINNED_KNAPSACK))
    def test_knapsack(self, shape):
        # pinned on the per-item spelling, from before back-references
        objs = [instance_to_obj(gen_knapsack(*shape, seed)) for seed in range(8)]
        assert _digest([expand_references(obj) for obj in objs]) == _PINNED_KNAPSACK[shape]

    @pytest.mark.parametrize("case", list(_PINNED_COVER), ids=lambda c: f"{c[0].__name__}-{c[1]}-{c[2]}")
    def test_cover(self, case):
        gen, n, want_yes = case
        insts = [instance_to_obj(gen(n, seed, want_yes)) for seed in range(8)]
        assert _digest(insts) == _PINNED_COVER[case]


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
        # the seed does not matter at size 1: each answer is one instance
        for want_yes in (True, False):
            assert all(gen_rss(1, s, want_yes) is gen_rss(1, 0, want_yes) for s in range(16))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verdict_matches_label(self, n, seed):
        assert rss_decide(gen_rss(n, seed, True)).feasible
        assert not rss_decide(gen_rss(n, seed, False)).feasible


@pytest.mark.parametrize(
    "fn, args, code",
    [
        (SplitMix64, (1.5,), "rng.seed"),
        (SplitMix64, (True,), "rng.seed"),
        (gen_rss, (True, 3, False), "gen.n"),
        (gen_rss, (1.0, 3, False), "gen.n"),
        (gen_rss, (1.0, 3, True), "gen.n"),
        (gen_rss, (True, 3, True), "gen.n"),
        (gen_x3c, (1.0, 3, True), "gen.n"),
        (gen_x3c, (True, 3, True), "gen.n"),
        (gen_rss, (1, 1.5, False), "rng.seed"),
        (gen_rss, (1, 1.5, True), "rng.seed"),
        (gen_rss, (2, 1.5, True), "rng.seed"),
        (gen_x3c, (2, True, False), "rng.seed"),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_size_and_seed_must_be_ints(fn, args, code):
    # size 1 takes no draws, yet it refuses what every other size refuses
    with pytest.raises(InvariantError) as err:
        fn(*args)
    assert err.value.code == code


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
