from __future__ import annotations

import dataclasses
import re
import sys
import time
import tracemalloc
from enum import IntEnum
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewweights.composition import (
    CompositionConstants,
    canonical_solution,
    compose,
    index_labels,
    quadratization_labels,
)
from fewweights.core import (
    Encoding,
    GuardError,
    Index,
    InvariantError,
    Item,
    KnapsackInstance,
    Quadratization,
    RestrictedSubsetSumInstance,
    SchemaError,
    SubsetSumInstance,
    X3CInstance,
    digit_solutions,
    enumerate_restricted_universe,
    membership_in_restricted_universe,
    restricted_target,
    restricted_universe_size,
)
from fewweights import core, serialize
from fewweights.cli import verify_compose
from fewweights.frank_tardos import frank_tardos_reduce, lll_reduce, simultaneous_approximation
from fewweights.generators import SplitMix64, gen_knapsack, gen_rss, gen_x3c
from fewweights.kernel import GroupedInstance, binary_split, ilp_to_knapsack, reduce_ilp
from fewweights.solvers import solve_dp_by_weight


class TestRestrictedTarget:
    def test_size_one(self):
        assert restricted_target(1) == 84  # 4 + 16 + 64

    def test_size_two(self):
        # independent derivation: geometric series base*(base**(3n) - 1)/(base - 1)
        assert restricted_target(2) == 137256
        assert restricted_target(2) == 7 * (7**6 - 1) // 6

    @pytest.mark.parametrize("n", range(1, 21))
    def test_always_even(self, n):
        assert restricted_target(n) % 2 == 0

    def test_rejects_zero(self):
        with pytest.raises(InvariantError):
            restricted_target(0)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_closed_form_is_the_defining_sum(self, n):
        base = 3 * n + 1
        assert restricted_target(n) == sum(base**j for j in range(1, 3 * n + 1))


class TestMembership:
    def test_examples(self):
        assert membership_in_restricted_universe(84, 1) == (True, (1, 2, 3))
        assert membership_in_restricted_universe(12, 1) == (True, (1, 1, 1))
        assert membership_in_restricted_universe(85, 1) == (False, None)
        assert membership_in_restricted_universe(0, 1) == (False, None)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_enumeration_exhaustively(self, n):
        universe = set(enumerate_restricted_universe(n))
        top = 3 * (3 * n + 1) ** (3 * n)
        for a in range(top + 2):
            ok, witness = membership_in_restricted_universe(a, n)
            assert ok == (a in universe), a
            if ok:
                base = 3 * n + 1
                assert sum(base**j for j in witness) == a
                assert all(1 <= j <= 3 * n for j in witness)

    def test_members_of_a_size_400_instance(self):
        # 1,200 members of about 12,000 bits each
        n = 400
        base = 3 * n + 1
        for a in gen_rss(n, 3, True).numbers:
            ok, witness = membership_in_restricted_universe(a, n)
            assert ok and sum(base**j for j in witness) == a
            assert membership_in_restricted_universe(a + 1, n) == (False, None)
            # a fourth power, also at the largest exponent
            four = a + base ** witness[-1]
            assert membership_in_restricted_universe(four, n) == (False, None)

    @pytest.mark.parametrize("n", [1, 2, 30, 400])
    def test_exponent_bounds(self, n):
        # the largest member has every exponent at 3n; past it a power
        # would need exponent 3n + 1, and 2**(10**6) is past every member
        m = 3 * n
        base = m + 1
        assert membership_in_restricted_universe(3 * base**m, n) == (True, (m, m, m))
        assert membership_in_restricted_universe(base ** (m + 1), n) == (False, None)
        assert membership_in_restricted_universe(2 ** (10**6), n) == (False, None)

    def test_sampled_against_enumeration_size_three(self):
        universe = set(enumerate_restricted_universe(3))
        probes = set(universe)
        for v in list(universe):
            probes.update({v - 1, v + 1, v * 10})
        for a in sorted(probes):
            ok, _ = membership_in_restricted_universe(a, 3)
            assert ok == (a in universe), a


class TestEnumerateUniverse:
    def test_size_one_frozen(self):
        assert enumerate_restricted_universe(1) == [
            12, 24, 36, 48, 72, 84, 96, 132, 144, 192,
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_is_multichoose(self, n):
        out = enumerate_restricted_universe(n)
        m = 3 * n
        assert len(out) == m * (m + 1) * (m + 2) // 6 == restricted_universe_size(n)
        assert out == sorted(set(out))

    def test_size_two_extremes(self):
        out = enumerate_restricted_universe(2)
        assert len(out) == 56
        assert out[0] == 3 * 7 and out[-1] == 3 * 7**6 == 352947

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_restricted_universe(10**4 + 1)

    def test_guard_boundary(self):
        # the guard counts members: n = 47 is the largest size it admits
        assert restricted_universe_size(47) <= core._UNIVERSE_GUARD
        assert restricted_universe_size(48) > core._UNIVERSE_GUARD
        with pytest.raises(GuardError) as err:
            enumerate_restricted_universe(48)
        assert err.value.code == "universe.enumerate"


def _pruned_walk(value, base, length):
    """Reference: every digit vector from the lowest position up, pruned
    where the positions left cannot reach the value any more."""
    powers = [base**i for i in range(length)]
    suffix_max = [0] * (length + 1)
    for i in range(length - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + base * powers[i]
    out = []
    prefix = [0] * length

    def walk(pos, remaining):
        if pos == length:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for digit in range(base + 1):
            rest = remaining - digit * powers[pos]
            if rest < 0:
                break
            if rest > suffix_max[pos + 1]:
                continue
            prefix[pos] = digit
            walk(pos + 1, rest)
        prefix[pos] = 0

    walk(0, value)
    return out


class TestDigitSolutions:
    def test_all_ones_case(self):
        assert digit_solutions(21, 4, 3) == [(1, 1, 1)]

    def test_zero_value(self):
        assert digit_solutions(0, 4, 3) == [(0, 0, 0)]

    def test_tiny_base(self):
        assert digit_solutions(5, 2, 2) == [(1, 2)]

    @pytest.mark.parametrize("base,length", [(2, 4), (3, 3), (4, 2), (5, 3)])
    def test_complete_and_ordered(self, base, length):
        powers = [base**i for i in range(length)]
        for value in range(base * sum(powers) + 2):
            got = digit_solutions(value, base, length)
            expect = [
                v
                for v in product(range(base + 1), repeat=length)
                if sum(d * p for d, p in zip(v, powers)) == value
            ]
            assert got == expect, (value, base, length)

    @pytest.mark.parametrize("base", range(2, 8))
    @pytest.mark.parametrize("length", range(1, 6))
    def test_unique_digit_solution(self, base, length):
        value = sum(base**i for i in range(length))
        assert digit_solutions(value, base, length) == [(1,) * length]

    @pytest.mark.parametrize("base,length", [(2, 8), (3, 6), (4, 5), (5, 4), (9, 3)])
    def test_matches_the_pruned_walk(self, base, length):
        rng = SplitMix64(base * 100 + length)
        top = base * sum(base**i for i in range(length))
        values = [rng.randrange(top + 1) for _ in range(200)] + [0, top, top + 1]
        for value in values:
            expect = _pruned_walk(value, base, length)
            assert digit_solutions(value, base, length) == expect, (value, base, length)

    @pytest.mark.parametrize("base,length", [(2, 14), (3, 11), (4, 10), (6, 8), (9, 7)])
    def test_unique_digit_solution_at_the_guard_edge(self, base, length):
        # the most digits the guard admits at each base
        assert (base + 1) ** length <= core._DIGIT_GUARD < (base + 1) ** (length + 1)
        value = sum(base**i for i in range(length))
        assert digit_solutions(value, base, length) == [(1,) * length]

    def test_guard(self):
        with pytest.raises(GuardError):
            digit_solutions(1, 9, 8)  # 10**8 candidate vectors

    @pytest.mark.parametrize("length", [10**4, 10**8])
    def test_guard_on_long_lengths_is_immediate(self, length):
        # 3**length is never built, nor formatted past the int/str digit limit
        start = time.perf_counter()
        with pytest.raises(GuardError) as err:
            digit_solutions(1, 2, length)
        assert err.value.code == "digits.space"
        assert f"{length} digits" in str(err.value)
        assert time.perf_counter() - start < 0.5

    def test_bad_arguments(self):
        with pytest.raises(InvariantError):
            digit_solutions(1, 1, 3)
        with pytest.raises(InvariantError):
            digit_solutions(1, 4, 0)
        with pytest.raises(InvariantError):
            digit_solutions(-1, 4, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 3000))
    def test_solutions_reconstruct_value(self, base, length, value):
        for v in digit_solutions(value, base, length):
            assert sum(d * base**i for i, d in enumerate(v)) == value
            assert all(0 <= d <= base for d in v)


class TestTypes:
    def test_item_rejects_negative(self):
        with pytest.raises(InvariantError):
            Item(-1, 0)
        with pytest.raises(InvariantError):
            Item(0, -1)

    def test_item_is_frozen(self):
        it = Item(1, 2)
        for field in ("weight", "profit", "label"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(it, field, 3)
        assert it == Item(1, 2)

    def test_item_equality_and_hash(self):
        assert Item(1, 2) == Item(1, 2)
        assert hash(Item(1, 2)) == hash(Item(1, 2))
        assert Item(1, 2) != (1, 2, None)
        assert Item(1, 2) != Item(1, 2, Encoding(0, 1))

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, -1])
    def test_item_rejects_each_field_with_its_code(self, bad):
        with pytest.raises(InvariantError) as err:
            Item(bad, 0)
        assert err.value.code == "item.weight"
        with pytest.raises(InvariantError) as err:
            Item(0, bad)
        assert err.value.code == "item.profit"

    def test_item_checks_weight_before_profit(self):
        # each field is checked whole, type and sign, before the next one
        for weight, profit, code in [
            (-1, True, "item.weight"),
            (True, -1, "item.weight"),
            (1.0, -1, "item.weight"),
            (1, True, "item.profit"),
            (1, -1, "item.profit"),
        ]:
            with pytest.raises(InvariantError) as err:
                Item(weight, profit)
            assert err.value.code == code

    def test_item_accepts_int_subclasses_other_than_bool(self):
        class Size(IntEnum):
            ONE = 1

        it = Item(Size.ONE, Size.ONE)
        assert (it.weight, it.profit) == (1, 1)
        assert it == Item(1, 1)

    def test_knapsack_rejects_negative_bounds(self):
        with pytest.raises(InvariantError):
            KnapsackInstance((), -1, 0)

    # a float or a bool where a number goes, refused with its field's code
    # before any solver or the kernel calls int methods on it
    _NON_INT = {
        "knapsack capacity": (lambda: KnapsackInstance((Item(1, 1),), 5.5, 1), "knapsack.capacity"),
        "knapsack bool capacity": (lambda: KnapsackInstance((), True, 0), "knapsack.capacity"),
        "knapsack target": (lambda: KnapsackInstance((), 0, 1.0), "knapsack.target"),
        "subsetsum numbers": (lambda: SubsetSumInstance((1.5, 2), 3), "subsetsum.numbers"),
        "subsetsum target": (lambda: SubsetSumInstance((1, 2), False), "subsetsum.target"),
        "rss n": (lambda: RestrictedSubsetSumInstance(True, (12, 48, 192)), "rss.n"),
        "rss numbers": (lambda: RestrictedSubsetSumInstance(1, (12.0, 48, 192)), "rss.member"),
        "x3c n": (lambda: X3CInstance(True, ((1, 2, 3),) * 3), "x3c.n"),
        "x3c element": (lambda: X3CInstance(1, ((1.0, 2, 3),) * 3), "x3c.element"),
    }

    @pytest.mark.parametrize("site", _NON_INT)
    def test_non_int_number_keeps_its_field_code(self, site):
        build, code = self._NON_INT[site]
        with pytest.raises(InvariantError) as err:
            build()
        assert err.value.code == code

    # malformed library arguments that the JSON loader never builds, each
    # refused with its field's code instead of a TypeError from inside
    # tuple(), len(), sorted() or int arithmetic
    _MALFORMED = {
        "x3c str element": (lambda: X3CInstance(1, (("a", 2, 3),) * 3), "x3c.element"),
        "x3c int triple": (lambda: X3CInstance(1, ((1, 2, 3), 5, (1, 2, 3))), "x3c.triple"),
        "x3c int triples": (lambda: X3CInstance(1, 5), "x3c.triples"),
        "rss int numbers": (lambda: RestrictedSubsetSumInstance(1, 5), "rss.numbers"),
        "subsetsum int numbers": (lambda: SubsetSumInstance(5, 3), "subsetsum.numbers"),
        "knapsack int items": (lambda: KnapsackInstance(5, 3, 1), "knapsack.items"),
        "compose float t": (lambda: CompositionConstants(2.0, 1), "compose.t"),
        "compose float n": (lambda: CompositionConstants(2, 1.0), "compose.n"),
        "compose bool n": (lambda: CompositionConstants(2, True), "compose.n"),
    }

    @pytest.mark.parametrize("site", _MALFORMED)
    def test_malformed_argument_keeps_its_field_code(self, site):
        build, code = self._MALFORMED[site]
        with pytest.raises(InvariantError) as err:
            build()
        assert err.value.code == code

    def test_rss_accepts_duplicates(self):
        inst = RestrictedSubsetSumInstance(1, (84, 84, 84))
        assert inst.numbers == (84, 84, 84)

    def test_rss_rejects_wrong_count(self):
        with pytest.raises(InvariantError) as err:
            RestrictedSubsetSumInstance(1, (84, 84))
        assert err.value.code == "rss.count"

    def test_rss_rejects_foreign_number(self):
        with pytest.raises(InvariantError) as err:
            RestrictedSubsetSumInstance(1, (85, 84, 83))
        assert err.value.code == "rss.member"

    def test_rss_rejects_bad_sum(self):
        with pytest.raises(InvariantError) as err:
            RestrictedSubsetSumInstance(1, (84, 84, 96))
        assert err.value.code == "rss.sum"

    def test_x3c_validates(self):
        inst = X3CInstance(1, ((3, 1, 2), (1, 2, 3), (1, 2, 3)))
        assert inst.triples[0] == (1, 2, 3)  # canonicalized order

    def test_x3c_rejects_small_triple(self):
        with pytest.raises(InvariantError) as err:
            X3CInstance(1, ((1, 1, 2), (1, 2, 3), (1, 2, 3)))
        assert err.value.code == "x3c.triple"

    def test_x3c_rejects_out_of_range(self):
        with pytest.raises(InvariantError) as err:
            X3CInstance(1, ((1, 2, 4), (1, 2, 3), (1, 2, 3)))
        assert err.value.code == "x3c.element"

    def test_x3c_rejects_count_before_sizing_by_n(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvariantError) as err:
                X3CInstance(10**18, ((1, 2, 3),))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.code == "x3c.count"
        assert peak < 1 << 20

    def test_x3c_rejects_multiplicity(self):
        triples = ((1, 2, 3),) * 4 + ((4, 5, 6),) * 2
        with pytest.raises(InvariantError) as err:
            X3CInstance(2, triples)
        assert err.value.code == "x3c.multiplicity"


# Reference grammar of a decimal natural on the wire.
_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_MISSING = object()


def _with(obj: dict, field: str, v) -> dict:
    if v is not _MISSING:
        obj[field] = v
    return obj


# Each site builds a document with ``v`` in one numeric position and reads
# the decoded value back from the loaded instance.
_FIELD_SITES = {
    "weight": (
        lambda v: {
            "kind": "knapsack",
            "items": [_with({"profit": "1"}, "weight", v)],
            "capacity": "1",
            "target": "1",
        },
        lambda inst: inst.items[0].weight,
    ),
    "profit": (
        lambda v: {
            "kind": "knapsack",
            "items": [_with({"weight": "1"}, "profit", v)],
            "capacity": "1",
            "target": "1",
        },
        lambda inst: inst.items[0].profit,
    ),
    "capacity": (
        lambda v: _with({"kind": "knapsack", "items": [], "target": "1"}, "capacity", v),
        lambda inst: inst.capacity,
    ),
    "target": (
        lambda v: _with({"kind": "knapsack", "items": [], "capacity": "1"}, "target", v),
        lambda inst: inst.target,
    ),
    "subsetsum target": (
        lambda v: _with({"kind": "subsetsum", "numbers": []}, "target", v),
        lambda inst: inst.target,
    ),
}
_LIST_SITES = {
    "rss numbers": (
        lambda v: {"kind": "rss", "n": 1, "numbers": [v, "84", "84"]},
        lambda inst: inst.numbers[0],
    ),
    "subsetsum numbers": (
        lambda v: {"kind": "subsetsum", "numbers": [v], "target": "0"},
        lambda inst: inst.numbers[0],
    ),
}
_SITES = {**_FIELD_SITES, **_LIST_SITES}


def _check_decimal(make, read, s: str) -> None:
    """``s`` loads as ``int(s)`` exactly when the reference grammar matches
    it, and fails with ``schema.decimal`` otherwise."""
    if not _DECIMAL.fullmatch(s):
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(make(s))
        assert err.value.code == "schema.decimal"
        return
    try:
        inst = serialize.instance_from_obj(make(s))
    except InvariantError as err:  # a well-formed rss number outside the universe
        assert err.code.startswith("rss.")
    else:
        assert read(inst) == int(s)


class TestSerialization:
    def test_knapsack_roundtrip_with_labels(self):
        inst = KnapsackInstance(
            (
                Item(1, 2, Encoding(0, 1)),
                Item(3, 4, Quadratization((1, 0), 0, 1)),
                Item(5, 6, Index(1, 0)),
                Item(7, 8),
            ),
            10,
            11,
        )
        obj = serialize.instance_to_obj(inst)
        assert serialize.instance_from_obj(obj) == inst
        assert obj["items"][0]["weight"] == "1"

    def test_strip_labels(self):
        # `compose --strip-labels` writes the instance with its labels dropped
        inst = KnapsackInstance((Item(1, 2, Encoding(0, 1)),), 1, 1)
        stripped = KnapsackInstance((Item(1, 2),), inst.capacity, inst.target)
        obj = serialize.instance_to_obj(stripped)
        assert "label" not in obj["items"][0]

    def test_unknown_type_is_refused(self):
        with pytest.raises(SchemaError) as err:
            serialize.instance_to_obj(Item(1, 2))
        assert err.value.code == "schema.kind"

    def test_rss_roundtrip(self):
        inst = RestrictedSubsetSumInstance(1, (12, 48, 192))
        assert serialize.instance_from_obj(serialize.instance_to_obj(inst)) == inst

    def test_x3c_roundtrip(self):
        inst = X3CInstance(1, ((1, 2, 3),) * 3)
        assert serialize.instance_from_obj(serialize.instance_to_obj(inst)) == inst

    def test_big_values_survive(self):
        big = 10**50 + 7
        inst = KnapsackInstance((Item(big, big + 1),), big, big)
        back = serialize.instance_from_obj(serialize.instance_to_obj(inst))
        assert back.items[0].weight == big

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_over_digit_limit_is_schema_error(self):
        obj = {"kind": "knapsack", "items": [], "capacity": "9" * 5000, "target": "0"}
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(SchemaError) as err:
                serialize.instance_from_obj(obj)
        finally:
            sys.set_int_max_str_digits(saved)
        assert err.value.code == "schema.decimal"

    def test_missing_field_is_schema_error(self):
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj({"kind": "knapsack", "items": []})
        assert err.value.code == "schema.missing"

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj({"kind": "sudoku"})
        assert err.value.code == "schema.kind"

    def test_leading_zero_decimal_rejected(self):
        obj = {"kind": "knapsack", "items": [], "capacity": "07", "target": "0"}
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(obj)
        assert err.value.code == "schema.decimal"

    def test_numeric_weight_rejected(self):
        obj = {
            "kind": "knapsack",
            "items": [{"weight": 3, "profit": "1"}],
            "capacity": "0",
            "target": "0",
        }
        with pytest.raises(SchemaError):
            serialize.instance_from_obj(obj)

    def test_invariant_violation_keeps_distinct_code(self):
        obj = {"kind": "rss", "n": 1, "numbers": ["84", "84", "96"]}
        with pytest.raises(InvariantError) as err:
            serialize.instance_from_obj(obj)
        assert err.value.code.startswith("rss.")

    def test_bad_label_bits(self):
        obj = {
            "kind": "knapsack",
            "items": [
                {
                    "weight": "1",
                    "profit": "1",
                    "label": {"kind": "quadratization", "bits": [2, 0], "k": 0, "l": 1},
                }
            ],
            "capacity": "1",
            "target": "1",
        }
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(obj)
        assert err.value.code == "schema.label"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.text(alphabet="0123456789+- _\n٣²１", max_size=30)))
    def test_decimal_grammar_matches_reference(self, s):
        for make, read in _SITES.values():
            _check_decimal(make, read, s)

    @pytest.mark.parametrize(
        "s",
        ["", "0", "00", "007", "+1", "-0", " 1", "1 ", "1\n", "1_000", "٣", "²", "１２", "84", "10"],
    )
    @pytest.mark.parametrize("site", _SITES)
    def test_decimal_grammar_fixed_cases(self, site, s):
        _check_decimal(*_SITES[site], s)

    @pytest.mark.parametrize("bad", [0, 1, True, False, None, [], ["1"], 1.5, {}])
    @pytest.mark.parametrize("site", _FIELD_SITES)
    def test_non_string_field_is_type_error(self, site, bad):
        make, _ = _FIELD_SITES[site]
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(make(bad))
        assert err.value.code == "schema.type"

    @pytest.mark.parametrize("bad", [0, 1, True, None, ["1"]])
    @pytest.mark.parametrize("site", _LIST_SITES)
    def test_non_string_number_is_decimal_error(self, site, bad):
        make, _ = _LIST_SITES[site]
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(make(bad))
        assert err.value.code == "schema.decimal"

    @pytest.mark.parametrize("site", _FIELD_SITES)
    def test_missing_numeric_field(self, site):
        make, _ = _FIELD_SITES[site]
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(make(_MISSING))
        assert err.value.code == "schema.missing"

    def test_file_roundtrip(self, tmp_path):
        inst = RestrictedSubsetSumInstance(1, (84, 84, 84))
        path = tmp_path / "inst.json"
        serialize.dump_instance(inst, path)
        assert serialize.load_instance(path) == inst


def test_universe_members_are_three_power_sums():
    # cross-check the generator against naive triple enumeration
    for n in (1, 2, 3):
        base = 3 * n + 1
        naive = {
            sum(base**j for j in combo)
            for combo in combinations_with_replacement(range(1, 3 * n + 1), 3)
        }
        assert set(enumerate_restricted_universe(n)) == naive


# over the interpreter's default limit of 4300 decimal digits for int/str
# conversion: an error message that formats such an int with str() would
# raise ValueError in place of the library's own error
_HUGE = 10**5000

_HUGE_VALUE_CALLS = {
    "x3c.element": lambda: X3CInstance(1, ((_HUGE, 1, 2),) * 3),
    "x3c.count": lambda: X3CInstance(_HUGE, ()),
    "rss.member": lambda: RestrictedSubsetSumInstance(1, (_HUGE, 1, 2)),
    "rss.count": lambda: RestrictedSubsetSumInstance(_HUGE, ()),
    "compose.t": lambda: CompositionConstants(3 * 2**20000, 1),
    "compose.n": lambda: CompositionConstants(2, -_HUGE),
    "item.weight": lambda: Item(-_HUGE, 1),
    "item.profit": lambda: Item(1, -_HUGE),
    "rng.bound": lambda: SplitMix64(1).randrange(-_HUGE),
    "ft.bound": lambda: frank_tardos_reduce([1, 2], -_HUGE),
    "sda.eps": lambda: simultaneous_approximation([1, 2], -_HUGE),
    "solve.dp": lambda: solve_dp_by_weight(KnapsackInstance((Item(1, 1),), _HUGE, 1)),
    "gen.size-x3c": lambda: gen_x3c(_HUGE, 1, True),
    "gen.size-rss": lambda: gen_rss(_HUGE, 1, True),
    "universe.enumerate": lambda: enumerate_restricted_universe(_HUGE),
    "schema.decimal": lambda: serialize.instance_from_obj(
        {"kind": "rss", "n": 1, "numbers": [_HUGE, "84", "84"]}
    ),
    "schema.triple": lambda: serialize.instance_from_obj(
        {"kind": "x3c", "n": 1, "triples": [[_HUGE, 1]] * 3}
    ),
    "schema.label": lambda: serialize.instance_from_obj(
        {
            "kind": "knapsack",
            "items": [{"weight": "1", "profit": "1", "label": {"kind": "index", "bit": -_HUGE}}],
            "capacity": "1",
            "target": "1",
        }
    ),
}


@pytest.fixture
def default_digit_limit():
    # cli.main lifts the limit for the whole process, so an earlier CLI test
    # would hide a message that cannot be formatted under the default
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("case", _HUGE_VALUE_CALLS)
def test_huge_values_keep_their_error_code(default_digit_limit, case):
    with pytest.raises((InvariantError, GuardError, SchemaError)) as err:
        _HUGE_VALUE_CALLS[case]()
    assert err.value.code == case.split("-")[0]


# two copies of the size-1 yes-input, for canonical_solution's arguments
_PAIR = compose([gen_rss(1, 0, True)] * 2)

# a bad argument to a library function raises the package's own error, not a
# bare ZeroDivisionError, TypeError or AttributeError, and is never accepted
_BAD_ARGUMENT_CALLS = [
    pytest.param("lll.basis", lambda: lll_reduce([[1, 2], [2, 4]]), id="lll-dependent"),
    pytest.param(
        "lll.basis", lambda: lll_reduce([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), id="lll-dependent-3"
    ),
    pytest.param("lll.basis", lambda: lll_reduce([[0, 0], [1, 1]]), id="lll-zero-row"),
    pytest.param("lll.basis", lambda: lll_reduce([[1, 2], [3]]), id="lll-ragged"),
    pytest.param("ft.bound", lambda: frank_tardos_reduce([3, 5, -7], 1.5), id="ft-float"),
    pytest.param("ft.bound", lambda: frank_tardos_reduce([3, 5, -7], True), id="ft-bool"),
    pytest.param(
        "ft.bound",
        lambda: frank_tardos_reduce([2**70 + 1, 3 * 2**66, -(2**71)], 2.0),
        id="ft-float-wide",
    ),
    pytest.param(
        "sda.eps", lambda: simultaneous_approximation([2**40 + 1, -(2**40)], 2.5), id="sda-float"
    ),
    pytest.param("split.bound", lambda: binary_split(1.5), id="split-float"),
    pytest.param("split.bound", lambda: binary_split(True), id="split-bool"),
    pytest.param("gen.items", lambda: gen_knapsack(5.0, 1, 1, 9, 3), id="gen-items-float"),
    pytest.param("gen.distinct", lambda: gen_knapsack(5, 1.0, 1, 9, 3), id="gen-w-float"),
    pytest.param("gen.max-value", lambda: gen_knapsack(5, 1, 1, 9.5, 3), id="gen-max-float"),
    pytest.param("gen.items", lambda: gen_knapsack(True, 1, 1, 9, 3), id="gen-items-bool"),
    pytest.param("gen.max-value", lambda: gen_knapsack(5, 1, 1, True, 3), id="gen-max-bool"),
    pytest.param("rng.bound", lambda: SplitMix64(1).randrange(2.5), id="rng-bound-float"),
    pytest.param("rng.bound", lambda: SplitMix64(1).randrange(True), id="rng-bound-bool"),
    pytest.param("universe.n", lambda: restricted_target(1.0), id="target-float"),
    pytest.param("universe.n", lambda: restricted_target(True), id="target-bool"),
    pytest.param(
        "universe.n", lambda: membership_in_restricted_universe(84, 1.5), id="member-n-float"
    ),
    pytest.param(
        "universe.member", lambda: membership_in_restricted_universe(84.0, 1), id="member-float"
    ),
    pytest.param("universe.n", lambda: enumerate_restricted_universe(True), id="universe-bool"),
    pytest.param("digits.base", lambda: digit_solutions(5, 2.0, 2), id="digits-base-float"),
    pytest.param("compose.input", lambda: compose([gen_x3c(2, 1, True)] * 2), id="compose-x3c"),
    pytest.param("universe.n", lambda: restricted_universe_size(1.5), id="size-float"),
    pytest.param("universe.n", lambda: restricted_universe_size(True), id="size-bool"),
    pytest.param("universe.n", lambda: restricted_universe_size(-1), id="size-negative"),
    pytest.param("witness.instance", lambda: index_labels(1.5, 3), id="index-labels-float"),
    pytest.param("compose.t", lambda: quadratization_labels(1, 2.0), id="quad-labels-float"),
    pytest.param(
        "witness.position", lambda: canonical_solution(_PAIR, 0, [0.5]), id="canonical-float"
    ),
    pytest.param(
        "witness.cardinality", lambda: canonical_solution(_PAIR, 0, 5), id="canonical-int"
    ),
    pytest.param(
        "witness.instance", lambda: canonical_solution(_PAIR, True, [0]), id="canonical-bool"
    ),
    pytest.param("item.label", lambda: Item(1, 2, "x"), id="item-label-str"),
    pytest.param(
        "grouped.capacity",
        lambda: reduce_ilp(GroupedInstance(((3, 2, (0,)),), -1, 4)),
        id="grouped-capacity-negative",
    ),
    pytest.param(
        "grouped.target",
        lambda: ilp_to_knapsack(GroupedInstance(((3, 2, (0,)),), 1, -1)),
        id="grouped-target-negative",
    ),
    pytest.param(
        "grouped.members",
        lambda: reduce_ilp(GroupedInstance(((3, 2, 5),), 1, 1)),
        id="grouped-members-int-reduce",
    ),
    pytest.param(
        "grouped.members",
        lambda: ilp_to_knapsack(GroupedInstance(((3, 2, 5),), 1, 1)),
        id="grouped-members-int-split",
    ),
    pytest.param(
        "grouped.weight",
        lambda: ilp_to_knapsack(GroupedInstance(((True, 2, (0,)),), 1, 1)),
        id="grouped-weight-bool",
    ),
    pytest.param(
        "grouped.profit",
        lambda: ilp_to_knapsack(GroupedInstance(((3, -2, (0,)),), 1, 1)),
        id="grouped-profit-negative",
    ),
    pytest.param(
        "grouped.classes",
        lambda: ilp_to_knapsack(GroupedInstance(((3, 2),), 1, 1)),
        id="grouped-class-pair",
    ),
    pytest.param("witness.instance", lambda: index_labels(-1, 3), id="index-labels-negative"),
    pytest.param("witness.instance", lambda: index_labels(8, 3), id="index-labels-too-wide"),
    pytest.param("compose.t", lambda: index_labels(0, 0), id="index-labels-no-bits"),
    pytest.param(
        "witness.instance", lambda: quadratization_labels(-1, 3), id="quad-labels-negative"
    ),
    pytest.param(
        "witness.instance", lambda: quadratization_labels(4, 2), id="quad-labels-too-wide"
    ),
    pytest.param("compose.t", lambda: quadratization_labels(1, -2), id="quad-labels-negative-t"),
    pytest.param("verify.trials", lambda: verify_compose(2, 1, "x", 0), id="verify-trials-str"),
    # each argument is checked whole, type and bound, before the next one
    pytest.param("digits.value", lambda: digit_solutions(-1, 1, 0), id="digits-value-first"),
    pytest.param("digits.base", lambda: digit_solutions(0, 1, 0.5), id="digits-base-second"),
    pytest.param("gen.items", lambda: gen_knapsack(0, 1.0, 1, 9, 3), id="gen-items-first"),
]


@pytest.mark.parametrize("code, call", _BAD_ARGUMENT_CALLS)
def test_bad_arguments_raise_their_code(code, call):
    with pytest.raises(InvariantError) as err:
        call()
    assert err.value.code == code


# every bounded int argument: (code, name in the message, least, call with
# the value); each is refused with one message shape, below its bound or bool
_BOUNDED_INT_SITES = {
    "item-weight": ("item.weight", "item weight", 0, lambda v: Item(v, 0)),
    "item-profit": ("item.profit", "item profit", 0, lambda v: Item(0, v)),
    "knapsack-capacity": (
        "knapsack.capacity", "capacity", 0, lambda v: KnapsackInstance((), v, 0)
    ),
    "knapsack-target": ("knapsack.target", "target", 0, lambda v: KnapsackInstance((), 0, v)),
    "subsetsum-numbers": (
        "subsetsum.numbers", "number", 0, lambda v: SubsetSumInstance((1, v), 0)
    ),
    "subsetsum-target": ("subsetsum.target", "target", 0, lambda v: SubsetSumInstance((), v)),
    "rss-n": ("rss.n", "size parameter", 1, lambda v: RestrictedSubsetSumInstance(v, ())),
    "x3c-n": ("x3c.n", "size parameter", 1, lambda v: X3CInstance(v, ())),
    "universe-target": ("universe.n", "size parameter", 1, restricted_target),
    "universe-member": (
        "universe.n", "size parameter", 1, lambda v: membership_in_restricted_universe(84, v)
    ),
    "universe-size": ("universe.n", "size parameter", 1, restricted_universe_size),
    "universe-enumerate": ("universe.n", "size parameter", 1, enumerate_restricted_universe),
    "grouped-weight": (
        "grouped.weight", "class weight", 0, lambda v: GroupedInstance(((v, 2, (0,)),), 1, 1)
    ),
    "grouped-profit": (
        "grouped.profit", "class profit", 0, lambda v: GroupedInstance(((3, v, (0,)),), 1, 1)
    ),
    "grouped-capacity": ("grouped.capacity", "capacity", 0, lambda v: GroupedInstance((), v, 1)),
    "grouped-target": ("grouped.target", "target", 0, lambda v: GroupedInstance((), 1, v)),
    "split-bound": ("split.bound", "bound", 0, binary_split),
    "sda-eps": ("sda.eps", "precision k", 2, lambda v: simultaneous_approximation([1, 2], v)),
    "ft-bound": ("ft.bound", "norm budget", 1, lambda v: frank_tardos_reduce([1, 2], v)),
    "rng-bound": ("rng.bound", "bound", 1, lambda v: SplitMix64(1).randrange(v)),
    "gen-x3c-n": ("gen.n", "size parameter", 1, lambda v: gen_x3c(v, 1, True)),
    "gen-items": ("gen.items", "item count", 1, lambda v: gen_knapsack(v, 1, 1, 9, 3)),
    "compose-n": ("compose.n", "n", 1, lambda v: CompositionConstants(2, v)),
    "digits-value": ("digits.value", "value", 0, lambda v: digit_solutions(v, 2, 1)),
    "digits-base": ("digits.base", "base", 2, lambda v: digit_solutions(0, v, 1)),
    "digits-length": ("digits.length", "length", 1, lambda v: digit_solutions(0, 2, v)),
    "index-labels-lg-t": ("compose.t", "bit count lg_t", 1, lambda v: index_labels(0, v)),
    "quad-labels-lg-t": ("compose.t", "bit count lg_t", 1, lambda v: quadratization_labels(0, v)),
    "verify-trials": ("verify.trials", "trials", 0, lambda v: verify_compose(2, 1, v, 0)),
}


@pytest.mark.parametrize("site", _BOUNDED_INT_SITES)
@pytest.mark.parametrize("kind", ["below", "bool"])
def test_bounded_int_message_shape(site, kind):
    code, name, least, call = _BOUNDED_INT_SITES[site]
    value = least - 1 if kind == "below" else True
    with pytest.raises(InvariantError) as err:
        call(value)
    assert err.value.code == code
    assert str(err.value) == f"{name} must be an int >= {least}, got {value!r}"


def test_huge_json_literal_is_schema_error(default_digit_limit, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"kind": "rss", "n": {"9" * 5000}, "numbers": []}}')
    with pytest.raises(SchemaError) as err:
        serialize.load_instance(path)
    assert err.value.code == "schema.json"


@pytest.mark.parametrize(
    "value,show,text",
    [
        (-(2**20000), str, "-<20001-bit int>"),
        ((1, 2**20000), str, "(1, <20001-bit int>)"),
        (["a", 2**20000], repr, "['a', <20001-bit int>]"),
        (12, str, "12"),
        ((3,), str, "(3,)"),
        ("a", str, "a"),
        ("a", repr, "'a'"),
    ],
    ids=["huge", "in-tuple", "in-list", "int", "one-tuple", "str", "repr"],
)
def test_shown(default_digit_limit, value, show, text):
    assert core._shown(value, show) == text
