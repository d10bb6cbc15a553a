"""The knapsack loader shares one ``Item`` among equal unlabeled items and
otherwise behaves exactly like a decoder that builds every item on its own."""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from fewweights import serialize
from fewweights.core import Index, InvariantError, Item, KnapsackInstance, SchemaError


def per_item_reference(obj: dict) -> KnapsackInstance:
    """Every entry checked and built on its own, in order."""
    items = []
    for entry in serialize._expect(obj, "items", list):
        if not isinstance(entry, dict):
            raise SchemaError("schema.item", "item must be an object")
        items.append(
            Item(
                serialize._nat(entry, "weight"),
                serialize._nat(entry, "profit"),
                serialize._label_from_obj(entry.get("label")),
            )
        )
    return KnapsackInstance(
        tuple(items), serialize._nat(obj, "capacity"), serialize._nat(obj, "target")
    )


def outcome(decode, obj):
    try:
        return decode(obj)
    except (SchemaError, InvariantError) as err:
        return type(err), err.code, str(err)


def assert_one_object_per_pair(inst: KnapsackInstance) -> None:
    plain = [it for it in inst.items if it.label is None]
    assert len({id(it) for it in plain}) == len({(it.weight, it.profit) for it in plain})


def knapsack(items) -> dict:
    return {"kind": "knapsack", "items": items, "capacity": "5", "target": "3"}


_DECIMALS = st.sampled_from(["0", "1", "7", "18446744073709551616"])
_LABELS = st.sampled_from(
    [
        None,
        {"kind": "index", "bit": 1, "k": 0},
        {"kind": "encoding", "instance": 2, "position": 0},
        {"kind": "index", "bit": 1, "k": -1},  # schema.label
    ]
)


@st.composite
def bad_entries(draw, w: str, p: str):
    """One malformed entry next to the valid pair ``(w, p)``."""
    field = draw(st.sampled_from(["weight", "profit"]))
    fault = draw(st.sampled_from(["01", "+1", 1, "missing", ["1"], "not a dict"]))
    if fault == "not a dict":
        return draw(st.sampled_from([[w, p], w, None, 3]))
    entry = {"weight": w, "profit": p}
    if fault == "missing":
        del entry[field]
    else:
        entry[field] = fault
    return entry


@st.composite
def documents(draw):
    """Knapsack documents over a pool of at most three pairs, so pairs repeat
    heavily; some items are labeled and one entry may be malformed."""
    pool = draw(st.lists(st.tuples(_DECIMALS, _DECIMALS), min_size=1, max_size=3))
    entries = []
    for _ in range(draw(st.integers(0, 40))):
        w, p = draw(st.sampled_from(pool))
        entry = {"weight": w, "profit": p}
        if draw(st.integers(0, 3)) == 0:
            entry["label"] = draw(_LABELS)
        entries.append(entry)
    if draw(st.booleans()):
        bad = draw(bad_entries(*draw(st.sampled_from(pool))))
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return knapsack(entries)


class TestSharedItems:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_matches_per_item_decoder(self, obj):
        got = outcome(serialize.instance_from_obj, obj)
        assert got == outcome(per_item_reference, obj)
        if isinstance(got, KnapsackInstance):
            assert_one_object_per_pair(got)

    def test_equal_unlabeled_items_are_one_object(self):
        entries = [{"weight": str(i % 2), "profit": "9"} for i in range(1000)]
        entries.append({"weight": "0", "profit": "9", "label": {"kind": "index", "bit": 0, "k": 0}})
        inst = serialize.instance_from_obj(knapsack(entries))
        assert len({id(it) for it in inst.items[:1000]}) == 2
        assert inst.items[1000] == Item(0, 9, Index(0, 0))
        assert inst.items[1000] is not inst.items[0]
        assert_one_object_per_pair(inst)

    def test_dict_subclass_entries_are_accepted(self):
        class Entry(dict):
            pass

        entries = [
            Entry(weight="4", profit="2"),
            Entry(weight="4", profit="2"),
            OrderedDict(weight="4", profit="2"),
            {"weight": "4", "profit": "2"},
        ]
        inst = serialize.instance_from_obj(knapsack(entries))
        assert inst == KnapsackInstance((Item(4, 2),) * 4, 5, 3)

    def test_bad_label_on_a_decoded_pair_is_raised(self):
        bad_label = {"kind": "index", "bit": 1, "k": -1}
        entries = [{"weight": "1", "profit": "2"}, {"weight": "1", "profit": "2", "label": bad_label}]
        got = outcome(serialize.instance_from_obj, knapsack(entries))
        assert got == outcome(per_item_reference, knapsack(entries))
        assert got[:2] == (SchemaError, "schema.label")
