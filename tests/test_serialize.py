"""The knapsack wire format: an ``items`` entry is an object or the int
position of an earlier unlabeled entry.  The writer spells each distinct
unlabeled pair out once, the loader shares one ``Item`` per back-reference,
and on per-item documents the loader behaves exactly like a decoder that
builds every item on its own."""

from __future__ import annotations

import hashlib
import json
from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expand_references
from fewweights import serialize
from fewweights.cli import main
from fewweights.core import (
    Encoding,
    Index,
    InvariantError,
    Item,
    KnapsackInstance,
    Quadratization,
    SchemaError,
    SubsetSumInstance,
)
from fewweights.generators import gen_knapsack, gen_rss, gen_x3c


def per_item_reference(obj: dict) -> KnapsackInstance:
    """Every entry checked and built on its own, in order."""
    items = []
    for entry in serialize._expect(obj, "items", list):
        if not isinstance(entry, dict):
            raise SchemaError("schema.item", "item must be an object or a reference")
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


def knapsack(items) -> dict:
    return {"kind": "knapsack", "items": items, "capacity": "5", "target": "3"}


_DECIMALS = st.sampled_from(["0", "1", "7", "18446744073709551616"])
_GOOD_LABELS = [
    {"kind": "index", "bit": 1, "k": 0},
    {"kind": "encoding", "instance": 2, "position": 0},
]
_BAD_LABEL = {"kind": "index", "bit": 1, "k": -1}  # schema.label
_LABELS = st.sampled_from([None, *_GOOD_LABELS, _BAD_LABEL])


@st.composite
def bad_entries(draw, w: str, p: str):
    """One malformed entry next to the valid pair ``(w, p)``; never an int,
    which would be a back-reference."""
    field = draw(st.sampled_from(["weight", "profit"]))
    fault = draw(st.sampled_from(["01", "+1", 1, "missing", ["1"], "not a dict"]))
    if fault == "not a dict":
        return draw(st.sampled_from([[w, p], w, None, 3.0, True]))
    entry = {"weight": w, "profit": p}
    if fault == "missing":
        del entry[field]
    else:
        entry[field] = fault
    return entry


@st.composite
def documents(draw):
    """Per-item knapsack documents over a pool of at most three pairs, so
    pairs repeat heavily; some items are labeled and one entry may be
    malformed."""
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


@st.composite
def referenced_documents(draw):
    """Valid documents whose entries may refer back to any earlier unlabeled
    entry, a back-reference included."""
    entries: list = []
    unlabeled: list[int] = []
    for i in range(draw(st.integers(0, 40))):
        if unlabeled and draw(st.booleans()):
            entries.append(draw(st.sampled_from(unlabeled)))
            unlabeled.append(i)
            continue
        entry = {"weight": draw(_DECIMALS), "profit": draw(_DECIMALS)}
        if draw(st.integers(0, 3)) == 0:
            entry["label"] = draw(st.sampled_from(_GOOD_LABELS))
        else:
            unlabeled.append(i)
        entries.append(entry)
    return knapsack(entries)


_ZERO_OR_SMALL = st.sampled_from([0, 3])
_ITEM_LABELS = st.sampled_from(
    [None, None, Encoding(0, 1), Index(1, 0), Quadratization((1, 0), 0, 1)]
)


@st.composite
def instances(draw):
    """Knapsack instances over a pool of at most three pairs, zero values
    included, with some labeled items."""
    values = st.sampled_from([0, 1, 7, 2**64])
    pool = draw(st.lists(st.tuples(values, values), min_size=1, max_size=3))
    items = [
        Item(*draw(st.sampled_from(pool)), draw(_ITEM_LABELS))
        for _ in range(draw(st.integers(0, 40)))
    ]
    return KnapsackInstance(tuple(items), draw(_ZERO_OR_SMALL), draw(_ZERO_OR_SMALL))


class TestBackReferences:
    @settings(max_examples=300, deadline=None)
    @given(instances(), st.booleans())
    def test_round_trip(self, inst, strip_labels):
        if strip_labels:
            inst = KnapsackInstance(
                tuple(Item(it.weight, it.profit) for it in inst.items), inst.capacity, inst.target
            )
        obj = json.loads(json.dumps(serialize.instance_to_obj(inst)))
        assert serialize.instance_from_obj(obj) == inst
        # each distinct unlabeled pair is spelled out exactly once, and every
        # labeled item is an object of its own
        plain = [(it.weight, it.profit) for it in inst.items if it.label is None]
        objects = [e for e in obj["items"] if type(e) is dict and "label" not in e]
        spelled = Counter((int(e["weight"]), int(e["profit"])) for e in objects)
        assert spelled == Counter(set(plain))
        assert sum(type(e) is int for e in obj["items"]) == len(plain) - len(set(plain))

    @settings(max_examples=300, deadline=None)
    @given(referenced_documents())
    def test_reference_loads_its_target(self, obj):
        inst = serialize.instance_from_obj(obj)
        assert inst == per_item_reference(expand_references(obj))
        for i, entry in enumerate(obj["items"]):
            if type(entry) is int:
                assert inst.items[i] is inst.items[entry]

    def test_labeled_items_keep_their_bytes(self):
        inst = KnapsackInstance((Item(1, 2, Index(0, 0)),) * 3 + (Item(1, 2),) * 2, 3, 2)
        items = serialize.instance_to_obj(inst)["items"]
        label = {"kind": "index", "bit": 0, "k": 0}
        assert items[:3] == [{"weight": "1", "profit": "2", "label": label}] * 3
        assert items[3:] == [{"weight": "1", "profit": "2"}, 3]

    # items: 0 labeled, 1 unlabeled, 2 the entry under test, 3 unlabeled
    @pytest.mark.parametrize(
        "ref",
        [-1, 2, 3, 2**64, 0, True, 1.0],
        ids=["negative", "own", "later", "2^64", "labeled", "true", "float"],
    )
    def test_refused_references(self, tmp_path, capsys, ref):
        entries = [
            {"weight": "1", "profit": "2", "label": {"kind": "index", "bit": 0, "k": 0}},
            {"weight": "1", "profit": "2"},
            ref,
            {"weight": "3", "profit": "4"},
        ]
        path = tmp_path / "k.json"
        path.write_text(json.dumps(knapsack(entries)))
        assert main(["kernelize", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error[schema.item]: {path}:")


class TestSharedItems:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_matches_per_item_decoder(self, obj):
        assert outcome(serialize.instance_from_obj, obj) == outcome(per_item_reference, obj)

    def test_equal_unlabeled_items_are_one_object(self):
        items = tuple(Item(i % 2, 9) for i in range(1000)) + (Item(0, 9, Index(0, 0)),)
        obj = serialize.instance_to_obj(KnapsackInstance(items, 5, 3))
        assert [type(e) for e in obj["items"]].count(dict) == 3
        inst = serialize.instance_from_obj(obj)
        assert len({id(it) for it in inst.items[:1000]}) == 2
        assert inst.items[1000] == Item(0, 9, Index(0, 0))
        assert inst.items[1000] is not inst.items[0]

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
        plain = {"weight": "1", "profit": "2"}
        entries = [plain, {**plain, "label": _BAD_LABEL}]
        got = outcome(serialize.instance_from_obj, knapsack(entries))
        assert got == outcome(per_item_reference, knapsack(entries))
        assert got[:2] == (SchemaError, "schema.label")


class TestPinnedBytes:
    def test_every_kind(self, tmp_path):
        # one document of each kind, both composed forms written by
        # `compose` itself, as `json.dumps(..., indent=2)` joined by newlines;
        # pinned before the format became one table, so key order, spacing
        # and every value are held
        paths = []
        for s in range(4):
            paths.append(tmp_path / f"r{s}.json")
            serialize.dump_instance(gen_rss(1, s, s == 1), paths[-1])
        composed = []
        for flags in ([], ["--strip-labels"]):
            out = tmp_path / "c.json"
            assert main(["compose", *map(str, paths), "--out", str(out), *flags]) == 0
            composed.append(out.read_text(encoding="utf-8").removesuffix("\n"))
        insts = (gen_rss(2, 5, True), gen_x3c(2, 5, True), SubsetSumInstance((3, 5, 7), 12))
        docs = [json.dumps(serialize.instance_to_obj(inst), indent=2) for inst in insts]
        docs += composed
        big = serialize.instance_to_obj(gen_knapsack(64, 2, 2, 2**64, 9))
        docs.append(json.dumps(big, indent=2))
        digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
        assert digest == "c2458a2e00589d7fa1feb517f31a5b2478402c932e1c07f8c3733b9be892dfb8"


# one valid document of each kind, and a value of the wrong JSON type for
# each of its fields
_VALID = {
    "knapsack": {"kind": "knapsack", "items": [], "capacity": "0", "target": "0"},
    "rss": {"kind": "rss", "n": 1, "numbers": ["84", "84", "84"]},
    "x3c": {"kind": "x3c", "n": 1, "triples": [[1, 2, 3]] * 3},
    "subsetsum": {"kind": "subsetsum", "numbers": [], "target": "0"},
}
_WRONG_TYPE = {str: 1, int: "1", list: {}}
_KIND_FIELDS = [(kind, field) for kind, doc in _VALID.items() for field in doc]


class TestFieldSchema:
    @pytest.mark.parametrize("kind", _VALID)
    def test_valid_document_loads(self, kind):
        inst = serialize.instance_from_obj(_VALID[kind])
        assert serialize.instance_to_obj(inst) == _VALID[kind]

    @pytest.mark.parametrize("kind, field", _KIND_FIELDS)
    def test_missing_field(self, kind, field):
        obj = {k: v for k, v in _VALID[kind].items() if k != field}
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(obj)
        assert err.value.code == "schema.missing"
        assert str(err.value) == f"missing field {field!r}"

    @pytest.mark.parametrize("kind, field", _KIND_FIELDS)
    def test_wrong_json_type(self, kind, field):
        obj = dict(_VALID[kind])
        obj[field] = _WRONG_TYPE[type(obj[field])]
        with pytest.raises(SchemaError) as err:
            serialize.instance_from_obj(obj)
        assert err.value.code == "schema.type"
        assert str(err.value).startswith(f"{field}: ")
