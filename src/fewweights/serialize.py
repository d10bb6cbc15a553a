"""JSON wire formats for problem instances.

Every big integer travels as a decimal string so that values far beyond 64
bits survive any JSON implementation unharmed: ASCII digits with no sign and
no leading zero (``"0"`` itself excepted), within the interpreter's int/str
digit limit.  Schema violations raise :class:`SchemaError`; values that parse
but break a type invariant raise :class:`InvariantError` (from the type
constructors), so the two failure classes stay distinguishable by error code.

The interface is four functions: ``instance_to_obj``/``instance_from_obj``
between instances and JSON objects, ``dump_instance``/``load_instance`` through
files.  Only ``instance_to_obj`` can strip the labels of knapsack items.

A knapsack ``items`` entry is either an object or an int ``j``, a
back-reference: the same item as the earlier entry at position ``j``, which
must hold an unlabeled item.  The writer spells out the first occurrence of
each unlabeled (weight, profit) pair and refers back to it for every equal
unlabeled item after it, so a document costs bytes per distinct pair, not per
item; labeled items (unless stripped) are always objects.  The loader gives a
back-reference the very ``Item`` object of its target, so repeats share one
frozen ``Item``; every object entry gets an ``Item`` of its own.

Errors from ``load_instance`` do not name the file; the CLI, which knows what
it was given, adds the path to every load error once.
"""

from __future__ import annotations

import json

from .core import (
    Encoding,
    Index,
    Item,
    KnapsackInstance,
    Label,
    Quadratization,
    RestrictedSubsetSumInstance,
    SchemaError,
    SubsetSumInstance,
    X3CInstance,
)

__all__ = ["instance_to_obj", "instance_from_obj", "dump_instance", "load_instance"]


def _decode_nat(field: str, v) -> int:
    # ASCII digits are exactly 0-9, so this is the grammar 0|[1-9][0-9]*
    if not (isinstance(v, str) and v.isascii() and v.isdigit() and (len(v) == 1 or v[0] != "0")):
        raise SchemaError("schema.decimal", f"{field}: expected decimal string, got {v!r}")
    try:
        return int(v)
    except ValueError as exc:  # e.g. the interpreter's int/str digit limit
        raise SchemaError("schema.decimal", f"{field}: {exc}") from None


def _nat(obj: dict, field: str) -> int:
    return _decode_nat(field, _expect(obj, field, str))


def _expect(obj, field: str, types):
    if field not in obj:
        raise SchemaError("schema.missing", f"missing field {field!r}")
    v = obj[field]
    if not isinstance(v, types) or isinstance(v, bool):
        raise SchemaError("schema.type", f"{field}: unexpected type {type(v).__name__}")
    return v


def _label_to_obj(label: Label | None):
    if label is None:
        return None
    if isinstance(label, Encoding):
        return {"kind": "encoding", "instance": label.instance, "position": label.position}
    if isinstance(label, Quadratization):
        return {"kind": "quadratization", "bits": list(label.bits), "k": label.k, "l": label.l}
    if isinstance(label, Index):
        return {"kind": "index", "bit": label.bit, "k": label.k}
    raise SchemaError("schema.label", f"unknown label {label!r}")


def _label_index(obj, field: str) -> int:
    v = _expect(obj, field, int)
    if v < 0:
        raise SchemaError("schema.label", f"{field}: negative label index {v}")
    return v


def _label_from_obj(obj) -> Label | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise SchemaError("schema.label", "label must be an object")
    kind = _expect(obj, "kind", str)
    if kind == "encoding":
        return Encoding(_label_index(obj, "instance"), _label_index(obj, "position"))
    if kind == "quadratization":
        bits = _expect(obj, "bits", list)
        if len(bits) != 2 or any(type(b) is not int or b not in (0, 1) for b in bits):
            raise SchemaError("schema.label", f"bad quadratization bits {bits!r}")
        return Quadratization((bits[0], bits[1]), _label_index(obj, "k"), _label_index(obj, "l"))
    if kind == "index":
        return Index(_label_index(obj, "bit"), _label_index(obj, "k"))
    raise SchemaError("schema.label", f"unknown label kind {kind!r}")


# ---------------------------------------------------------------------------
# Per-kind converters; ``instance_from_obj`` has checked that ``obj`` is a dict
# ---------------------------------------------------------------------------

def _knapsack_to_obj(inst: KnapsackInstance, strip_labels: bool) -> dict:
    items = []
    first: dict[tuple[int, int], int] = {}  # unlabeled pair -> position of its object
    for it in inst.items:
        labeled = it.label is not None and not strip_labels
        j = len(items) if labeled else first.setdefault((it.weight, it.profit), len(items))
        if j < len(items):
            items.append(j)
            continue
        entry = {"weight": str(it.weight), "profit": str(it.profit)}
        if labeled:
            entry["label"] = _label_to_obj(it.label)
        items.append(entry)
    return {
        "kind": "knapsack",
        "items": items,
        "capacity": str(inst.capacity),
        "target": str(inst.target),
    }


def _knapsack_from_obj(obj: dict) -> KnapsackInstance:
    items = []
    for entry in _expect(obj, "items", list):
        if type(entry) is int:
            if not 0 <= entry < len(items) or items[entry].label is not None:
                raise SchemaError(
                    "schema.item",
                    f"items[{len(items)}]: a reference must name an earlier unlabeled item",
                )
            items.append(items[entry])
        elif isinstance(entry, dict):
            w, p = _nat(entry, "weight"), _nat(entry, "profit")
            items.append(Item(w, p, _label_from_obj(entry.get("label"))))
        else:
            raise SchemaError("schema.item", "item must be an object or a reference")
    return KnapsackInstance(tuple(items), _nat(obj, "capacity"), _nat(obj, "target"))


def _rss_to_obj(inst: RestrictedSubsetSumInstance) -> dict:
    return {
        "kind": "rss",
        "n": inst.n,
        "numbers": [str(a) for a in inst.numbers],
    }


def _rss_from_obj(obj: dict) -> RestrictedSubsetSumInstance:
    n = _expect(obj, "n", int)
    numbers = [_decode_nat("numbers", v) for v in _expect(obj, "numbers", list)]
    return RestrictedSubsetSumInstance(n, tuple(numbers))


def _x3c_to_obj(inst: X3CInstance) -> dict:
    return {"kind": "x3c", "n": inst.n, "triples": [list(t) for t in inst.triples]}


def _x3c_from_obj(obj: dict) -> X3CInstance:
    n = _expect(obj, "n", int)
    triples = []
    for t in _expect(obj, "triples", list):
        if not isinstance(t, list) or len(t) != 3 or not all(
            isinstance(j, int) and not isinstance(j, bool) for j in t
        ):
            raise SchemaError("schema.triple", f"triple must be a list of 3 ints, got {t!r}")
        triples.append(tuple(t))
    return X3CInstance(n, tuple(triples))


def _subset_sum_to_obj(inst: SubsetSumInstance) -> dict:
    return {
        "kind": "subsetsum",
        "numbers": [str(a) for a in inst.numbers],
        "target": str(inst.target),
    }


def _subset_sum_from_obj(obj: dict) -> SubsetSumInstance:
    numbers = [_decode_nat("numbers", v) for v in _expect(obj, "numbers", list)]
    return SubsetSumInstance(tuple(numbers), _nat(obj, "target"))


_TO_OBJ = {  # knapsack, the kind with labels, goes first
    RestrictedSubsetSumInstance: _rss_to_obj,
    X3CInstance: _x3c_to_obj,
    SubsetSumInstance: _subset_sum_to_obj,
}

_FROM_OBJ = {
    "knapsack": _knapsack_from_obj,
    "rss": _rss_from_obj,
    "x3c": _x3c_from_obj,
    "subsetsum": _subset_sum_from_obj,
}


def instance_to_obj(inst, strip_labels: bool = False) -> dict:
    if type(inst) is KnapsackInstance:
        return _knapsack_to_obj(inst, strip_labels)
    conv = _TO_OBJ.get(type(inst))
    if conv is None:
        raise SchemaError("schema.kind", f"cannot serialize {type(inst).__name__}")
    return conv(inst)


def instance_from_obj(obj):
    if not isinstance(obj, dict):
        raise SchemaError("schema.object", "instance must be a JSON object")
    kind = _expect(obj, "kind", str)
    conv = _FROM_OBJ.get(kind)
    if conv is None:
        raise SchemaError("schema.kind", f"unknown instance kind {kind!r}")
    return conv(obj)


def dump_instance(inst, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError("schema.json", str(exc)) from exc
    except RecursionError:
        raise SchemaError("schema.json", "JSON nested too deeply") from None
    return instance_from_obj(obj)
