"""JSON wire formats for problem instances.

Every big integer travels as a decimal string so that values far beyond 64
bits survive any JSON implementation unharmed: ASCII digits with no sign and
no leading zero (``"0"`` itself excepted), within the interpreter's int/str
digit limit.  Schema violations raise :class:`SchemaError`; values that parse
but break a type invariant raise :class:`InvariantError` (from the type
constructors), so the two failure classes stay distinguishable by error code.

The interface is four functions: ``instance_to_obj``/``instance_from_obj``
between instances and JSON objects, ``dump_instance``/``load_instance`` through
files.  Two tables define the format: ``_KINDS`` gives each kind its type and
its fields, and ``_FIELDS`` one codec per field name, so a field such as
``target`` has the same JSON shape in every kind that has it.

A knapsack's ``items`` take one of two forms.  The list form has one entry
per item: an object, or an int ``j``, a back-reference: the same item as the
earlier entry at position ``j``, which must hold an unlabeled item.  The
palette form ``{"palette": [...], "pattern": "..."}`` lists each distinct
unlabeled (weight, profit) pair once as an object without a label, at most
64 of them, and spells the items as one character each from ``_ALPHABET``,
character ``i`` naming palette entry ``i``.

The writer uses the palette form when every item is unlabeled, some pair
repeats and there are at most 64 distinct pairs, with the palette in
first-occurrence order.  Otherwise it writes the list form, spelling out the
first occurrence of each unlabeled pair and referring back to it for every
equal unlabeled item after it; labeled items are always objects.  Either
way a document costs bytes per distinct pair, and the palette form one
character per item.  The loader reads both forms, list documents with one
object per item included.  Items that name one palette entry, or a
back-reference and its target, share one frozen ``Item``; every object entry
of a list gets an ``Item`` of its own.

Errors from ``load_instance`` do not name the file; the CLI, which knows what
it was given, adds the path to every load error once.
"""

from __future__ import annotations

import json
from operator import attrgetter

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
    _is_int,
    _shown,
)

__all__ = ["instance_to_obj", "instance_from_obj", "dump_instance", "load_instance"]


def _decode_nat(field: str, v) -> int:
    # ASCII digits are exactly 0-9, so this is the grammar 0|[1-9][0-9]*
    if not (isinstance(v, str) and v.isascii() and v.isdigit() and (len(v) == 1 or v[0] != "0")):
        raise SchemaError(
            "schema.decimal", f"{field}: expected decimal string, got {_shown(v, repr)}"
        )
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


def _label_to_obj(label: Label):
    if isinstance(label, Encoding):
        return {"kind": "encoding", "instance": label.instance, "position": label.position}
    if isinstance(label, Quadratization):
        return {"kind": "quadratization", "bits": list(label.bits), "k": label.k, "l": label.l}
    # Item admits no other label
    return {"kind": "index", "bit": label.bit, "k": label.k}


def _label_index(obj, field: str) -> int:
    v = _expect(obj, field, int)
    if v < 0:
        raise SchemaError("schema.label", f"{field}: negative label index {_shown(v)}")
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
            raise SchemaError("schema.label", f"bad quadratization bits {_shown(bits, repr)}")
        return Quadratization((bits[0], bits[1]), _label_index(obj, "k"), _label_index(obj, "l"))
    if kind == "index":
        return Index(_label_index(obj, "bit"), _label_index(obj, "k"))
    raise SchemaError("schema.label", f"unknown label kind {kind!r}")


# ---------------------------------------------------------------------------
# The wire format as two tables: each kind's fields, and one codec per field
# ---------------------------------------------------------------------------

# 64 characters that JSON writes as themselves, so a pattern needs no escape
_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-_"
_PAIR_AND_LABEL = attrgetter("weight", "profit", "label")


class _Codes(dict):
    """(weight, profit, label) -> pattern character, handed out in
    first-occurrence order; a labeled item, or a pair past the alphabet,
    raises ``KeyError``."""

    def __missing__(self, key):
        if key[2] is not None or len(self) == len(_ALPHABET):
            raise KeyError(key)
        char = self[key] = _ALPHABET[len(self)]
        return char


def _items_to_obj(items) -> dict | list:
    codes = _Codes()
    try:
        pattern = "".join(map(codes.__getitem__, map(_PAIR_AND_LABEL, items)))
    except KeyError:
        pattern = ""  # the list form
    if len(codes) < len(pattern):
        palette = [{"weight": str(w), "profit": str(p)} for w, p, _ in codes]
        return {"palette": palette, "pattern": pattern}
    out = []
    first: dict[tuple[int, int], int] = {}  # unlabeled pair -> position of its object
    for it in items:
        labeled = it.label is not None
        j = len(out) if labeled else first.setdefault((it.weight, it.profit), len(out))
        if j < len(out):
            out.append(j)
            continue
        entry = {"weight": str(it.weight), "profit": str(it.profit)}
        if labeled:
            entry["label"] = _label_to_obj(it.label)
        out.append(entry)
    return out


def _palette_items(form: dict) -> tuple[Item, ...]:
    palette = _expect(form, "palette", list)
    pattern = _expect(form, "pattern", str)
    if len(palette) > len(_ALPHABET):
        raise SchemaError("schema.item", "palette[64]: a palette holds at most 64 pairs")
    lookup = {}
    for i, (char, entry) in enumerate(zip(_ALPHABET, palette)):
        if not isinstance(entry, dict) or "label" in entry:
            raise SchemaError(
                "schema.item", f"palette[{i}]: entry must be an object without a label"
            )
        lookup[char] = Item(_nat(entry, "weight"), _nat(entry, "profit"))
    try:
        return tuple(map(lookup.__getitem__, pattern))
    except KeyError:
        i = next(i for i, char in enumerate(pattern) if char not in lookup)
        raise SchemaError(
            "schema.item", f"pattern[{i}]: {pattern[i]!r} names no palette entry"
        ) from None


def _items_from_obj(field: str, entries: list | dict) -> tuple[Item, ...]:
    if isinstance(entries, dict):
        return _palette_items(entries)
    items = []
    for entry in entries:
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
    return tuple(items)


def _triples_from_obj(field: str, entries: list) -> tuple[tuple[int, int, int], ...]:
    for t in entries:
        if not isinstance(t, list) or len(t) != 3 or not all(map(_is_int, t)):
            raise SchemaError(
                "schema.triple", f"triple must be a list of 3 ints, got {_shown(t, repr)}"
            )
    return tuple(map(tuple, entries))


# field -> (JSON type, encoder, decoder); a decoder gets the field's name and
# its value once ``_expect`` has checked the value's JSON type
_DECIMAL = (str, str, _decode_nat)
_FIELDS = {
    "items": ((list, dict), _items_to_obj, _items_from_obj),
    "capacity": _DECIMAL,
    "target": _DECIMAL,
    "numbers": (
        list,
        lambda numbers: [str(a) for a in numbers],
        lambda field, vs: tuple(_decode_nat(field, v) for v in vs),
    ),
    "n": (int, lambda n: n, lambda field, n: n),
    "triples": (list, lambda triples: [list(t) for t in triples], _triples_from_obj),
}

# kind -> (type, fields): a document lists the fields after "kind" in this
# order, they are read in it, and the type takes their values in it
_KINDS = {
    "knapsack": (KnapsackInstance, ("items", "capacity", "target")),
    "rss": (RestrictedSubsetSumInstance, ("n", "numbers")),
    "x3c": (X3CInstance, ("n", "triples")),
    "subsetsum": (SubsetSumInstance, ("numbers", "target")),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}


def instance_to_obj(inst) -> dict:
    kind = _KIND_OF.get(type(inst))
    if kind is None:
        raise SchemaError("schema.kind", f"cannot serialize {type(inst).__name__}")
    obj = {"kind": kind}
    for field in _KINDS[kind][1]:
        obj[field] = _FIELDS[field][1](getattr(inst, field))
    return obj


def instance_from_obj(obj):
    if not isinstance(obj, dict):
        raise SchemaError("schema.object", "instance must be a JSON object")
    kind = _expect(obj, "kind", str)
    if kind not in _KINDS:
        raise SchemaError("schema.kind", f"unknown instance kind {kind!r}")
    cls, fields = _KINDS[kind]
    values = []
    for field in fields:
        json_type, _, decode = _FIELDS[field]
        values.append(decode(field, _expect(obj, field, json_type)))
    return cls(*values)


def dump_instance(inst, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_obj(inst), fh, indent=2)
        fh.write("\n")


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, an int past the digit limit
            raise SchemaError("schema.json", str(exc)) from exc
        except RecursionError:
            raise SchemaError("schema.json", "JSON nested too deeply") from None
    return instance_from_obj(obj)
