"""Robustness at the package boundary: malformed or extreme input through
``main()`` ends in an exit code and an ``error[...]``/``guard[...]`` line,
and no invariant of the package rests on ``assert``."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fewweights
from fewweights.cli import main

VALID = {
    "knapsack": {
        "kind": "knapsack",
        "items": [
            {"weight": "3", "profit": "4", "label": {"kind": "index", "bit": 1, "k": 0}},
            {"weight": "5", "profit": "6"},
        ],
        "capacity": "7",
        "target": "4",
    },
    "rss": {"kind": "rss", "n": 1, "numbers": ["84", "84", "84"]},
    "x3c": {"kind": "x3c", "n": 1, "triples": [[1, 2, 3], [1, 2, 3], [1, 2, 3]]},
    "subsetsum": {"kind": "subsetsum", "numbers": ["3", "5"], "target": "8"},
}

# the kind of instance each command accepts
COMMANDS = {
    "solve": "knapsack",
    "kernelize": "knapsack",
    "compose": "rss",
    "x3c-to-rss": "x3c",
    "subset-sum-to-knapsack": "subsetsum",
}

# Keys are at most 6 characters, and every kind needs a longer one
# ("capacity", "numbers" or "triples"), so no generated document is valid.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# never a valid decimal string, including bools where strings belong
bad_decimals = st.one_of(
    st.integers(0, 10**30),
    st.booleans(),
    st.none(),
    st.lists(st.just("1"), max_size=2),
    st.sampled_from(["", "07", "-1", "+3", "1e3", " 1", "1 ", "0x10", "١٢", "NaN"]),
)
# never a valid size parameter for the one-input documents above, which have
# exactly three numbers or triples
bad_sizes = st.one_of(
    st.integers(max_value=0),
    st.integers(2, 10**40),
    st.booleans(),
    st.sampled_from(["1", 1.0, None, [1]]),
)
bad_labels = st.one_of(
    st.integers(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.booleans(),
    st.fixed_dictionaries({"kind": st.text(max_size=8).filter(
        lambda k: k not in ("encoding", "quadratization", "index"))}),
    st.fixed_dictionaries({"kind": st.just("index"), "bit": st.booleans(), "k": st.integers()}),
    st.fixed_dictionaries({"kind": st.just("quadratization"), "bits": st.just([2, 0]),
                           "k": st.just(0), "l": st.just(1)}),
)

# never a valid back-reference from the third knapsack entry: the only earlier
# unlabeled entry is at position 1 (position 0 is labeled)
bad_references = st.one_of(
    st.integers(max_value=0),
    st.integers(2, 2**70),
    st.booleans(),
    st.sampled_from([1.0, 0.0]),
)


@st.composite
def broken_documents(draw, kind: str):
    """A document of ``kind`` with one defect that makes it invalid."""
    doc = json.loads(json.dumps(VALID[kind]))
    fields = [f for f in doc if f != "kind"]
    defect = draw(st.sampled_from(["drop", "kind", "field", "deep"]))
    if defect == "drop":
        del doc[draw(st.sampled_from(fields))]
    elif defect == "kind":
        doc["kind"] = draw(json_values.filter(lambda v: not (isinstance(v, str) and v in VALID)))
    elif kind == "knapsack":
        if defect == "field":
            doc[draw(st.sampled_from(["capacity", "target"]))] = draw(bad_decimals)
        else:
            item = doc["items"][draw(st.integers(0, 1))]
            part = draw(st.sampled_from(["weight", "profit", "label", "entry", "reference"]))
            if part == "label":
                item["label"] = draw(bad_labels)
            elif part == "entry":
                doc["items"].append(draw(json_values.filter(lambda v: not isinstance(v, (dict, int)))))
            elif part == "reference":
                doc["items"].append(draw(bad_references))
            else:
                item[part] = draw(bad_decimals)
    elif kind == "rss":
        if defect == "field":
            doc["n"] = draw(bad_sizes)
        else:
            numbers = doc["numbers"]
            numbers[draw(st.integers(0, 2))] = draw(
                bad_decimals | st.sampled_from(["1", "85", "12"])
            )
    elif kind == "x3c":
        if defect == "field":
            doc["n"] = draw(bad_sizes)
        else:
            triple = doc["triples"][draw(st.integers(0, 2))]
            triple[draw(st.integers(0, 2))] = draw(
                st.booleans() | st.integers(max_value=0) | st.integers(4, 10**30) | st.text(max_size=3)
            )
    elif defect == "field":
        doc["target"] = draw(bad_decimals)
    else:
        doc["numbers"].append(draw(bad_decimals))
    return doc


def _run(command: str, payloads: list[bytes]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, payload in enumerate(payloads):
            path = Path(tmp) / f"in{k}.json"
            path.write_bytes(payload)
            paths.append(str(path))
        if command == "compose":
            argv = ["compose", *paths, "--out", str(Path(tmp) / "out.json")]
        elif command in ("x3c-to-rss", "subset-sum-to-knapsack"):
            argv = ["reduce", command, paths[0]]
        else:
            argv = [command, paths[0]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def _assert_refused(code: int, err: str) -> None:
    assert code in (2, 3), err
    assert err.startswith(("error[", "guard[")), err
    assert "Traceback" not in err


def _payloads(command: str, bad: bytes) -> list[bytes]:
    # compose also gets a valid input, so the defect is not the first file
    if command == "compose":
        return [json.dumps(VALID["rss"]).encode(), bad]
    return [bad]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.binary(max_size=64))
def test_arbitrary_bytes(command, payload):
    _assert_refused(*_run(command, _payloads(command, payload)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), json_values)
def test_arbitrary_json(command, value):
    payload = json.dumps(value).encode()
    _assert_refused(*_run(command, _payloads(command, payload)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_broken_documents(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    doc = data.draw(broken_documents(COMMANDS[command]))
    _assert_refused(*_run(command, _payloads(command, json.dumps(doc).encode())))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_valid_documents_of_the_wrong_kind(command, data):
    kind = data.draw(st.sampled_from(sorted(set(VALID) - {COMMANDS[command]})))
    _assert_refused(*_run(command, _payloads(command, json.dumps(VALID[kind]).encode())))


def test_extreme_documents():
    huge = "9" * 5000
    for command, doc in [
        ("x3c-to-rss", {"kind": "x3c", "n": 10**18, "triples": []}),
        ("compose", {"kind": "rss", "n": 10**18, "numbers": []}),
        ("compose", {"kind": "rss", "n": 1, "numbers": [huge] * 3}),
        ("solve", {"kind": "knapsack", "items": [], "capacity": "1" + huge, "target": "-" + huge}),
        ("solve", {"kind": "knapsack", "items": [{"weight": huge, "profit": "1"}] * 26,
                   "capacity": huge, "target": "1"}),
    ]:
        _assert_refused(*_run(command, _payloads(command, json.dumps(doc).encode())))
    for payload in (b"[" * 100_000, b'{"a":' * 100_000, b"\xff\xfe{}", b"\xef\xbb\xbf{}"):
        _assert_refused(*_run("solve", [payload]))


def test_no_assert_statements_in_package():
    """``python -O`` strips ``assert``; invariants must raise instead."""
    package = Path(fewweights.__file__).parent
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, offenders
