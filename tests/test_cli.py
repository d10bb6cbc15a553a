from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fewweights
from fewweights.cli import main, verify_compose
from fewweights.composition import compose
from fewweights.core import (
    Item,
    KnapsackInstance,
    RestrictedSubsetSumInstance,
    SubsetSumInstance,
    X3CInstance,
)
from fewweights.serialize import dump_instance, instance_from_obj, load_instance
from fewweights.solvers import solve_brute_force
from fewweights.generators import gen_knapsack, gen_rss, gen_x3c


@pytest.fixture
def no_digit_limit():
    # 40,000-bit values have more decimal digits than the interpreter's
    # default int/str limit allows
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def rss_files(tmp_path):
    yes = tmp_path / "yes.json"
    no = tmp_path / "no.json"
    dump_instance(RestrictedSubsetSumInstance(1, (84, 84, 84)), yes)
    dump_instance(RestrictedSubsetSumInstance(1, (12, 48, 192)), no)
    return yes, no


class TestGen:
    def test_rss_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["gen", "rss", "--n", "1", "--seed", "3", "--yes", "--out", str(out)]) == 0
        inst = load_instance(out)
        assert isinstance(inst, RestrictedSubsetSumInstance)
        assert "seed=3" in capsys.readouterr().err

    def test_x3c_to_stdout(self, capsys):
        assert main(["gen", "x3c", "--n", "2", "--seed", "1", "--yes"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "x3c" and len(obj["triples"]) == 6

    def test_impossible_no_instance_is_guard_exit(self, capsys):
        assert main(["gen", "x3c", "--n", "1", "--seed", "1", "--no"]) == 3
        assert "guard[" in capsys.readouterr().err

    def test_knapsack(self, tmp_path):
        out = tmp_path / "k.json"
        code = main(
            ["gen", "knapsack", "--items", "6", "--w-distinct", "2",
             "--p-distinct", "3", "--max-value", "50", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
        assert load_instance(out) == gen_knapsack(6, 2, 3, 50, 5)


class TestSizeGuards:
    """Sizes past a generator's or the verifier's limit exit 3 before
    anything is sized by them."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gen", "x3c", "--n", str(10**18), "--yes"], "gen.size"),
            (["gen", "rss", "--n", str(10**18), "--yes"], "gen.size"),
            (["gen", "rss", "--n", "401", "--yes"], "gen.size"),
            (["gen", "knapsack", "--items", str(10**18), "--w-distinct", "2",
              "--p-distinct", "2", "--max-value", "100"], "gen.size"),
            # two 64-bit words per value
            (["gen", "knapsack", "--items", "16385", "--w-distinct", "2",
              "--p-distinct", "2", "--max-value", str(2**64)], "gen.size"),
            (["verify", "compose", "--t", "2", "--n", "1", "--trials", str(10**12)],
             "verify.trials"),
        ],
    )
    def test_guard_before_sizing(self, capsys, argv, code):
        tracemalloc.start()
        try:
            assert main(argv) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith(f"guard[{code}]")
        assert "Traceback" not in err
        assert peak < 1 << 20

    @pytest.mark.parametrize("items", [0, 30])
    def test_dp_guard_before_sizing(self, tmp_path, capsys, items):
        # the DP counts its cells before it allocates any of them
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(1, 1),) * items, 10**12, 1), src)
        tracemalloc.start()
        try:
            assert main(["solve", "--method", "dp", str(src)]) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.dp]")
        assert "Traceback" not in err
        assert peak < 1 << 20

    def test_dp_guard_counts_mask_width(self, tmp_path, capsys):
        # 2**24 cells, but every cell keeps a mask as wide as 65,535 items
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(1, 1),) * 65535, 255, 1), src)
        assert main(["solve", "--method", "dp", str(src)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.dp]")
        assert "Traceback" not in err

    def test_dp_guard_counts_profit_width(self, tmp_path, capsys, no_digit_limit):
        # under 2**24 cells, but every cell would keep a 40,000-bit profit
        src = tmp_path / "k.json"
        items = tuple(Item(2**i, 2**40000 + i) for i in range(20))
        dump_instance(KnapsackInstance(items, 786_432, 1), src)
        tracemalloc.start()
        try:
            assert main(["solve", "--method", "dp", str(src)]) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.dp]")
        assert "Traceback" not in err
        assert peak < 1 << 20

    def test_verify_trials_cap_per_scale(self, capsys, monkeypatch):
        # (16, 2) accepts far fewer trials than (2, 1); one over its cap
        # exits before the first pattern is drawn
        import fewweights.cli as cli

        def no_pattern(*args):
            raise AssertionError("a pattern ran")

        monkeypatch.setattr(cli, "gen_rss", no_pattern)
        trials = cli._VERIFY_SCALES[16, 2] + 1
        argv = ["verify", "compose", "--t", "16", "--n", "2", "--trials", str(trials)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("guard[verify.trials]")
        assert captured.out == ""

    def test_no_instance_keeps_its_guard(self, capsys):
        assert main(["gen", "rss", "--n", str(10**18), "--no"]) == 3
        assert capsys.readouterr().err.startswith("guard[gen.x3c-no]")

    @pytest.mark.parametrize("n, want", [(400, 0), (401, 3)])
    def test_reduce_x3c_to_rss_at_the_rss_limit(self, tmp_path, capsys, n, want):
        # the reduction has gen rss's limit: one over it exits before a
        # single number is built
        src, out = tmp_path / "x.json", tmp_path / "r.json"
        dump_instance(gen_x3c(n, 1, True), src)
        assert main(["reduce", "x3c-to-rss", str(src), "--out", str(out)]) == want
        err = capsys.readouterr().err
        if want:
            assert err.startswith("guard[reduce.size]: n = 401, limit 400")
            assert not out.exists()
        else:
            assert err == "" and load_instance(out).n == 400


# one instance of each kind
_FILES = {
    "knapsack": KnapsackInstance((Item(3, 4),), 3, 4),
    "rss": RestrictedSubsetSumInstance(1, (84, 84, 84)),
    "x3c": X3CInstance(1, ((1, 2, 3),) * 3),
    "subsetsum": SubsetSumInstance((3, 5), 8),
}
# each command's argv before its input file, and the kind it reads
_COMMANDS = [
    (["solve"], "knapsack"),
    (["kernelize"], "knapsack"),
    (["compose"], "rss"),
    (["reduce", "x3c-to-rss"], "x3c"),
    (["reduce", "subset-sum-to-knapsack"], "subsetsum"),
]
# one schema violation of each kind that a single-input command reads
_BROKEN = {
    "knapsack": {"kind": "knapsack", "items": [], "capacity": "07", "target": "0"},
    "x3c": {"kind": "x3c", "n": 1, "triples": [[1, 2, 3], [1, 2, 3], "123"]},
    "subsetsum": {"kind": "subsetsum", "numbers": ["3", "05"], "target": "8"},
}

# an x3c instance whose element 4 lies outside 1..3n
_BAD_X3C = {"kind": "x3c", "n": 1, "triples": [[1, 2, 3], [1, 2, 3], [1, 2, 4]]}
# input files that fail to load, by error code; None is a well-formed file of
# a kind the command does not read
_LOAD_ERRORS = [
    pytest.param("schema.json", b'{"kind": "knapsack", "items": [', id="truncated"),
    pytest.param("schema.json", b'{"kind": "knapsack\xff"}', id="utf8"),
    pytest.param("schema.json", b"[" * 100_000, id="nested"),
    pytest.param("schema.decimal", json.dumps(_BROKEN["knapsack"]).encode(), id="decimal"),
    pytest.param("x3c.element", json.dumps(_BAD_X3C).encode(), id="element"),
    pytest.param("schema.kind", None, id="kind"),
]


class TestBoundary:
    """Every command loads its files through one checked loader."""

    @staticmethod
    def _argv(prefix, path, tmp_path):
        argv = [*prefix, str(path)]
        return argv + ["--out", str(tmp_path / "out.json")] if prefix == ["compose"] else argv

    @pytest.mark.parametrize(
        "prefix, wrong",
        [(prefix, kind) for prefix, want in _COMMANDS for kind in _FILES if kind != want],
    )
    def test_wrong_kind(self, tmp_path, capsys, prefix, wrong):
        want = next(kind for p, kind in _COMMANDS if p == prefix)
        src = tmp_path / "in.json"
        dump_instance(_FILES[wrong], src)
        assert main(self._argv(prefix, src, tmp_path)) == 2
        # the message names both kinds
        assert capsys.readouterr().err == (
            f"error[schema.kind]: {src}: expected kind {want!r}, got {wrong!r}\n"
        )

    @pytest.mark.parametrize(
        "prefix, kind", [(p, k) for p, k in _COMMANDS if p != ["compose"]]
    )
    def test_schema_error_names_the_file(self, tmp_path, capsys, prefix, kind):
        src = tmp_path / "broken.json"
        src.write_text(json.dumps(_BROKEN[kind]))
        assert main(self._argv(prefix, src, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[schema.") and f"]: {src}: " in err

    @pytest.mark.parametrize("prefix, want", _COMMANDS)
    @pytest.mark.parametrize("code, data", _LOAD_ERRORS)
    def test_load_error_names_the_file_once(self, tmp_path, capsys, prefix, want, code, data):
        src = tmp_path / "in.json"
        if data is None:
            dump_instance(_FILES["x3c" if want != "x3c" else "knapsack"], src)
        else:
            src.write_bytes(data)
        assert main(self._argv(prefix, src, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]: {src}: ")
        assert err.count(str(src)) == 1

    def test_invariant_error_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(_BAD_X3C))
        assert main(["reduce", "x3c-to-rss", str(src)]) == 2
        assert capsys.readouterr().err.startswith(f"error[x3c.element]: {src}: ")


class TestReduce:
    def test_x3c_to_rss(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        dump_instance(X3CInstance(1, ((1, 2, 3),) * 3), src)
        assert main(["reduce", "x3c-to-rss", str(src)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"kind": "rss", "n": 1, "numbers": ["84", "84", "84"]}

    def test_subset_sum(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(
            json.dumps({"kind": "subsetsum", "numbers": ["3", "5"], "target": "8"})
        )
        assert main(["reduce", "subset-sum-to-knapsack", str(src)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["capacity"] == obj["target"] == "8"

    def test_wrong_kind_is_input_error(self, rss_files, capsys):
        yes, _ = rss_files
        assert main(["reduce", "x3c-to-rss", str(yes)]) == 2
        assert "error[" in capsys.readouterr().err


class TestCompose:
    def test_two_inputs(self, rss_files, tmp_path, capsys):
        yes, no = rss_files
        out = tmp_path / "c.json"
        assert main(["compose", str(yes), str(yes), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "w#=4" in printed and "p#=" in printed
        inst = load_instance(out)
        assert isinstance(inst, KnapsackInstance) and len(inst.items) == 9
        meta = json.loads((tmp_path / "c.meta.json").read_text())
        assert meta["t"] == 2 and meta["inputs"] == 2
        assert int(meta["W"]) == inst.capacity

    def test_three_inputs_pad_reported(self, rss_files, tmp_path):
        yes, no = rss_files
        out = tmp_path / "c.json"
        main(["compose", str(yes), str(no), str(yes), "--out", str(out)])
        meta = json.loads((tmp_path / "c.meta.json").read_text())
        assert meta["t"] == 4 and meta["inputs"] == 3

    def test_strip_labels(self, rss_files, tmp_path):
        yes, _ = rss_files
        out = tmp_path / "c.json"
        main(["compose", str(yes), str(yes), "--out", str(out), "--strip-labels"])
        obj = json.loads(out.read_text())
        # stripped items are unlabeled, so repeats are int back-references
        assert any(type(entry) is int for entry in obj["items"])
        assert all("label" not in entry for entry in obj["items"] if type(entry) is dict)
        # still re-validates when read back
        assert isinstance(load_instance(out), KnapsackInstance)

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        dump_instance(X3CInstance(1, ((1, 2, 3),) * 3), bad)
        out = tmp_path / "c.json"
        assert main(["compose", str(bad), "--out", str(out)]) == 2


class TestSolve:
    @pytest.fixture
    def composed_file(self, rss_files, tmp_path):
        yes, no = rss_files
        out = tmp_path / "c.json"
        main(["compose", str(yes), str(no), "--out", str(out)])
        return out

    @pytest.mark.parametrize("method", ["brute", "mim", "grouped"])
    def test_methods_agree(self, composed_file, capsys, method):
        assert main(["solve", str(composed_file), "--method", method]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_witness_printed(self, composed_file, capsys):
        assert main(["solve", str(composed_file), "--method", "brute", "--witness"]) == 0
        out = capsys.readouterr().out
        assert "chosen=" in out

    @staticmethod
    def _assert_valid_witness(inst, out):
        verdict, totals, witness = out.splitlines()
        assert verdict == "feasible"
        assert witness.startswith("chosen=")
        chosen = [int(i) for i in witness.removeprefix("chosen=").split()]
        weight, profit = inst.subset_weight(chosen), inst.subset_profit(chosen)
        assert totals == f"weight={weight} profit={profit}"
        assert weight <= inst.capacity and profit >= inst.target

    @pytest.mark.parametrize("method", ["brute", "mim", "dp", "grouped"])
    def test_witness_every_method(self, tmp_path, capsys, method):
        inst = KnapsackInstance(
            (Item(3, 4), Item(5, 6), Item(3, 4), Item(7, 9), Item(2, 1)), 10, 12
        )
        src = tmp_path / "k.json"
        dump_instance(inst, src)
        assert main(["solve", str(src), "--method", method, "--witness"]) == 0
        self._assert_valid_witness(inst, capsys.readouterr().out)

    def test_grouped_t16_composed_yes_instance(self, tmp_path, capsys):
        # 78 items, r = w# * p# = 2584, but only 76 nonempty classes; the
        # yes-input is an early one or the last one
        for yes in (3, 15):
            inst = compose([gen_rss(1, s, s == yes) for s in range(16)]).knapsack
            src = tmp_path / "c16.json"
            dump_instance(inst, src)
            assert main(["solve", str(src), "--method", "grouped", "--witness"]) == 0
            self._assert_valid_witness(inst, capsys.readouterr().out)

    def test_grouped_at_class_limit(self, tmp_path, capsys):
        # 512 classes, each with one item, and every class taken
        n = 512
        inst = KnapsackInstance(tuple(Item(w, 1) for w in range(1, n + 1)), n * n, n)
        src = tmp_path / "limit.json"
        dump_instance(inst, src)
        assert main(["solve", str(src), "--method", "grouped", "--witness"]) == 0
        self._assert_valid_witness(inst, capsys.readouterr().out)

    def test_dp_guard_on_composed(self, composed_file, capsys):
        # composed capacities exceed the table guard by design
        assert main(["solve", str(composed_file), "--method", "dp"]) == 3

    @staticmethod
    def _doubling_file(tmp_path, target):
        inst = KnapsackInstance(tuple(Item(2**i, 2**i) for i in range(48)), 2**48, target)
        src = tmp_path / "doubling.json"
        dump_instance(inst, src)
        return src

    def test_mim_entry_budget(self, tmp_path, capsys):
        # weight = profit = 2**i puts every subset on the Pareto front, so the
        # fronts double with each item; at 48 items they once ran out of
        # memory.  Target 0 turns the profit bound off.
        src = self._doubling_file(tmp_path, 0)
        assert main(["solve", str(src), "--method", "mim"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.mim]")
        assert "Traceback" not in err

    def test_mim_budget_counts_value_width(self, tmp_path, capsys, no_digit_limit):
        # 38 doubling items fit the entry budget, but not with 40,000-bit
        # profits in every entry
        items = tuple(Item(2**i, 2 ** (40000 + i)) for i in range(38))
        src = tmp_path / "wide.json"
        dump_instance(KnapsackInstance(items, 2**38, 0), src)
        assert main(["solve", str(src), "--method", "mim"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.mim]")
        assert "Traceback" not in err
        # 1 + (39 capacity bits + 40038 profit bits + 38 items) // 2**10 = 40
        assert "over 209715 front entries, charged 40 each" in err

    def test_mim_budget_counts_mask_width(self, tmp_path, capsys):
        # narrow values, but every front entry keeps a mask as wide as the
        # 400,028 items: uncharged, the 28 heavy items once took 1.7 GB, and
        # 32 of them ran out of memory
        items = (Item(1, 0),) * 400_000 + tuple(Item(2 ** (40 + i), 2**i) for i in range(28))
        src = tmp_path / "wide-masks.json"
        dump_instance(KnapsackInstance(items, 2**69, 0), src)
        start = time.perf_counter()
        assert main(["solve", str(src), "--method", "mim"]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.mim]")
        assert "Traceback" not in err
        # 1 + (70 capacity bits + 28 profit bits + 400,028 items) // 2**10
        assert "charged 391 each for value and mask width" in err

    def test_mim_bound_empties_fronts(self, tmp_path, capsys):
        # a target above the total profit 2**48 - 1: the profit bound empties
        # the fronts at once, so the same 48 items are decided, not refused
        src = self._doubling_file(tmp_path, 2**48)
        assert main(["solve", str(src), "--method", "mim"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "infeasible\n"
        assert captured.err == ""

    def test_brute_guard(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        dump_instance(gen_knapsack(26, 3, 3, 50, 1), big)
        assert main(["solve", str(big), "--method", "brute"]) == 3

    def test_invalid_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    def test_schema_violation_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "knapsack", "items": [], "capacity": "07", "target": "0"}))
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_long_integers(self, tmp_path, capsys):
        src = tmp_path / "long.json"
        items = [{"weight": "3", "profit": "4"}, {"weight": "5", "profit": "6"}]
        src.write_text(json.dumps(
            {"kind": "knapsack", "items": items, "capacity": "9" * 5000, "target": "10"}
        ))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter's default
        try:
            code = main(["solve", str(src), "--method", "mim", "--witness"])
        finally:
            sys.set_int_max_str_digits(saved)
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert captured.out.startswith("feasible")
        assert "Traceback" not in captured.err


class TestIOErrors:
    """Unreadable input and unwritable output exit 2 with an error line."""

    def _expect_error(self, argv, capsys, code):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[{code}]")
        assert "Traceback" not in err

    def test_missing_input(self, tmp_path, capsys):
        self._expect_error(["solve", str(tmp_path / "absent.json")], capsys, "io")

    def test_directory_as_input(self, tmp_path, capsys):
        self._expect_error(["kernelize", str(tmp_path)], capsys, "io")

    def test_invalid_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"kind": "knapsack\xff"}')
        self._expect_error(["solve", str(bad)], capsys, "schema.json")

    def test_deeply_nested_json(self, tmp_path, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        self._expect_error(["solve", str(bad)], capsys, "schema.json")

    def test_out_into_missing_directory(self, rss_files, tmp_path, capsys):
        yes, _ = rss_files
        out = tmp_path / "missing" / "c.json"
        self._expect_error(["compose", str(yes), str(yes), "--out", str(out)], capsys, "io")


    # a closed standard output is an unwritable output too: `cmd | head -1`
    # under pipefail must not pass while the rest goes unwritten
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{k}", "--method", "mim", "--witness"],
            ["verify", "compose", "--t", "2", "--n", "1"],
            ["gen", "knapsack", "--items", "4", "--w-distinct", "2", "--p-distinct", "2",
             "--max-value", "100"],
            ["kernelize", "{k}", "--report"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout(self, tmp_path, argv, unbuffered):
        k = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 4), Item(5, 6), Item(7, 9)), 8, 10), k)
        src = str(Path(fewweights.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fewweights", *(a.format(k=k) for a in argv)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if line.startswith("error")]
        assert lines == ["error[io]: [Errno 32] Broken pipe"], proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


class TestLabels:
    """Label kinds the format lacks, label fields that are not naturals, and
    bits that are not 0 or 1 are schema errors."""

    @pytest.mark.parametrize(
        "label",
        [
            {"kind": "quadratization", "bits": [True, 0], "k": 0, "l": 1},
            {"kind": "quadratization", "bits": [0.0, 1], "k": 0, "l": 1},
            {"kind": "quadratization", "bits": [0, 1], "k": -5, "l": 2},
            {"kind": "quadratization", "bits": [0, 1], "k": 0, "l": -1},
            {"kind": "encoding", "instance": -1, "position": 0},
            {"kind": "encoding", "instance": 0, "position": -2},
            {"kind": "index", "bit": -1, "k": 0},
            {"kind": "index", "bit": 0, "k": -3},
            {"kind": "bogus"},
        ],
    )
    def test_bad_label_is_input_error(self, tmp_path, capsys, label):
        src = tmp_path / "k.json"
        doc = {
            "kind": "knapsack",
            "items": [{"weight": "3", "profit": "4", "label": label}],
            "capacity": "7",
            "target": "4",
        }
        src.write_text(json.dumps(doc))
        assert main(["solve", str(src)]) == 2
        assert capsys.readouterr().err.startswith("error[schema.label]")


class TestInternalErrors:
    def test_failed_post_condition_exits_1(self, tmp_path, capsys, monkeypatch):
        # a reduction that keeps every sign but splits two equal weights
        import fewweights.kernel as kernel

        monkeypatch.setattr(
            kernel,
            "frank_tardos_reduce",
            lambda vec, budget: [(i + 1) if x > 0 else -(i + 1) for i, x in enumerate(vec)],
        )
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 5), Item(3, 7)), 6, 12), src)
        assert main(["kernelize", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[kernel.reduce-collapse]")
        assert "Traceback" not in err

    def test_nonpositive_reduction_exits_1(self, tmp_path, capsys, monkeypatch):
        # a reduction that flips the sign of one reduced weight
        import fewweights.kernel as kernel

        reduce = kernel.frank_tardos_reduce

        def flipped(vec, budget):
            out = reduce(vec, budget)
            out[0] = -out[0]
            return out

        monkeypatch.setattr(kernel, "frank_tardos_reduce", flipped)
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 5), Item(3, 7)), 6, 12), src)
        assert main(["kernelize", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[kernel.reduce-sign]")
        assert "Traceback" not in err


class TestWitnessRule:
    """A witness that misses its search's optimum is a failed post-condition:
    exit 1, never a feasible line with inconsistent totals."""

    @pytest.mark.parametrize("method", ["brute", "mim", "dp"])
    def test_short_witness_exits_1(self, tmp_path, capsys, monkeypatch, method):
        import fewweights.solvers as solvers

        indices = solvers._mask_indices
        monkeypatch.setattr(
            solvers, "_mask_indices", lambda mask: indices(mask) - {max(indices(mask))}
        )
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 5), Item(2, 4)), 5, 9), src)
        assert main(["solve", "--method", method, "--witness", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[solve.{method}]")
        assert "Traceback" not in err

    def test_grouped_short_witness_exits_1(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import fewweights.kernel as kernel

        solve = kernel.solve_meet_in_middle

        def short(inst):
            res = solve(inst)
            return dataclasses.replace(res, chosen=res.chosen - {max(res.chosen)})

        monkeypatch.setattr(kernel, "solve_meet_in_middle", short)
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 5), Item(2, 4)), 5, 9), src)
        assert main(["solve", "--method", "grouped", "--witness", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[kernel.witness]")
        assert "Traceback" not in err

    def test_grouped_totals_must_match_the_split_solve(self, tmp_path, capsys, monkeypatch):
        # the same witness, but the split solve reports a weight one too low:
        # the decoded totals disagree with it even though they fit capacity
        import dataclasses

        import fewweights.kernel as kernel

        solve = kernel.solve_meet_in_middle

        def off_by_one(inst):
            res = solve(inst)
            return dataclasses.replace(res, achieved_weight=res.achieved_weight - 1)

        monkeypatch.setattr(kernel, "solve_meet_in_middle", off_by_one)
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 5), Item(2, 4)), 5, 9), src)
        assert main(["solve", "--method", "grouped", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[kernel.witness]")
        assert "Traceback" not in err


class TestKernelize:
    def test_report_and_output(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        dump_instance(gen_knapsack(10, 2, 2, 2**40, 3), src)
        out = tmp_path / "out.json"
        assert main(["kernelize", str(src), "--out", str(out), "--report"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"r", "branch", "input_bits", "output_bits"}
        assert isinstance(load_instance(out), KnapsackInstance)

    def test_report_to_stderr_without_out(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        dump_instance(gen_knapsack(10, 2, 2, 2**40, 3), src)
        assert main(["kernelize", str(src), "--report"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["kind"] == "knapsack"
        assert set(json.loads(captured.err)) == {"r", "branch", "input_bits", "output_bits"}

    def test_grouped_budget_guard(self, tmp_path, capsys, monkeypatch):
        # the solved branch reports meet-in-the-middle's guard when the
        # grouped solve runs out of front entries
        import fewweights.solvers as solvers

        monkeypatch.setattr(solvers, "MEET_IN_MIDDLE_BUDGET", 1)
        src = tmp_path / "k.json"
        dump_instance(KnapsackInstance((Item(3, 10),) * 4 + (Item(3, 5),) * 4, 15, 41), src)
        assert main(["kernelize", str(src)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard[solve.mim]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("first", [(0, 5), (2, 0)])
    def test_zero_coefficient_item(self, tmp_path, capsys, first):
        # feasible by items {0, 2, 3} (or {2, 3}); the zero-weight item is
        # taken and the zero-profit one dropped before the reduction
        pairs = [first, (3, 4), (7, 9), (3, 9), (7, 4), (11, 2), (11, 9)]
        inst = KnapsackInstance(tuple(Item(w, p) for w, p in pairs), 10, 14)
        src = tmp_path / "k.json"
        dump_instance(inst, src)
        assert main(["kernelize", str(src)]) == 0
        out = instance_from_obj(json.loads(capsys.readouterr().out))
        assert solve_brute_force(inst).feasible
        assert solve_brute_force(out).feasible

    def test_composed_kernel_has_no_labels(self, rss_files, tmp_path, capsys):
        # a kernel's items are re-encoded or canonical, so none has a label
        yes, no = rss_files
        composed = tmp_path / "c.json"
        assert main(["compose", str(yes), str(no), "--out", str(composed)]) == 0
        assert '"label"' in composed.read_text()
        capsys.readouterr()
        assert main(["kernelize", str(composed)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["items"] and all("label" not in entry for entry in obj["items"])

    def test_stdout_instance(self, tmp_path, capsys):
        src = tmp_path / "k.json"
        dump_instance(gen_knapsack(5, 1, 1, 9, 3), src)
        assert main(["kernelize", str(src)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "knapsack"

    def test_lll_work_budget_bounds_the_reduced_branch(self, tmp_path, capsys):
        # 24 distinct weights and profits at 2^1024: unbounded, each of the
        # reduction's LLL calls took 30-42 s
        src = tmp_path / "k.json"
        dump_instance(gen_knapsack(100, 24, 24, 2**1024, 1), src)
        start = time.perf_counter()
        assert main(["kernelize", str(src)]) in (0, 3)
        assert time.perf_counter() - start < 10
        assert "Traceback" not in capsys.readouterr().err


class TestVerify:
    def test_verify_compose_passes(self, capsys):
        assert main(["verify", "compose", "--t", "2", "--n", "1", "--trials", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "all 6 patterns verified" in out
        assert out.count("pass") >= 6

    def test_verify_compose_scale_guard(self):
        assert main(["verify", "compose", "--t", "64", "--n", "1"]) == 3

    def test_verify_compose_negative_trials(self, capsys):
        assert main(["verify", "compose", "--t", "2", "--n", "1", "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error[verify.trials]: trials must be an int >= 0, got -5")
        assert captured.out == ""

    def test_verify_compose_library_entry(self):
        ok, rows, failures = verify_compose(2, 2, 0, 7)
        assert ok and not failures
        assert len(rows) == 3  # all-no plus the two single-yes patterns

    @pytest.mark.parametrize("t, n", [(8, 2), (4, 3), (8, 3), (16, 1), (32, 1), (16, 2)])
    def test_verify_compose_wider_scales(self, t, n):
        ok, rows, failures = verify_compose(t, n, 0, 1)
        assert ok and not failures
        assert len(rows) == t + 1  # all-no plus every single-yes pattern

    def test_witness_must_hit_capacity(self, monkeypatch):
        # right verdicts and index items, but a witness one short of capacity
        import dataclasses

        import fewweights.cli as cli
        from fewweights.solvers import solve_meet_in_middle

        def short(inst):
            res = solve_meet_in_middle(inst)
            if not res.feasible:
                return res
            return dataclasses.replace(res, achieved_weight=res.achieved_weight - 1)

        monkeypatch.setattr(cli, "solve_meet_in_middle", short)
        ok, rows, failures = verify_compose(2, 1, 0, 3)
        assert not ok
        assert [f[0] for f in failures] == [(True, False), (False, True)]

    def test_kernel_verdict_checked(self, monkeypatch):
        # a kernel that always answers no fails every single-yes pattern
        import fewweights.cli as cli

        monkeypatch.setattr(cli, "kernelize", lambda inst: KnapsackInstance((), 0, 1))
        ok, rows, failures = verify_compose(2, 1, 0, 3)
        assert not ok
        assert [f[0] for f in failures] == [(True, False), (False, True)]
        # (verdict, kernel verdict, expected) for all-no and both single-yes
        assert [row[1:] for row in rows] == [
            (False, False, False), (True, False, True), (True, False, True)
        ]

    def test_mismatch_writes_counterexamples(self, tmp_path, monkeypatch, capsys):
        """A verdict mismatch must exit 1 and leave the offending inputs on disk."""
        import fewweights.cli as cli

        bad_input = RestrictedSubsetSumInstance(1, (84, 84, 84))

        def fake_verify(t, n, trials, seed):
            return False, [((True,), False, False, True)], [((True,), [bad_input])]

        monkeypatch.setattr(cli, "verify_compose", fake_verify)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "compose", "--t", "2", "--n", "1"]) == 1
        dumped = list(tmp_path.glob("compose-counterexample-*.json"))
        assert dumped and load_instance(dumped[0]) == bad_input
        # the same bytes as the library's own writer
        dump_instance(bad_input, tmp_path / "expected.json")
        assert dumped[0].read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert "counterexample" in capsys.readouterr().err


def test_round_trip_everything_emitted(tmp_path):
    """Every file any command writes re-validates on load."""
    yes = tmp_path / "y.json"
    assert main(["gen", "rss", "--n", "2", "--seed", "8", "--yes", "--out", str(yes)]) == 0
    composed = tmp_path / "c.json"
    assert main(["compose", str(yes), str(yes), "--out", str(composed)]) == 0
    kernel = tmp_path / "kern.json"
    assert main(["kernelize", str(composed), "--out", str(kernel)]) == 0
    for path in (yes, composed, kernel):
        load_instance(path)
