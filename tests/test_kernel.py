from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fewweights
import fewweights.kernel as kernel
import fewweights.solvers as solvers

from conftest import expand_references, ilp_reference, knapsack_reference
from fewweights.composition import compose
from fewweights.core import GuardError, InvariantError, Item, KnapsackInstance
from fewweights.generators import gen_knapsack, gen_rss
from fewweights.kernel import (
    GroupedInstance,
    binary_split,
    group,
    ilp_to_knapsack,
    instance_bits,
    kernelize,
    kernelize_with_report,
    reduce_ilp,
    solve_grouped,
)
from fewweights.serialize import instance_to_obj
from fewweights.solvers import solve_brute_force, solve_meet_in_middle


def brute_feasible(inst: KnapsackInstance) -> bool:
    return knapsack_reference(inst) >= inst.target


def make_grouped(weights, profits, counts, capacity, target) -> GroupedInstance:
    """Grouped program from dense ``counts[i][j]``; items are numbered in
    row-major order and empty classes are left out."""
    classes = []
    next_item = 0
    for w, row in zip(weights, counts):
        for p, c in zip(profits, row):
            if c:
                classes.append((w, p, tuple(range(next_item, next_item + c))))
                next_item += c
    return GroupedInstance(tuple(classes), capacity, target)


def grouped_reference(g: GroupedInstance) -> bool:
    return ilp_reference(
        [w for w, _, _ in g.classes],
        [p for _, p, _ in g.classes],
        [len(members) for _, _, members in g.classes],
        g.capacity,
        g.target,
    )


class TestGroup:
    def test_example(self):
        inst = KnapsackInstance((Item(2, 3), Item(2, 3), Item(2, 7)), 5, 6)
        g = group(inst)
        assert g.weights == (2,) and g.profits == (3, 7)
        assert g.counts == ((2, 1),)
        assert g.classes == ((2, 3, (0, 1)), (2, 7, (2,)))
        assert g.item_count == 3 and g.variable_count == 2

    def test_keeps_only_nonempty_classes(self):
        inst = KnapsackInstance((Item(2, 3), Item(5, 7), Item(2, 3)), 5, 6)
        g = group(inst)
        assert g.classes == ((2, 3, (0, 2)), (5, 7, (1,)))
        assert g.counts == ((2, 0), (0, 1))
        assert g.variable_count == 4

    def test_empty(self):
        g = group(KnapsackInstance((), 0, 0))
        assert g.weights == () and g.counts == ()
        assert solve_grouped(g).feasible  # profit 0 >= target 0

    def test_empty_with_target_infeasible(self):
        assert not solve_grouped(group(KnapsackInstance((), 0, 1))).feasible

    def test_composed_item_count(self):
        comp = compose([gen_rss(1, s, True) for s in range(4)])
        assert group(comp.knapsack).item_count == len(comp.knapsack.items) == 21


class TestSolveGrouped:
    def test_example(self):
        g = make_grouped((2,), (3, 7), ((2, 1),), 5, 9)
        res = solve_grouped(g)
        assert res.feasible
        assert res.achieved_weight == 4 and res.achieved_profit == 10
        assert res.chosen == frozenset({0, 2})

    @pytest.mark.parametrize("seed", range(60))
    def test_chosen_is_a_witness(self, seed):
        rng = random.Random(70000 + seed)
        n = rng.randrange(1, 13)
        inst = gen_knapsack(n, rng.randint(1, min(3, n)), rng.randint(1, min(3, n)), 50, seed)
        res = solve_grouped(group(inst))
        assert res.feasible == brute_feasible(inst)
        if res.feasible:
            assert inst.subset_weight(res.chosen) == res.achieved_weight <= inst.capacity
            assert inst.subset_profit(res.chosen) == res.achieved_profit >= inst.target

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_assignment_enumeration(self, seed):
        # seeds from 60 on draw multiplicities of 8-10, which split into
        # several coefficients, and zero-weight or zero-profit classes
        rng = random.Random(seed)
        wide = seed >= 60
        w_count = rng.randrange(1, 3)
        p_count = rng.randrange(1, 3)
        weights = sorted(rng.sample(range(1, 30), w_count))
        profits = sorted(rng.sample(range(1, 30), p_count))
        if wide and seed % 3 == 0:
            weights[0] = 0
        if wide and seed % 3 == 1:
            profits[0] = 0
        counts = tuple(
            tuple(rng.choice((0, 8, 9, 10)) if wide else rng.randrange(0, 4) for _ in profits)
            for _ in weights
        )
        total_w = sum(
            c * w for row, w in zip(counts, weights) for c in row
        )
        total_p = sum(
            c * p for row in counts for c, p in zip(row, profits)
        )
        g = make_grouped(
            tuple(weights),
            tuple(profits),
            counts,
            rng.randrange(0, total_w + 2),
            rng.randrange(0, total_p + 2),
        )
        assert solve_grouped(g).feasible == grouped_reference(g)

    @pytest.mark.parametrize(
        "classes, capacity, target",
        [(((3, 2, (0,)), (3, 2, (0,))), 6, 4), (((3, 2, (0, 1)), (4, 2, (1, 2))), 20, 8)],
        ids=["same-class-twice", "overlapping-classes"],
    )
    def test_witness_taking_a_shared_item_twice_is_refused(self, classes, capacity, target):
        # every feasible assignment takes the shared index from both classes
        with pytest.raises(InvariantError) as exc:
            solve_grouped(GroupedInstance(classes, capacity, target))
        assert exc.value.code == "grouped.members"

    def test_budget_guard(self, monkeypatch):
        # the re-encoding's 16 items need more front entries than a budget
        # of 10, and meet-in-the-middle's guard is the grouped solve's guard
        g = make_grouped(
            (10, 11), (10, 11), ((10, 10), (10, 10)), 100, 111
        )
        assert not solve_grouped(g).feasible
        monkeypatch.setattr(solvers, "MEET_IN_MIDDLE_BUDGET", 10)
        with pytest.raises(GuardError) as exc:
            solve_grouped(g)
        assert exc.value.code == "solve.mim"


class TestReduceIlp:
    def test_tight_instance_keeps_equality(self):
        g = make_grouped((10**9,), (10**9,), ((1,),), 10**9, 10**9)
        ri = reduce_ilp(g)
        ((w, p, _),) = ri.classes
        assert w == ri.capacity
        assert p == ri.target
        assert grouped_reference(ri)

    def test_infeasible_single_item(self):
        g = group(KnapsackInstance((Item(2, 3),), 5, 6))
        assert not grouped_reference(reduce_ilp(g))

    def test_zero_weight_rejected(self):
        g = group(KnapsackInstance((Item(0, 3),), 5, 3))
        with pytest.raises(InvariantError):
            reduce_ilp(g)

    @pytest.mark.parametrize("seed", range(200))
    def test_equivalent_to_original_program(self, seed):
        rng = random.Random(40000 + seed)
        n = rng.randrange(1, 11)
        w_d = rng.randrange(1, 3)
        p_d = rng.randrange(1, 3)
        inst = gen_knapsack(n, min(w_d, n), min(p_d, n), 50, seed)
        g = group(inst)
        if g.variable_count > 4:
            pytest.skip("keep the assignment enumeration tiny")
        ri = reduce_ilp(g)
        assert grouped_reference(g) == grouped_reference(ri)
        # each class keeps its own item tuple, and order and distinctness
        # survive sign preservation on difference vectors
        assert all(a[2] is b[2] for a, b in zip(g.classes, ri.classes))
        pairs = [(w, p) for w, p, _ in ri.classes]
        assert pairs == sorted(set(pairs))

    def test_collapse_check_survives_optimize(self):
        # a reduction that splits two equal weights must be refused even
        # under -O, where assert statements are stripped
        script = textwrap.dedent(
            """
            import sys
            from fewweights import kernel
            from fewweights.core import InvariantError

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            # keeps every sign but gives each coordinate its own magnitude
            kernel.frank_tardos_reduce = lambda vec, budget: [
                (i + 1) if x > 0 else -(i + 1) for i, x in enumerate(vec)
            ]
            g = kernel.GroupedInstance(((3, 5, (0,)), (3, 7, (1,))), 6, 12)
            try:
                kernel.reduce_ilp(g)
            except InvariantError as err:
                sys.exit(f"InvariantError {err.code}")
            """
        )
        src = str(Path(fewweights.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1, proc.stderr
        assert "InvariantError kernel.reduce-collapse" in proc.stderr


class TestBinarySplit:
    def test_examples(self):
        assert binary_split(5) == [1, 2, 2]
        assert binary_split(1) == [1]
        assert binary_split(0) == []

    @pytest.mark.parametrize("bound", range(65))
    def test_reaches_exactly_the_range(self, bound):
        reachable = {0}
        for c in binary_split(bound):
            reachable |= {s + c for s in reachable}
        assert reachable == set(range(bound + 1))

    def test_rejects_negative(self):
        with pytest.raises(InvariantError):
            binary_split(-1)


class TestIlpToKnapsack:
    def test_item_counts_follow_split(self):
        ri = GroupedInstance(((3, 2, tuple(range(5))),), 10, 4)
        out = ilp_to_knapsack(ri)
        assert [(it.weight, it.profit) for it in out.items] == [
            (3, 2), (6, 4), (6, 4),
        ]
        assert out.capacity == 10 and out.target == 4

    @pytest.mark.parametrize("seed", range(60))
    def test_equivalent_to_reduced_program(self, seed):
        rng = random.Random(seed)
        vars_ = rng.randrange(1, 4)
        weights = [rng.randrange(1, 20) for _ in range(vars_)]
        capacity = rng.randrange(0, 60)
        profits = [rng.randrange(1, 20) for _ in range(vars_)]
        target = rng.randrange(0, 60)
        sizes = [rng.randrange(0, 5) for _ in range(vars_)]
        classes, start = [], 0
        for w, p, c in zip(weights, profits, sizes):
            classes.append((w, p, tuple(range(start, start + c))))
            start += c
        ri = GroupedInstance(tuple(classes), capacity, target)
        out = ilp_to_knapsack(ri)
        assert len(out.items) <= 3 * vars_
        assert brute_feasible(out) == grouped_reference(ri)


class TestKernelize:
    def test_solved_yes(self):
        inst = KnapsackInstance((Item(2, 3),) * 3, 4, 6)
        out, report = kernelize_with_report(inst)
        assert report["branch"] == "solved"
        assert brute_feasible(inst) and brute_feasible(out)
        assert len(out.items) == 1 and out.capacity == out.target == 1

    def test_solved_no(self):
        inst = KnapsackInstance((Item(2, 3),) * 3, 1, 6)
        out, report = kernelize_with_report(inst)
        assert report["branch"] == "solved"
        assert not brute_feasible(out)
        assert out.items == () and out.capacity == 0 and out.target == 1

    def test_composed_instance_roundtrip(self, rss_yes_1, rss_no_1):
        comp = compose([rss_yes_1, rss_no_1])
        out, report = kernelize_with_report(comp.knapsack)
        assert report["branch"] == "reduced"
        assert solve_meet_in_middle(comp.knapsack).feasible == brute_feasible(out)

    def test_empty_instance(self):
        out = kernelize(KnapsackInstance((), 0, 0))
        assert brute_feasible(out)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 1), (1, 4)])
    def test_solved_branch_at_r4(self, shape, seed, monkeypatch):
        # 4096 items with r = 4 take the solved branch; every yes-witness of
        # the grouped solve must fit the capacity and reach the target
        inst = gen_knapsack(4096, *shape, 2**64, seed)
        results = []

        def recording(g):
            res = solve_grouped(g)
            results.append((g, res))
            return res

        monkeypatch.setattr(kernel, "solve_grouped", recording)
        _, report = kernelize_with_report(inst)
        assert report["branch"] == "solved" and report["r"] == 4
        ((g, res),) = results
        if res.feasible:
            weight, profit = inst.subset_weight(res.chosen), inst.subset_profit(res.chosen)
            assert (weight, profit) == (res.achieved_weight, res.achieved_profit)
            assert weight <= g.capacity and profit >= g.target

    @pytest.mark.parametrize("seed", range(120))
    def test_preserves_verdict_random(self, seed):
        rng = random.Random(90000 + seed)
        n = rng.randrange(1, 13)
        inst = gen_knapsack(
            n,
            rng.randrange(1, min(3, n) + 1),
            rng.randrange(1, min(3, n) + 1),
            2**40,
            seed,
        )
        out, report = kernelize_with_report(inst)
        assert brute_feasible(inst) == brute_feasible(out), report

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize(
        "shape", [("gen", 4, 64), ("gen", 8, 64), ("gen", 4, 256), ("gen", 8, 256),
                  ("compose", 2, 1), ("compose", 4, 1)],
    )
    def test_never_grows(self, shape, seed):
        kind, a, b = shape
        rng = random.Random(7000 + seed)
        if kind == "gen":
            inst = gen_knapsack(rng.randint(24, 30), a, a, 2**b, rng.getrandbits(32))
        else:
            yes = [rng.random() < 0.5 for _ in range(a)]
            inst = compose([gen_rss(b, rng.getrandbits(32), y) for y in yes]).knapsack
        out, report = kernelize_with_report(inst)
        assert report["branch"] == "reduced"
        assert instance_bits(out) <= instance_bits(inst)
        assert solve_meet_in_middle(out).feasible == solve_meet_in_middle(inst).feasible

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=12),
        st.integers(0, 40),
        st.integers(0, 40),
    )
    def test_zero_coefficients_against_brute_force(self, pairs, capacity, target):
        # zero-weight items are taken and zero-profit items dropped before
        # the branch is chosen, so neither reaches the coefficient reduction
        inst = KnapsackInstance(tuple(Item(w, p) for w, p in pairs), capacity, target)
        out = kernelize(inst)
        assert solve_brute_force(out).feasible == solve_brute_force(inst).feasible

    def test_report_fields(self):
        inst = KnapsackInstance((Item(2, 3),) * 3, 4, 6)
        _, report = kernelize_with_report(inst)
        assert set(report) == {"r", "branch", "input_bits", "output_bits"}
        assert report["r"] == 1
        assert report["input_bits"] == instance_bits(inst)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([0, 1, 5, 2**70]), st.sampled_from([0, 3, 2**65])), max_size=12),
        st.sampled_from([0, 1, 2**80]),
        st.sampled_from([0, 2, 2**90]),
    )
    def test_report_input_bits_counts_every_item(self, pairs, capacity, target):
        # classes of zero weight or zero profit leave the program after the
        # count is taken, so they still count
        inst = KnapsackInstance(tuple(Item(w, p) for w, p in pairs), capacity, target)
        _, report = kernelize_with_report(inst)
        assert report["input_bits"] == instance_bits(inst)


# naturals with zero drawn often: zero is the one value whose bit length is raised
_NAT = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**200))


class TestInstanceBits:
    def test_counts_every_number(self):
        inst = KnapsackInstance((Item(1, 255),), 7, 0)
        # 1 + 8 + 3 + 1 bits
        assert instance_bits(inst) == 13

    def test_empty(self):
        assert instance_bits(KnapsackInstance((), 0, 0)) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_NAT, _NAT), max_size=12), _NAT, _NAT)
    def test_matches_naive_sum(self, pairs, capacity, target):
        inst = KnapsackInstance(tuple(Item(w, p) for w, p in pairs), capacity, target)
        numbers = [capacity, target, *(v for pair in pairs for v in pair)]
        assert instance_bits(inst) == sum(max(1, v.bit_length()) for v in numbers)


# (items, w#, p#, value bits, seed) of a small gen_knapsack instance; w# and p#
# are capped at the item count
_SMALL_DRAW = st.tuples(
    st.integers(2, 12), st.integers(1, 3), st.integers(1, 3), st.sampled_from([8, 64]),
    st.integers(0, 2**32 - 1),
)


def _small_instance(draw) -> KnapsackInstance:
    n, w, p, bits, seed = draw
    return gen_knapsack(n, min(w, n), min(p, n), 2**bits, seed)


def _permuted(inst: KnapsackInstance, seed: int) -> KnapsackInstance:
    items = list(inst.items)
    random.Random(seed).shuffle(items)
    return KnapsackInstance(tuple(items), inst.capacity, inst.target)


class TestKernelMetamorphic:
    """Transformations that cannot change the answer must not change the
    kernel either; an approximate LLL or SDA step that breaks one shows here."""

    @settings(max_examples=100, deadline=None)
    @given(_SMALL_DRAW, st.integers(0, 2**32 - 1))
    def test_permuting_items_keeps_kernel(self, draw, perm_seed):
        inst = _small_instance(draw)
        assert kernelize(_permuted(inst, perm_seed)) == kernelize(inst)

    @settings(max_examples=100, deadline=None)
    @given(_SMALL_DRAW, st.integers(2, 999))
    def test_scaling_weights_keeps_kernel(self, draw, k):
        inst = _small_instance(draw)
        scaled = KnapsackInstance(
            tuple(Item(it.weight * k, it.profit) for it in inst.items), inst.capacity * k, inst.target
        )
        out = kernelize(scaled)
        assert out == kernelize(inst)
        assert solve_brute_force(out).feasible == solve_brute_force(inst).feasible

    @settings(max_examples=100, deadline=None)
    @given(_SMALL_DRAW, st.integers(2, 999))
    def test_scaling_profits_keeps_kernel(self, draw, k):
        inst = _small_instance(draw)
        scaled = KnapsackInstance(
            tuple(Item(it.weight, it.profit * k) for it in inst.items), inst.capacity, inst.target * k
        )
        out = kernelize(scaled)
        assert out == kernelize(inst)
        assert solve_brute_force(out).feasible == solve_brute_force(inst).feasible

    @settings(max_examples=100, deadline=None)
    @given(_SMALL_DRAW)
    def test_kernelizing_twice_never_grows(self, draw):
        inst = _small_instance(draw)
        once = kernelize(inst)
        twice = kernelize(once)
        assert instance_bits(twice) <= instance_bits(once)
        assert solve_brute_force(twice).feasible == solve_brute_force(inst).feasible

    @settings(max_examples=100, deadline=None)
    @given(_SMALL_DRAW, st.integers(0, 2**32 - 1), st.sampled_from([solve_brute_force, solve_meet_in_middle]))
    def test_solvers_ignore_item_order(self, draw, perm_seed, solver):
        inst = _small_instance(draw)
        want, got = solver(inst), solver(_permuted(inst, perm_seed))
        assert got.feasible == want.feasible
        if want.feasible:
            # both report a maximum profit, whichever witness reaches it
            assert got.achieved_profit == want.achieved_profit


# the inputs of one draw of the kernel-sweep benchmark: gen_knapsack with
# w# = p# = a at 2**bits, 24-30 items, and OR-compositions at (t, n)
_SWEEP = (
    ("gen", 2, 64), ("gen", 3, 64), ("gen", 4, 64), ("gen", 8, 64), ("gen", 16, 64),
    ("gen", 2, 256), ("gen", 3, 256), ("gen", 4, 256), ("gen", 8, 256),
    ("compose", 2, 1), ("compose", 4, 1), ("compose", 2, 2), ("compose", 4, 2),
)
# sha256 of the canonical JSON of every kernel and report of draws 0 and 1,
# kernels in the per-item spelling; any change to a kernel the reduction
# builds changes it
_PINNED_SWEEP = "3eed91e0fcd519a1c2c9f4c2482ac138145d315acd5ad3fc300eba6346268dd0"


def _sweep_instance(kind: str, a: int, b: int, seed: int) -> KnapsackInstance:
    if kind == "gen":
        return gen_knapsack(24 + seed % 7, a, a, 2**b, seed)
    return compose([gen_rss(b, seed + j, j == seed % a) for j in range(a)]).knapsack


class TestKernelPinned:
    def test_sweep_kernels_and_reports(self):
        outputs = []
        for draw in range(2):
            for i, shape in enumerate(_SWEEP):
                out, report = kernelize_with_report(_sweep_instance(*shape, 100 * draw + i))
                outputs.append([expand_references(instance_to_obj(out)), report])
        text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_SWEEP
