"""Acceptance suite: one test per criterion, in order, each printing a
pass/fail line (visible with ``pytest -s``; the -v test names carry the same
information).  Everything here runs on exact integers; expected values come
from the independent reference oracles in conftest or from first-principles
recomputation inside the test."""

from __future__ import annotations

import random
import time
from itertools import product
from math import comb

from conftest import l1_ball, sign
from fewweights.composition import (
    CompositionConstants,
    build_quadratization_items,
    canonical_solution,
    compose,
    count_distinct_weights,
    index_labels,
    quadratization_labels,
)
from fewweights.core import Index, Quadratization, RestrictedSubsetSumInstance, X3CInstance
from fewweights.frank_tardos import frank_tardos_reduce
from fewweights.generators import gen_knapsack, gen_rss, gen_x3c
from fewweights.kernel import instance_bits, kernelize_with_report
from fewweights.reductions import rss_decide, x3c_has_exact_cover, x3c_to_rss
from fewweights.solvers import pick_oracle, solve_brute_force

_SUITE_START = time.monotonic()

# (t, n) -> exhaustive pattern space or the all-no + single-yes slice
OR_EQUIVALENCE_SCALES = [
    (2, 1, "exhaustive"),
    (4, 1, "exhaustive"),
    (2, 2, "exhaustive"),
    (8, 1, "single-yes"),
]


def _patterns(t: int, mode: str):
    if mode == "exhaustive":
        return list(product([False, True], repeat=t))
    singles = [tuple(j == i for j in range(t)) for i in range(t)]
    return [tuple([False] * t)] + singles


def _inputs_for(pattern, n):
    return [
        gen_rss(n, 7700 + 13 * i + (1 if yes else 0), yes)
        for i, yes in enumerate(pattern)
    ]


def test_criterion_01_or_equivalence():
    started = time.monotonic()
    total = 0
    for t, n, mode in OR_EQUIVALENCE_SCALES:
        for pattern in _patterns(t, mode):
            composed = compose(_inputs_for(pattern, n))
            _, oracle = pick_oracle(composed.knapsack)
            assert oracle(composed.knapsack).feasible == any(pattern), (t, n, pattern)
            total += 1
    print(
        f"[criterion 1] OR-equivalence: PASS "
        f"({total} patterns over scales {[(t, n) for t, n, _ in OR_EQUIVALENCE_SCALES]}, "
        f"{time.monotonic() - started:.1f}s)"
    )


def test_criterion_02_canonical_exactness():
    checked = 0
    for t, n, _ in OR_EQUIVALENCE_SCALES:
        inputs = [gen_rss(n, 8800 + i, True) for i in range(t)]
        composed = compose(inputs)
        for i in range(t):
            # generated yes-instances plant their witness in the first n slots
            solution = canonical_solution(composed, i, range(n))
            assert composed.knapsack.subset_weight(solution) == composed.constants.capacity
            assert composed.knapsack.subset_profit(solution) == composed.constants.target
            checked += 1
    print(f"[criterion 2] canonical solutions hit capacity and target exactly: PASS ({checked} cases)")


def test_criterion_03_quadratization_identity():
    checked = 0
    for t in (2, 4, 8, 16):
        for n in (1, 2):
            constants = CompositionConstants(t, n)
            by_label = {it.label: it for it in build_quadratization_items(constants)}
            for i in range(t):
                picked = [by_label[lab] for lab in quadratization_labels(i, constants.lg_t)]
                gap = sum(it.profit for it in picked) - sum(it.weight for it in picked)
                expected = (9 * i * (i + 1) // 2 - 3 * i) * n * constants.block
                assert gap == expected, (t, n, i)
                checked += 1
    print(f"[criterion 3] quadratization profit identity: PASS ({checked} (t, n, i) triples)")


def test_criterion_04_index_extraction_exhaustive():
    composed = compose(
        [RestrictedSubsetSumInstance(1, (84, 84, 84)),
         RestrictedSubsetSumInstance(1, (12, 48, 192))]
    )
    constants = composed.constants
    items = composed.knapsack.items
    assert len(items) == 9
    qualified = 0
    for mask in range(1 << 9):
        subset = [items[i] for i in range(9) if mask >> i & 1]
        weight, profit = constants.index_layer(subset)
        if weight <= constants.t - 1 and profit >= constants.t - 1:
            qualified += 1
            picked_index = frozenset(
                it.label for it in subset if isinstance(it.label, Index)
            )
            assert any(
                picked_index == index_labels(i, constants.lg_t)
                for i in range(constants.t)
            ), mask
    assert qualified > 0
    print(f"[criterion 4] index extraction over all 512 subsets: PASS ({qualified} qualifying subsets)")


def test_criterion_05_replacement_dominance():
    checked = 0
    for t in (4, 8, 16):
        for n in (1, 2):
            constants = CompositionConstants(t, n)
            by_label = {it.label: it for it in build_quadratization_items(constants)}
            for k in range(constants.lg_t):
                for l in range(k + 1, constants.lg_t):
                    separate_w = (
                        by_label[Quadratization((1, 0), k, l)].weight
                        + by_label[Quadratization((0, 1), k, l)].weight
                    )
                    separate_p = (
                        by_label[Quadratization((1, 0), k, l)].profit
                        + by_label[Quadratization((0, 1), k, l)].profit
                    )
                    merged = by_label[Quadratization((1, 1), k, l)]
                    assert separate_w == merged.weight
                    assert separate_p < merged.profit
                    checked += 1
    print(f"[criterion 5] replacement dominance: PASS ({checked} bit pairs)")


def test_criterion_06_parameter_bound():
    checked = 0
    for t, n, mode in OR_EQUIVALENCE_SCALES:
        for pattern in (_patterns(t, mode)[0], _patterns(t, mode)[-1]):
            composed = compose(_inputs_for(pattern, n))
            lg_t = composed.constants.lg_t
            m = 3 * n
            bound = m * (m + 1) * (m + 2) // 6 + 3 * comb(lg_t, 2) + 3 * lg_t
            assert count_distinct_weights(composed.knapsack) <= bound
            checked += 1
    print(f"[criterion 6] distinct-weight bound: PASS ({checked} composed instances)")


def test_criterion_07_unique_digit_solutions():
    from fewweights.core import digit_solutions

    for base in range(2, 8):
        for length in range(1, 6):
            value = sum(base**i for i in range(length))
            assert digit_solutions(value, base, length) == [(1,) * length]
    print("[criterion 7] unique all-ones digit solution for bases 2..7, lengths 1..5: PASS")


def test_criterion_08_cover_equivalence():
    rng = random.Random(2718281828)
    checked = 0
    # planted instances with known labels
    while checked < 100:
        n = [1, 2, 3][checked % 3]
        want_yes = checked % 2 == 0 or n == 1
        inst = gen_x3c(n, 31000 + checked, want_yes)
        assert x3c_has_exact_cover(inst) == rss_decide(x3c_to_rss(inst)).feasible == want_yes
        checked += 1
    # raw element-shuffle samples, labels derived by the oracle itself
    while checked < 200:
        n = rng.choice([1, 2, 3])
        slots = [j for j in range(1, 3 * n + 1) for _ in range(3)]
        rng.shuffle(slots)
        triples = [tuple(sorted(slots[3 * i : 3 * i + 3])) for i in range(3 * n)]
        if any(len(set(trip)) != 3 for trip in triples):
            continue
        inst = X3CInstance(n, tuple(triples))
        assert x3c_has_exact_cover(inst) == rss_decide(x3c_to_rss(inst)).feasible
        checked += 1
    print(f"[criterion 8] cover/decision equivalence: PASS ({checked} instances)")


def test_criterion_09_sign_preserving_reduction():
    started = time.monotonic()
    rng = random.Random(314159)
    for trial in range(100):
        r = rng.randrange(1, 4)
        n_bound = rng.randrange(1, 5)
        vector = [rng.randrange(1, 10**6 + 1) for _ in range(r)]
        reduced = frank_tardos_reduce(vector, n_bound)
        assert max(abs(v) for v in reduced) <= 2 ** (4 * r**3) * n_bound ** (r**2 + 2 * r)
        for b in l1_ball(r, n_bound):
            assert sign(sum(x * y for x, y in zip(vector, b))) == sign(
                sum(x * y for x, y in zip(reduced, b))
            ), (vector, reduced, b)
    print(
        f"[criterion 9] sign preservation + norm bound, 100 vectors, full l1 balls: PASS "
        f"({time.monotonic() - started:.1f}s)"
    )


# pinned after measuring the suite (max observed ratio is well below 2)
KERNEL_SIZE_CONSTANT = 4


def test_criterion_10_kernel_preservation_and_size():
    started = time.monotonic()
    rng = random.Random(171717)

    def brute_verdict(inst):
        return solve_brute_force(inst).feasible

    worst_ratio = 0.0
    branches = {"solved": 0, "reduced": 0}
    for trial in range(500):
        n = rng.randrange(1, 13)
        w_d = rng.randrange(1, min(3, n) + 1)
        p_d = rng.randrange(1, min(3, n) + 1)
        inst = gen_knapsack(n, w_d, p_d, 2**64, 52000 + trial)
        out, report = kernelize_with_report(inst)
        assert brute_verdict(inst) == brute_verdict(out), (trial, report)
        branches[report["branch"]] += 1
        r = report["r"]
        cap = KERNEL_SIZE_CONSTANT * r**5 * ((r + 1).bit_length()) ** 2
        assert instance_bits(out) <= cap, (trial, report, cap)
        worst_ratio = max(
            worst_ratio, instance_bits(out) / (r**5 * ((r + 1).bit_length()) ** 2)
        )
    print(
        f"[criterion 10] kernel verdict preserved on 500 instances, size <= c*r^5*lg^2(r+1) "
        f"with c = {KERNEL_SIZE_CONSTANT} (measured max {worst_ratio:.2f}; "
        f"branches {branches}; {time.monotonic() - started:.1f}s): PASS"
    )


def test_criterion_11_runtime_and_exactness():
    # exactness spot checks: every number produced anywhere is a python int
    composed = compose([gen_rss(1, 1, True), gen_rss(1, 2, False)])
    values = [composed.constants.capacity, composed.constants.target]
    for it in composed.knapsack.items:
        values += [it.weight, it.profit]
    out, _ = kernelize_with_report(composed.knapsack)
    for it in out.items:
        values += [it.weight, it.profit]
    values += frank_tardos_reduce([3, 5], 2)
    assert all(type(v) is int for v in values)

    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 175, f"acceptance module took {elapsed:.0f}s"
    print(
        f"[criterion 11] exact integer arithmetic throughout; acceptance module wall clock "
        f"{elapsed:.1f}s (< 175s budget, full-suite target 180s): PASS"
    )
