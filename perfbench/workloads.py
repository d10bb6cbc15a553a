"""The benchmark's workloads: seeded inputs, one timed operation, and the
untimed check of its verdict.

Every workload builds its inputs from a ``random.Random`` seeded by the run
seed and hands the library only generated instances, through the public
functions of ``generators``, ``composition``, ``serialize``, ``solvers`` and
``kernel``.  Operations call those functions as module attributes, so a
traced run can wrap them (see ``spans.py``).
"""

from __future__ import annotations

import json
import random

import checkers


def oracle_verdict(lib, inst) -> bool:
    """Verdict from the strongest admissible item-level oracle (brute force
    or meet-in-the-middle); these share nothing with the kernel."""
    _, oracle = lib.solvers.pick_oracle(inst)
    return oracle(inst).feasible


def load(lib, text):
    return lib.serialize.instance_from_obj(json.loads(text))


def kernelize_json(lib, text, tr):
    """What `fewweights kernelize` does with an input file: parse, kernelize,
    write the kernel back out as JSON text."""
    with tr.span("serialize.load"):
        inst = load(lib, text)
    tr.add("serialize.bytes", len(text))
    out, report = lib.kernel.kernelize_with_report(inst)
    with tr.span("serialize.dump"):
        text_out = json.dumps(lib.serialize.instance_to_obj(out))
    tr.add("serialize.bytes", len(text_out))
    return text_out, report


class Workload:
    """Defaults for a workload whose ops make no kernel calls and whose
    checks need no self-test."""

    def kernel_reports(self, result):
        return []

    def self_check(self, lib, rng):
        return []


class OrVerify(Workload):
    name = "or-verify"
    why = (
        "the paper's headline check: OR-composition at (t, n) = (8, 1) verified by"
        " meet-in-the-middle; solvers do all the work, kernel and frank_tardos none"
    )
    T, N = 8, 1
    PATTERNS = 64

    def make_cases(self, lib, rng: random.Random):
        # same order as `fewweights verify compose`: all-no, every single-yes,
        # then seeded random patterns; each input gets its own generator seed
        t = self.T
        patterns = [(False,) * t] + [tuple(j == i for j in range(t)) for i in range(t)]
        while len(patterns) < self.PATTERNS:
            patterns.append(tuple(rng.random() < 0.5 for _ in range(t)))
        return [(p, [rng.getrandbits(32) for _ in range(t)]) for p in patterns]

    def op(self, lib, case, tr):
        pattern, seeds = case
        inputs = [lib.generators.gen_rss(self.N, s, yes) for s, yes in zip(seeds, pattern)]
        composed = lib.composition.compose(inputs)
        _, oracle = lib.solvers.pick_oracle(composed.knapsack)
        return oracle(composed.knapsack).feasible

    def check(self, lib, case, result):
        pattern, _ = case
        if result != any(pattern):
            return f"pattern {pattern}: oracle says {result}, OR of labels is {any(pattern)}"
        return None


class KernelSweep(Workload):
    name = "kernel-sweep"
    why = (
        "kernelize from JSON text on the reduced branch over a sweep of r = w#*p#;"
        " frank_tardos LLL does the work, solvers stay off the timed path"
    )
    # ("gen", w# = p#, value bits) or ("compose", t, n).  16x16 at 2**256 is
    # left out: one call takes ~23 s, most of a run.
    SWEEP = (
        ("gen", 2, 64), ("gen", 3, 64), ("gen", 4, 64), ("gen", 8, 64), ("gen", 16, 64),
        ("gen", 2, 256), ("gen", 3, 256), ("gen", 4, 256), ("gen", 8, 256),
        ("compose", 2, 1), ("compose", 4, 1), ("compose", 2, 2), ("compose", 4, 2),
    )
    # At most 30 items keeps the untimed meet-in-the-middle checks to 2 * 2**15
    # masks per instance; at 36 items one check took as long as the sweep.
    ITEMS = (24, 30)
    DRAWS = 8

    def make_cases(self, lib, rng: random.Random):
        # A case is one draw of the whole sweep, so one op kernelizes every
        # shape once.  Single calls range over three orders of magnitude in
        # cost, and the median call was whichever input sat in the middle of
        # the sweep, which changed from seed to seed.  One sweep's cost still
        # moves by about 10 % from draw to draw, so the ops cycle through
        # several draws and the median op is taken over them.
        return [self.make_sweep(lib, rng) for _ in range(self.DRAWS)]

    def make_sweep(self, lib, rng: random.Random):
        sweep = []
        for kind, a, b in self.SWEEP:
            if kind == "gen":
                n = rng.randint(*self.ITEMS)
                inst = lib.generators.gen_knapsack(n, a, a, 2**b, rng.getrandbits(32))
                label, expected = f"gen {a}x{a} 2^{b}", None
            else:
                pattern = [rng.random() < 0.5 for _ in range(a)]
                inputs = [lib.generators.gen_rss(b, rng.getrandbits(32), yes) for yes in pattern]
                inst = lib.composition.compose(inputs).knapsack
                label, expected = f"compose t={a} n={b}", any(pattern)
            sweep.append((label, json.dumps(lib.serialize.instance_to_obj(inst)), expected))
        return sweep

    def op(self, lib, case, tr):
        return [kernelize_json(lib, text, tr) for _, text, _ in case]

    def check(self, lib, case, result):
        errors = []
        for (label, text, expected), (text_out, _) in zip(case, result):
            before = oracle_verdict(lib, load(lib, text))
            after = oracle_verdict(lib, load(lib, text_out))
            if before != after:
                errors.append(f"{label}: input verdict {before}, kernel verdict {after}")
            elif expected is not None and after != expected:
                errors.append(f"{label}: kernel verdict {after}, OR of labels is {expected}")
        return "; ".join(errors) or None

    def kernel_reports(self, result):
        return [report for _, report in result]


class FewClasses(Workload):
    name = "few-classes"
    why = (
        "kernelize from JSON on 4096 items with r = w#*p# = 2 takes the solved branch;"
        " grouped branch-and-bound does the work, within its node budget on every input"
    )
    # Two classes of c1 and c2 items: the search visits at most
    # (c1 + 1) * (c2 + 2) nodes, about 4.2M at 4096 items, under the 5M-node
    # budget, so no input is refused.  Shapes with r = 4, such as (2, 2),
    # (4, 1) and (1, 4), exhaust the budget on about a quarter of their
    # inputs, and an op that fails on some seeds and not others cannot be
    # compared between runs; see "Not measured" in README.md.
    SHAPES = ((2, 1), (1, 2))
    # Every input has 4096 items, so the median op does not jump between
    # sizes from seed to seed.
    ITEMS = 4096
    INSTANCES = 32
    CROSS_CHECK_ITEMS = (8, 16)

    def make_cases(self, lib, rng: random.Random):
        cases = []
        for i in range(self.INSTANCES):
            w, p = self.SHAPES[i % len(self.SHAPES)]
            inst = lib.generators.gen_knapsack(self.ITEMS, w, p, 2**64, rng.getrandbits(32))
            cases.append(json.dumps(lib.serialize.instance_to_obj(inst)))
        return cases

    def op(self, lib, case, tr):
        return kernelize_json(lib, case, tr)

    def kernel_reports(self, result):
        return [result[1]]

    def check(self, lib, case, result):
        inst = load(lib, case)
        want = checkers.feasible(inst)
        got = oracle_verdict(lib, load(lib, result[0]))
        if got != want:
            return f"{len(inst.items)} items: kernel verdict {got}, exact verdict {want}"
        return None

    def self_check(self, lib, rng):
        """Cross-check the exact checker against brute force on small
        instances of the same shapes."""
        errors = []
        for w, p in self.SHAPES * 4:
            n = rng.randint(*self.CROSS_CHECK_ITEMS)
            inst = lib.generators.gen_knapsack(n, w, p, 2**64, rng.getrandbits(32))
            obj = lib.serialize.instance_to_obj(inst)
            obj["target"] = "0"  # every instance is feasible: the oracle reports the maximum
            best = lib.solvers.solve_brute_force(lib.serialize.instance_from_obj(obj))
            pairs = [(it.weight, it.profit) for it in inst.items]
            mine = checkers.max_profit(pairs, inst.capacity)
            if best.achieved_profit != mine:
                errors.append(
                    f"checker on {n} items ({w}x{p}): {mine}, brute force {best.achieved_profit}"
                )
        return errors


WORKLOADS = {w.name: w for w in (OrVerify(), KernelSweep(), FewClasses())}
