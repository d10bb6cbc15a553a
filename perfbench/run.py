"""Seeded benchmark of the fewweights pipeline: gen -> compose -> kernelize -> solve.

    python3 perfbench/run.py --workload or-verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.  One process, one client, a
closed loop: each operation starts when the previous one has returned.  The
operations of a workload are repeated in order until ``--seconds`` of wall
time have passed, and every verdict is checked afterwards, untimed.  A fixed
reference loop, which uses nothing of the package, is timed between the
operations; ``op_p50_ref`` gives each operation's time in units of the
reference loops around it, so changes in the speed of a shared host cancel.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice, once plain and once with spans recorded around the calls
into each layer (order alternating), and prints the per-layer metrics, the
tracing overhead from those pairs, and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON object;
the lines before it give the same numbers for reading.  The exit code is 1
when a verdict is wrong and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# set up at least this many times and until this much set-up time is spent,
# so a short set-up is timed often enough for its median to hold still; the
# host switches between a fast and a slow speed every 0.5-5 s, so the set-ups
# of a run span a few seconds
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 100
MODULES = ("generators", "composition", "serialize", "solvers", "kernel")
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

# names and units of the end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}
REF_ITEMS = 1 << 13
# each timing of the reference loop runs it until this share of the last op's
# time has passed (at least once, at most REF_MAX_LOOPS times), so a long op
# is bracketed by more than a few milliseconds of the host's speed
REF_SHARE = 0.03
REF_MAX_LOOPS = 32


class Library:
    """The package's public modules, imported afresh from ``src/``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "fewweights" or m.startswith("fewweights.")]:
            del sys.modules[name]
        package = importlib.import_module("fewweights")
        if not Path(package.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"fewweights imported from {package.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"fewweights.{name}"))
        self.GuardError = package.GuardError


def set_up(workload, seed: int, tracer):
    """Import the package and build the inputs; returns (seconds, lib, cases).
    Only the input generation is traced: the import replaces the modules."""
    start = time.perf_counter()
    lib = Library()
    tracer.install(lib)
    try:
        with tracer.span("setup"):
            cases = workload.make_cases(lib, random.Random(seed))
    finally:
        tracer.uninstall()
    return time.perf_counter() - start, lib, cases


def set_up_repeatedly(workload, seed: int, tracer):
    """Set up several times; returns (median seconds, lib, cases) of the last.
    Only the last set-up is traced."""
    times = []
    lib = cases = None
    while True:
        last = len(times) + 1 >= SETUP_REPEATS and (
            sum(times) >= SETUP_SECONDS or len(times) + 1 >= SETUP_MAX_REPEATS
        )
        # drop the previous set-up's inputs first, so each starts from the same heap
        lib = cases = None
        gc.collect()
        seconds, lib, cases = set_up(workload, seed, tracer if last else spans.NullTracer())
        times.append(seconds)
        if last:
            return statistics.median(times), lib, cases


def reference_loop():
    """Fixed pure-Python work that uses nothing of the package: big-integer
    arithmetic, as in the lattice reduction, then building, sorting and
    indexing a list of ints, as in the subset-sum tables and the parsing.
    About 5 ms on a 2-vCPU x86-64 host."""
    x = 3**200
    acc = 0
    for i in range(2000):
        acc = (acc * x + i) % (x - 7)
    values = [(i * 2654435761) & 0xFFFFFFFF for i in range(REF_ITEMS)]
    values.sort()
    total = 0
    for i in range(REF_ITEMS):
        total += values[(i * 40503) & (REF_ITEMS - 1)]
    return acc ^ total


def time_reference(op_seconds: float) -> float:
    """Median seconds of one reference loop, over as many loops as fit in
    REF_SHARE of ``op_seconds``."""
    times = []
    while not times or (sum(times) < REF_SHARE * op_seconds and len(times) < REF_MAX_LOOPS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


REFUSED = object()


def run_op(workload, lib, case, tracer, op_id):
    """One operation; returns (seconds, result), the result being REFUSED
    when the library raised its guard or budget error."""
    tracer.install(lib)
    tracer.op_id = op_id
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            result = workload.op(lib, case, tracer)
    except lib.GuardError:
        result = REFUSED
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
        tracer.op_id = None
    return elapsed, result


def closed_loop(workload, lib, cases, seconds: float, tracer):
    """Run the cases in order, over and over, until ``seconds`` have passed.

    With a real tracer each op runs twice, plain and traced, alternating
    which goes first.  The reference loop is timed right before and right
    after each plain run.  Returns ([(seconds, reference seconds, outcome)]
    of the plain runs, the reference seconds being the mean of the two
    timings around it, [seconds] of the traced runs, [(case index, outcome)]
    of every run, wall time).
    """
    plain, traced, outcomes = [], [], []
    tracers = [spans.NullTracer()]
    if isinstance(tracer, spans.Tracer):
        tracers.append(tracer)
    start = time.perf_counter()
    op_id = 0
    ref_before = None
    last_op = 0.0
    while not outcomes or time.perf_counter() - start < seconds:
        case_index = op_id % len(cases)
        for tr in tracers if op_id % 2 == 0 else tracers[::-1]:
            if tr is tracers[0] and ref_before is None:
                ref_before = time_reference(last_op)
            elapsed, outcome = run_op(workload, lib, cases[case_index], tr, op_id)
            if tr is tracers[0]:
                last_op = elapsed
                ref_after = time_reference(last_op)
                plain.append((elapsed, (ref_before + ref_after) / 2, outcome))
                ref_before = ref_after
            else:
                traced.append(elapsed)
                ref_before = None
            outcomes.append((case_index, outcome))
        op_id += 1
    return plain, traced, outcomes, time.perf_counter() - start


def check(workload, lib, cases, outcomes, seed: int, tracer):
    """Untimed: every distinct case once, and repeats must agree.  Returns
    the error messages and the first outcome of each case."""
    errors = []
    first = {}
    for case_index, outcome in outcomes:
        if case_index in first and first[case_index] != outcome:
            errors.append(f"case {case_index}: result differs between repeats")
        first.setdefault(case_index, outcome)
    with tracer.span("check"):
        for case_index, outcome in first.items():
            if outcome is not REFUSED:
                message = workload.check(lib, cases[case_index], outcome)
                if message:
                    errors.append(message)
        errors.extend(workload.self_check(lib, random.Random(seed + 1)))
    return errors, first


def tail(times):
    """(percentile, seconds) for the highest listed percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    tracer = spans.Tracer() if traced else spans.NullTracer()

    sys.path.insert(0, str(SRC))
    try:
        setup_s, lib, cases = set_up_repeatedly(workload, args.seed, tracer)
    except ImportError as exc:
        print(f"perfbench: cannot import fewweights from {SRC}: {exc}", file=sys.stderr)
        return 2
    plain, traced_times, outcomes, wall_s = closed_loop(workload, lib, cases, args.seconds, tracer)
    times = [seconds for seconds, _, _ in plain]
    # latency of the ops that completed; refusals count in ops_failed_frac
    completed = [(s, ref) for s, ref, outcome in plain if outcome is not REFUSED]
    completed = completed or [(s, ref) for s, ref, _ in plain]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, first = check(workload, lib, cases, outcomes, args.seed, tracer)

    attempted = len(outcomes)
    failed = sum(1 for _, outcome in outcomes if outcome is REFUSED)
    reports = [r for o in first.values() if o is not REFUSED for r in workload.kernel_reports(o)]
    ratios = [r["output_bits"] / r["input_bits"] for r in reports]
    bits_ratio = None
    if reports:
        bits_ratio = sum(r["output_bits"] for r in reports) / sum(r["input_bits"] for r in reports)
    tail_at = tail(times)

    e2e = {
        "setup_s": setup_s,
        "op_p50_ref": statistics.median(s / ref for s, ref in completed),
        "peak_rss_mb": peak_rss_mb,
    }
    shown = {
        **e2e,
        "op_p50_s": statistics.median(s for s, _ in completed),
        "ref_loop_s": statistics.median(ref for _, ref, _ in plain),
        "ops_per_s": None if traced else (attempted - failed) / wall_s,
        "op_count": attempted,
        "op_tail_s": tail_at[1] if tail_at else None,
        "op_tail_percentile": tail_at[0] if tail_at else None,
        "ops_failed_frac": failed / attempted,
        "kernel_bits_ratio": bits_ratio,
        "kernel_bits_ratio_max": max(ratios, default=None),
    }
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} platform={platform.platform()}")
    for key, value in shown.items():
        print(f"{key} {'n/a' if value is None else value}")

    if traced:
        layers = tracer.layer_metrics()
        layers["ops_failed_frac"] = failed / attempted
        layers["kernel.bits_ratio"] = bits_ratio or 0.0
        layers["kernel.bits_ratio_max"] = max(ratios, default=0.0)
        layers["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_times, times))
        layers["trace.overhead_frac"] = sum(traced_times) / sum(times) - 1
        for key, value in layers.items():
            print(f"{key} {value}")
        path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = {key: {"value": value, "unit": spans.unit(key)} for key, value in layers.items()}
    else:
        metrics = {key: {"value": value, "unit": END_TO_END[key]} for key, value in e2e.items()}

    for message in errors:
        print(f"WRONG: {message}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
