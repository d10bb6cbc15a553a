"""Command-line front end.

Exit codes are uniform across subcommands: 0 success, 1 verification
failure or a failed internal check, 2 invalid input, 3 guard or budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .composition import (
    compose,
    composition_metadata,
    count_distinct_profits,
    count_distinct_weights,
    index_labels,
)
from .core import (
    Error,
    GuardError,
    Index,
    InternalError,
    InvariantError,
    Item,
    KnapsackInstance,
    RestrictedSubsetSumInstance,
    SchemaError,
    SubsetSumInstance,
    X3CInstance,
    _check_int,
)
from .generators import SplitMix64, gen_knapsack, gen_rss, gen_x3c
from .kernel import group, kernelize, kernelize_with_report, solve_grouped
from .reductions import subset_sum_to_knapsack, x3c_to_rss
from .serialize import _KIND_OF, instance_to_obj, load_instance
from .solvers import solve_brute_force, solve_dp_by_weight, solve_meet_in_middle

__all__ = ["main", "verify_compose"]

# the (t, n) pairs whose every pattern meet-in-the-middle decides in
# seconds, each with its largest `--trials`; outside them a large t would
# spend minutes in gen_rss before the oracle's entry budget could refuse
# anything.  Through the CLI (Python 3.11, 2 vCPUs, seeds 0 and 1), at each
# n = 1 cap `verify compose` takes 0.9-1.7 s, and at each other cap
# 0.9-2.0 s; the all-no and single-yes patterns always run, and at (16, 2)
# those 17 and 15 more take 1.7-1.9 s
_VERIFY_SCALES = {
    (2, 1): 4096, (4, 1): 2048, (8, 1): 1024, (16, 1): 512, (32, 1): 128,
    (2, 2): 256, (4, 2): 128, (8, 2): 64, (16, 2): 32,
    (4, 3): 256, (8, 3): 64,
}


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_gen(args) -> int:
    if args.kind == "knapsack":
        inst = gen_knapsack(args.items, args.w_distinct, args.p_distinct, args.max_value, args.seed)
    elif args.kind == "x3c":
        inst = gen_x3c(args.n, args.seed, args.yes)
    else:
        inst = gen_rss(args.n, args.seed, args.yes)
    print(f"seed={args.seed}", file=sys.stderr)
    _emit(instance_to_obj(inst), args.out)
    return 0


def _load(path: str, cls):
    """The ``cls`` instance in ``path``; every error on it names the file."""
    try:
        inst = load_instance(path)
    except (SchemaError, InvariantError) as exc:
        raise type(exc)(exc.code, f"{path}: {exc}") from exc
    if not isinstance(inst, cls):
        got = _KIND_OF[type(inst)]
        raise SchemaError("schema.kind", f"{path}: expected kind {_KIND_OF[cls]!r}, got {got!r}")
    return inst


_TRANSFORMS = {
    "x3c-to-rss": (X3CInstance, x3c_to_rss),
    "subset-sum-to-knapsack": (SubsetSumInstance, subset_sum_to_knapsack),
}


def _cmd_reduce(args) -> int:
    cls, transform = _TRANSFORMS[args.transform]
    _emit(instance_to_obj(transform(_load(args.input, cls))), args.out)
    return 0


def _cmd_compose(args) -> int:
    inputs = [_load(path, RestrictedSubsetSumInstance) for path in args.inputs]
    composed = compose(inputs)
    knap = composed.knapsack
    if args.strip_labels:
        items = tuple(Item(it.weight, it.profit) for it in knap.items)
        knap = KnapsackInstance(items, knap.capacity, knap.target)
    _emit(instance_to_obj(knap), args.out)
    meta = composition_metadata(composed)
    meta["inputs"] = len(inputs)
    _emit(meta, str(Path(args.out).with_suffix(".meta.json")))
    print(f"w#={count_distinct_weights(composed.knapsack)}")
    print(f"p#={count_distinct_profits(composed.knapsack)}")
    return 0


def _cmd_kernelize(args) -> int:
    out, report = kernelize_with_report(_load(args.input, KnapsackInstance))
    _emit(instance_to_obj(out), args.out)
    if args.report:
        # stdout carries the instance unless it went to a file
        print(json.dumps(report), file=sys.stdout if args.out else sys.stderr)
    return 0


_SOLVERS = {
    "brute": solve_brute_force,
    "mim": solve_meet_in_middle,
    "dp": solve_dp_by_weight,
    "grouped": lambda inst: solve_grouped(group(inst)),
}


def _cmd_solve(args) -> int:
    result = _SOLVERS[args.method](_load(args.input, KnapsackInstance))
    print("feasible" if result.feasible else "infeasible")
    if result.feasible:
        print(f"weight={result.achieved_weight} profit={result.achieved_profit}")
        if args.witness:
            print("chosen=" + " ".join(str(i) for i in sorted(result.chosen)))
    return 0


def verify_compose(t: int, n: int, trials: int, seed: int):
    """Compose planted yes/no patterns and check that meet-in-the-middle's
    verdicts on each composed instance and on its kernel both equal the OR of
    the labels, and that every direct feasible witness is canonical: it hits
    capacity and target exactly and spells out the index of a yes-input.  The
    kernel has no labels, so its check compares verdicts only.

    The all-no pattern and every single-yes pattern run unconditionally;
    further random patterns are drawn until ``trials`` rows ran.  Returns
    ``(ok, rows, failures)`` where each row is (pattern, verdict, kernel
    verdict, expected) and failures pair failing patterns with their inputs.
    """
    if (t, n) not in _VERIFY_SCALES:
        raise GuardError(
            "verify.scale",
            f"(t={t}, n={n}) outside the oracle-checked scales {sorted(_VERIFY_SCALES)}",
        )
    _check_int("verify.trials", "trials", trials, 0)
    if trials > _VERIFY_SCALES[t, n]:
        raise GuardError(
            "verify.trials", f"{trials} trials at (t={t}, n={n}), limit {_VERIFY_SCALES[t, n]}"
        )
    rng = SplitMix64(seed)
    patterns = [tuple([False] * t)]
    for i in range(t):
        patterns.append(tuple(j == i for j in range(t)))
    while len(patterns) < trials:
        patterns.append(tuple(rng.randrange(2) == 1 for _ in range(t)))

    rows = []
    failures = []
    print(f"pattern{' ' * max(1, t - 4)}verdict kernel expected status")
    for pattern in patterns:
        inputs = [gen_rss(n, rng.randrange(2**32), yes) for yes in pattern]
        composed = compose(inputs)
        knap = composed.knapsack
        result = solve_meet_in_middle(knap)
        via_kernel = solve_meet_in_middle(kernelize(knap)).feasible
        expected = any(pattern)
        ok = result.feasible == via_kernel == expected
        if ok and result.feasible:
            labels = [knap.items[i].label for i in result.chosen]
            spelled = frozenset(label for label in labels if isinstance(label, Index))
            exact = (result.achieved_weight, result.achieved_profit) == (knap.capacity, knap.target)
            ok = exact and any(
                yes and spelled == index_labels(i, composed.constants.lg_t)
                for i, yes in enumerate(pattern)
            )
        bits = "".join("1" if b else "0" for b in pattern)
        print(f"{bits:<{max(7, t)}} {result.feasible!s:<7} {via_kernel!s:<6} {expected!s:<8}"
              f" {'pass' if ok else 'FAIL'}")
        rows.append((pattern, result.feasible, via_kernel, expected))
        if not ok:
            failures.append((pattern, inputs))
    return not failures, rows, failures


def _cmd_verify(args) -> int:
    ok, rows, failures = verify_compose(args.t, args.n, args.trials, args.seed)
    if ok:
        print(f"all {len(rows)} patterns verified")
        return 0
    for k, (pattern, inputs) in enumerate(failures):
        for idx, inst in enumerate(inputs):
            path = f"compose-counterexample-{k}-{idx}.json"
            _emit(instance_to_obj(inst), path)
            print(f"counterexample input written: {path}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewweights",
        description="exact workbench for knapsack instances with few distinct weights/profits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate seeded instances with known answers")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    for kind in ("x3c", "rss"):
        pk = gen_sub.add_parser(kind)
        pk.add_argument("--n", type=int, required=True)
        pk.add_argument("--seed", type=int, default=0)
        flag = pk.add_mutually_exclusive_group(required=True)
        flag.add_argument("--yes", action="store_true")
        flag.add_argument("--no", dest="yes", action="store_false")
        pk.add_argument("--out")
        pk.set_defaults(func=_cmd_gen)
    pk = gen_sub.add_parser("knapsack")
    pk.add_argument("--items", type=int, required=True)
    pk.add_argument("--w-distinct", type=int, required=True)
    pk.add_argument("--p-distinct", type=int, required=True)
    pk.add_argument("--max-value", type=int, required=True)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--out")
    pk.set_defaults(func=_cmd_gen)

    p_red = sub.add_parser("reduce", help="problem-to-problem transformations")
    p_red.add_argument("transform", choices=list(_TRANSFORMS))
    p_red.add_argument("input")
    p_red.add_argument("--out")
    p_red.set_defaults(func=_cmd_reduce)

    p_comp = sub.add_parser("compose", help="merge rss instances into one knapsack instance")
    p_comp.add_argument("inputs", nargs="+")
    p_comp.add_argument("--out", required=True)
    p_comp.add_argument("--strip-labels", action="store_true")
    p_comp.set_defaults(func=_cmd_compose)

    p_ker = sub.add_parser("kernelize", help="shrink an instance to size poly(w# * p#)")
    p_ker.add_argument("input")
    p_ker.add_argument("--out")
    p_ker.add_argument("--report", action="store_true")
    p_ker.set_defaults(func=_cmd_kernelize)

    p_sol = sub.add_parser("solve", help="exact oracle solvers")
    p_sol.add_argument("input")
    p_sol.add_argument("--method", choices=list(_SOLVERS), default="brute")
    p_sol.add_argument("--witness", action="store_true")
    p_sol.set_defaults(func=_cmd_solve)

    p_ver = sub.add_parser("verify", help="end-to-end verification harnesses")
    ver_sub = p_ver.add_subparsers(dest="check", required=True)
    pv = ver_sub.add_parser("compose")
    pv.add_argument("--t", type=int, required=True)
    pv.add_argument("--n", type=int, required=True)
    pv.add_argument("--trials", type=int, default=0)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    # instances promise arbitrary precision, so decimals of any length must
    # load and dump
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        status = args.func(args)
        # a closed standard output fails here, not at interpreter exit,
        # whether or not the stream is buffered
        sys.stdout.flush()
        return status
    except InternalError as exc:  # a failed post-condition of the library
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except GuardError as exc:
        print(f"guard[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except Error as exc:  # schema and invariant errors: invalid input
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # unreadable input, unwritable output
        if isinstance(exc, BrokenPipeError):
            # exit flushes stdout again; what it still holds goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
