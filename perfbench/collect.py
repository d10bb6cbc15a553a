"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload few-classes --seeds 1-10 --seconds 30

Runs ``run.py`` once per seed, one run at a time, and prints for every metric
its median, quartiles and spread (distance between the quartiles as a share
of the median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them).  Besides the metrics of the JSON line it summarises the numbers that
``run.py`` only prints (``ops_per_s``, ``ops_failed_frac``,
``kernel_bits_ratio`` and so on).  ``--out`` also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    values = {key: m["value"] for key, m in result["metrics"].items()}
    for line in lines[:-1]:
        key, _, value = line.partition(" ")
        try:
            values.setdefault(key, float(value))
        except ValueError:
            pass
    return values


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for key in dict.fromkeys(key for run in runs for key in run):
        values = [r[key] for r in runs if key in r]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[key] = {
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seconds": args.seconds,
            "trace": args.trace,
        }
    }
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed={seed} done", file=sys.stderr, flush=True)
        report[workload] = {"seeds": args.seeds, "summary": summarise(runs)}
        print(f"== {workload} ({args.seeds}, {args.seconds} s, trace {args.trace})")
        for key, s in report[workload]["summary"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{key:40s} median {s['median']:<14.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
