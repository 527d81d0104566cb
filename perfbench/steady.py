#!/usr/bin/env python3
"""Steadiness check: rerun workloads over several seeds and show the spread.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each run uses its own seed (first-seed,
first-seed+1, ...). For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median. With --trace 0 it compares each
spread with the metric's bound from BENCHMARK.json: a spread above a third of
the bound is marked "wide", above the bound "OVER". setup_s is exempt from
the spread rule and only shown. Exits 1 when any run fails or is incorrect,
or any spread is over its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    return json.loads(lines[-1])


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return q1, med, q3, 0.0 if q1 == q3 else float("inf")
    return q1, med, q3, (q3 - q1) / abs(med)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if args.trace == 0 else {}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for wl in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(wl, seed, args.seconds, args.trace)
            if res is None or not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: run failed or incorrect: {res}")
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{wl} ({args.runs} runs of {args.seconds:g} s, seeds from {args.first_seed})")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3, spread = spread_of(vs)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    mark, ok = "OVER", False
                elif spread > bound / 3:
                    mark = "wide"
            b = f"{bound:6.3f}" if bound is not None else " " * 6
            print(f"  {name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b} {mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
