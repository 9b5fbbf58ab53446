#!/usr/bin/env python3
"""Steadiness tool for the c4b benchmark.

Runs each workload N times, each with another seed, and prints every
metric's median and quartiles next to the benchmark's bound:

    python3 c4bbench/steady.py [--runs 10] [--workloads table3,service_edit]
                               [--first-seed 1] [--trace 0|1]

The spread is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4).  A spread above a third of the bound is
flagged; above the bound, the metric is not steady.  With --trace 1 the
per-layer metrics are listed instead, and each count is marked when it
repeats exactly across the runs.

Alternating parent/change pairs, for a change that claims a gain:

    python3 c4bbench/steady.py --pair PARENT_DIR CHANGE_DIR [--runs 10]

Both directories are checkouts; pair i runs both on seed first_seed + i,
parent first on even i and change first on odd i.  Each side's median and
quartiles are printed with the change's share of wins (ties count for
neither), the parent's own spread, and whether the gain rule holds: the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's quartile distance.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  warning: %s seed %d: correct=false (%d of %d failed)"
              % (workload, seed, result["failed"], result["attempted"]))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # Each run's values as it ends: a host whose speed shifts between runs
    # shows here as a step, which the quartiles alone would hide.
    print("  %s seed %d: %s" % (workload, seed, " ".join(
        "%s=%.4g" % kv for kv in values.items())), file=sys.stderr)
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 == 0 else float("inf")
    return (q3 - q1) / abs(q2)


def better(spec_metric, a, b):
    """+1 when a is better than b, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    higher = spec_metric["better"] == "higher"
    return 1 if (a > b) == higher else -1


def steadiness(args, spec):
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for wl in args.workloads:
        runs = [run_once(ROOT, spec, wl, args.first_seed + i, args.trace)
                for i in range(args.runs)]
        print("\n%s: %d runs, seeds %d..%d" % (wl, args.runs, args.first_seed,
                                                args.first_seed + args.runs - 1))
        print("  %-34s %14s %14s %14s %8s %6s  %s"
              % ("metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for m in metrics:
            vals = [r[m["name"]] for r in runs]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            if args.trace:
                bound = "-"
                verdict = ("repeats exactly" if m["unit"] == "count"
                           and len(set(vals)) == 1 else "")
            else:
                b = m["bound"]
                bound = "%.3f" % b
                if s <= b / 3:
                    verdict = "steady"
                elif s <= b:
                    verdict = "within bound, above a third"
                else:
                    verdict = "NOT STEADY"
            print("  %-34s %14.6g %14.6g %14.6g %8.4f %6s  %s"
                  % (m["name"], q1, q2, q3, s, bound, verdict))


def pairs(args):
    parent, change = args.pair
    spec = load_spec(parent)
    for wl in args.workloads:
        sides = {"parent": [], "change": []}
        for i in range(args.runs):
            seed = args.first_seed + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for name, root in order:
                sides[name].append(run_once(root, spec, wl, seed, 0))
        print("\n%s: %d alternating pairs" % (wl, args.runs))
        print("  %-20s %-30s %-30s %6s %8s  %s"
              % ("metric", "parent q1/median/q3", "change q1/median/q3",
                 "wins", "p-spread", "gain rule"))
        for m in spec["end_to_end"]:
            p = [r[m["name"]] for r in sides["parent"]]
            c = [r[m["name"]] for r in sides["change"]]
            wins = sum(1 for a, b in zip(c, p) if better(m, a, b) > 0)
            pq, cq = quartiles(p), quartiles(c)
            pspread = pq[2] - pq[0]
            gain = (wins >= 0.9 * len(p) and better(m, cq[1], pq[1]) > 0
                    and abs(cq[1] - pq[1]) > pspread)
            print("  %-20s %-30s %-30s %3d/%-2d %8.4f  %s"
                  % (m["name"], "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq,
                     wins, len(p), pspread / pq[1] if pq[1] else 0,
                     "holds" if gain else "-"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pair", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args()
    spec = load_spec(args.pair[0] if args.pair else ROOT)
    args.workloads = (args.workloads.split(",") if args.workloads
                      else [w["name"] for w in spec["workloads"]])
    if args.pair:
        pairs(args)
    else:
        steadiness(args, spec)


if __name__ == "__main__":
    main()
