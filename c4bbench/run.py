#!/usr/bin/env python3
"""Builds the c4b benchmark program from source and runs one workload.

    python3 c4bbench/run.py --workload table3|service_edit \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
the library and c4b_perf into .bench_build (Release); later runs only
rebuild what changed.  Build output goes to stderr.  The last line of
stdout is the JSON result: c4b_perf's values for the metrics
BENCHMARK.json lists (end-to-end with --trace 0, per-layer with --trace 1),
each with its unit from there.  Exits non-zero, printing no result, when
the build or c4b_perf fails or the metric names do not match.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "c4b_perf")
WORKLOADS = ("table3", "service_edit")
# A run's own limit is 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("c4bbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no c4b sources under %s/src; run from a c4b checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", BUILD, "--target", "c4b_perf",
               "--parallel", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--expected", os.path.join(HERE, "expected_bounds.txt"),
           "--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload),
           # Relative: a unix socket path is capped at ~107 bytes.
           "--socket", os.path.join(".bench_build", "c4b-%d.sock" % os.getpid())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("c4b_perf did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(proc.stdout)
        fail("c4b_perf failed with exit code %d" % proc.returncode)
    raw = json.loads(lines[-1])
    result = {k: raw[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics(raw["values"], args.trace == "1")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()


def metrics(values, trace):
    """Attaches BENCHMARK.json's units to c4b_perf's values.  Every value
    must be a listed metric, and every end-to-end metric must be present;
    a per-layer metric the workload does not exercise reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in spec}
    if unknown:
        fail("c4b_perf reported metrics BENCHMARK.json does not list: %s"
             % ", ".join(sorted(unknown)))
    out = {}
    for m in spec:
        if m["name"] not in values and not trace:
            fail("c4b_perf did not report %s" % m["name"])
        out[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return out


if __name__ == "__main__":
    main()
