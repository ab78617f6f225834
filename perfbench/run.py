#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (CMake, into .bench_build/perfbench) if
needed and runs one workload; the last line of standard output is the JSON
result. The exit code is the benchmark's: 0 only when every answer was
right and no engine call failed.

--selftest checks determinism on 3-second scripts: two runs with the same
seed must repeat the op counts, rows scanned, cluster messages and memory
metrics exactly, and a run with another seed must keep the script's shape
but change the data.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("ingest", "scan", "cluster")

# Fingerprint keys that depend only on the seed and the script, never on
# timing. The ingest reader runs on its own clock, so what it scans varies.
EXACT = {
    "ingest": ("ops", "loads", "refreshes", "live_rows", "live_sum",
               "history_bytes_per_row", "data_bytes_per_row"),
    "scan": ("cycles", "loads", "live_rows", "live_sum", "rows_scanned",
             "history_bytes_per_row", "data_bytes_per_row"),
    "cluster": ("ops", "loads", "refreshes", "live_rows", "live_sum",
                "rows_scanned", "rpc_msgs", "history_bytes_per_row",
                "data_bytes_per_row"),
}
SHAPE = ("ops", "cycles", "loads", "refreshes", "live_rows")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "cubrick", "database.h")):
        fail("engine sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(workload, seed, seconds, trace, capture=False):
    out_dir = os.path.join(BUILD, "out", workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", out_dir]
    if not capture:
        sys.stdout.flush()
        return subprocess.run(cmd).returncode, ""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def fingerprint(stdout):
    for line in stdout.splitlines():
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    return None


def selftest(seconds):
    ok = True
    for workload in WORKLOADS:
        prints = []
        for seed in (1, 1, 2):
            code, stdout = run(workload, seed, seconds, 0, capture=True)
            if code != 0:
                print(f"{workload}: seed {seed} run failed (exit {code})")
                ok = False
                break
            prints.append(fingerprint(stdout))
        if len(prints) < 3:
            continue
        a, b, other = prints
        for key in EXACT[workload]:
            if a[key] != b[key]:
                print(f"{workload}: {key} differs between same-seed runs: "
                      f"{a[key]} vs {b[key]}")
                ok = False
        for key in SHAPE:
            if key in a and a[key] != other[key]:
                print(f"{workload}: script shape {key} changed with the seed: "
                      f"{a[key]} vs {other[key]}")
                ok = False
        if a["live_sum"] == other["live_sum"]:
            print(f"{workload}: another seed produced the same data")
            ok = False
        print(f"{workload}: same seed {a}")
        print(f"{workload}: seed 2    {other}")
    print("selftest " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest(seconds=3)
    code, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
