#!/usr/bin/env python3
"""CampusLab benchmark entry point.

Builds the library and the benchmark program from source into
.bench_build/ at the checkout root (Release, 4 make jobs), then runs one
workload in a single process:

    python3 perfbench/run.py --workload fig1_cycle --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics and writes a Chrome trace-event JSON file under
.bench_out/. The last line of standard output is the JSON result.

    python3 perfbench/run.py --check-wiring

builds and runs the wiring test (benchmark data path vs
testbed::Testbed). Build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fig1_cycle", "tap_replay", "store_query", "cluster_query")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/; "
             "run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-wiring", action="store_true")
    args = ap.parse_args()

    if args.check_wiring:
        code, out = run([build("perfbench_wiring_test")])
        sys.stdout.write(out)
        sys.exit(code)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 1 or args.seconds <= 0:
        ap.error("--seed must be >= 1 and --seconds > 0")

    binary = build("perfbench")
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", repr(args.seconds),
                     "--trace", str(args.trace), "--out-dir", OUT])
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(out)
        fail("benchmark printed no result (exit code %d)" % code)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
