#!/usr/bin/env python3
"""Benchmark entry point: build pgrid_perf from this checkout, run one workload.

    python3 perf/bench.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The harness is configured once into
.bench_build/perf (RelWithDebInfo) and rebuilt incrementally; build output
goes to stderr.  --trace 0 measures end-to-end metrics for --seconds (at
least MIN_REPS reps); --trace 1 runs the traced rep and the probe block and
writes its Chrome trace under out/perf/.  The last line of stdout is the
JSON result pgrid_perf prints; the exit code is pgrid_perf's (non-zero when
a correctness gate fails).
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perf")
BINARY = os.path.join(BUILD_DIR, "pgrid_perf")
MIN_REPS = 3


def fail(message):
    print(f"bench.py: {message}", file=sys.stderr)
    return 2


def build():
    """Configures (first run only) and builds pgrid_perf; True on success."""
    jobs = str(min(os.cpu_count() or 1, 4))
    # Keep the compiler's scratch files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perf", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "pgrid_perf"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "bench/bench_util.hpp",
                   "perf/CMakeLists.txt"):
        if not os.path.isfile(needed):
            return fail(f"{needed} not found; run from the repository root")
    if args.seed < 0 or args.seconds < 0:
        return fail("--seed and --seconds must be non-negative")
    if not build():
        return fail("building pgrid_perf failed")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--json"]
    if args.trace:
        command += ["--trace", "--out", os.path.join("out", "perf")]
    else:
        command += ["--reps", str(MIN_REPS), "--seconds", str(args.seconds)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
