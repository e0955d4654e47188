#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the program from src/) into $CARGO_TARGET_DIR
(default .bench_build); later calls reuse the build. Each call runs the
benchmark's self-tests, then the requested workload, and echoes its output.
The last line of standard output is the run's JSON result. Exits non-zero,
without printing a result, when the build, the self-tests or the run fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                fail("configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", build_dir, "--target",
                            "cirank_perfbench", "-j", jobs],
                           stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(build_dir, "cirank_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)

    selftest = subprocess.run([binary, "--selftest"], capture_output=True,
                              text=True, timeout=120)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("self-tests failed")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, "trace_%s.json" % args.workload)]
    # The server's slow-query log goes to stderr; keep it beside the build.
    with open(os.path.join(build_dir, "last_run.stderr"), "w") as err:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=err,
                             text=True, timeout=170)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("run failed (exit %d)" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1][:200])
    if set(result) != RESULT_KEYS or not result["metrics"]:
        fail("malformed result: " + lines[-1][:200])
    sys.stdout.write(run.stdout if run.stdout.endswith("\n")
                     else run.stdout + "\n")


if __name__ == "__main__":
    main()
