#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

    python3 perfbench/run.py --workload synth_fresh|oneshot_1m|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release binary under .bench_build/perfbench (a few minutes); later runs
only check that it is up to date. The binary's output is passed
through: a stamp line, a determinism line, the stage ledgers (traced
runs) and, last, the result object. The exit code is the binary's: 0
when every operation matched its reference, non-zero otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hecate_perfbench")
WORKLOADS = ("synth_fresh", "oneshot_1m", "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """A digest of every file the binary is built from."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def revision():
    """The git revision of the sources, or "none" outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def run_step(command, timeout):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("build step failed: %s" % error)
    if done.returncode != 0:
        fail("build step failed (exit %d): %s" % (done.returncode, " ".join(command)))


def build():
    """Configure (once) and build the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the hecate sources (src/CMakeLists.txt) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "hecate_perfbench"], BUILD_TIMEOUT_S)
    return BINARY


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the binary; returns (exit code, stdout lines)."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--revision", revision(), "--source-digest", source_digest()]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("run exceeded %d s" % timeout)
    return process.returncode, out.splitlines()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    binary = build()
    code, lines = run_binary(binary, args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: the binary printed no result (exit %d)" % code,
              file=sys.stderr)
        return code or 3
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
