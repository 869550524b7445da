#!/usr/bin/env python3
"""Determinism self-test of the layered benchmark.

    python3 perfbench/test_determinism.py

Builds the benchmark (see run.py), then makes three short traced runs:
two at one seed and one at another. It passes when the two same-seed
runs generate the identical operation stream and tree shapes and report
identical counts, and the other seed changes the tree shapes. Only
counts that pass this test may back a claim.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

# Counters that must repeat exactly at one seed, as the per-layer
# metrics report them and as the determinism line records them.
COUNT_METRICS = ("ilp.branch_nodes", "synth.cegis_rounds",
                 "runtime.segment_kernels", "incr.rules_checked")


def traced_run(binary, seed):
    args = argparse.Namespace(workload="serve_mix", seed=seed, seconds=1,
                              trace=1)
    code, lines = bench.run_binary(binary, args)
    if code != 0:
        sys.exit("run at seed %d failed with exit %d" % (seed, code))
    determinism = next(json.loads(line)["determinism"] for line in lines
                       if line.startswith('{"determinism"'))
    metrics = json.loads(lines[-1])["metrics"]
    return determinism, {name: metrics[name]["value"] for name in COUNT_METRICS}


def main():
    binary = bench.build()
    first, first_counts = traced_run(binary, 7)
    second, second_counts = traced_run(binary, 7)
    other, _ = traced_run(binary, 8)

    checks = [
        ("same seed, same op stream", first["ops"] == second["ops"]),
        ("same seed, same tree shapes", first["shapes"] == second["shapes"]),
        ("same seed, same recorded counts",
         first["counts"] == second["counts"] and len(first["counts"]) >= 5),
        ("same seed, same count metrics", first_counts == second_counts),
        ("other seed, other op stream", first["ops"] != other["ops"]),
        ("other seed, other tree shapes", first["shapes"] != other["shapes"]),
    ]
    for name, ok in checks:
        print("%s: %s" % ("PASS" if ok else "FAIL", name))
    print("counts:", json.dumps(first_counts, sort_keys=True))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
