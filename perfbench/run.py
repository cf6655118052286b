#!/usr/bin/env python3
"""Wall-clock benchmark of bitdec_server and the low-bit decode path.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chat --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which pulls in the repository's own CMake build) into
.bench_build/perfbench, runs the helper self-test, then one measured run
of the chosen workload. Everything the run prints goes to stdout; the
last line is one JSON object with the keys correct, attempted, failed and
metrics (BENCHMARK.json's end_to_end metrics untraced, its per_layer
metrics traced). The exit status is 0 only when the build, the self-test
and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no repository sources next to perfbench/ (looked in {ROOT})")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench", "perfbench_selftest", "bitdec_server"]
    )
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["chat", "rag", "longctx"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    selftest = subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest"), "--gtest_brief=1"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if selftest.returncode != 0:
        fail("helper self-test failed")

    out_dir = os.path.join(build_dir, "spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        "--server=" + os.path.join(build_dir, "bitdec", "bitdec_server"),
        f"--out-dir={out_dir}",
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)

    # The result line must carry exactly the metrics BENCHMARK.json names.
    result = json.loads(run.stdout.strip().splitlines()[-1])
    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
            sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
