#!/usr/bin/env python3
"""Builds replibench from the enclosing source tree and runs one workload.

    python3 bench/replibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/replibench
(default .bench_build/replibench). --trace 0 runs the untraced binary and
reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced
binary and reports the per-layer metrics. The binary's own report is passed
through; the last stdout line is the JSON result, checked against the
manifest. Exits non-zero, without a result line, when the source tree or
the build is missing, and non-zero when any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"replibench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no replidb source tree under {ROOT}")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "replibench", "replibench_traced"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "replibench")
    build(build_dir)

    binary = os.path.join(build_dir,
                          "replibench_traced" if args.trace else "replibench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no result line (exit code {proc.returncode})")
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the result")
    result["metrics"] = {m["name"]: got[m["name"]] for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
