#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench (and the paralagg library it links) from source into
.bench_build/perfbench under the repository root, runs one workload, prints
every metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Usage, from the repository root:

    python3 perfbench/run.py --workload sssp-twitter --seed 1 --seconds 10 --trace 0

Exits nonzero, without a result line, when the build fails, and with
"correct": false when any answer is wrong or any operation failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit("perfbench: unknown workload " + args.workload)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: no output (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    meta = dict(raw["meta"], git_sha=git_sha())
    if meta.get("build_type") != "Release":
        meta["build_warning"] = "non-Release build: timings are not comparable"
    for key in sorted(meta):
        print("meta %-34s %s" % (key, meta[key]))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(raw["metrics"]):
        if name in units:
            print("metric %-34s %.6g %s" % (name, raw["metrics"][name], units[name]))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not args.trace and not (value is not None and value > 0):
            raise SystemExit("perfbench: end-to-end metric %s was not measured" % m["name"])
        if value is None:
            value = 0  # layer not on this workload's path (see METRICS.md)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if proc.returncode == 0 and raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
