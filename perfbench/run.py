#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from source, runs one
workload, prints every metric by name with its unit (and sample count for
percentiles), and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 perfbench/run.py --workload cluster_l4 --seed 1 --seconds 10 --trace 0

With --trace 0 the JSON holds BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics (a layer the workload does not use reads 0).
Exits nonzero, without the JSON line, when the build fails, the program is
refused or crashes, or an output check fails (the JSON line is then printed
with correct=false and every attempted operation counted as failed).
See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cluster_l4", "many_principals", "live_l7", "socket_fleet")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark program; ninja makes a no-op rebuild cheap."""
    src = os.path.join(BENCH_DIR, "..", "src", "experiments", "scenario.hpp")
    if not os.path.isfile(src):
        fail("library sources (src/) not found next to perfbench/; run from "
             "the repository root", 2)
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def host_facts():
    facts = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "?",
             "cpu_mhz": "?"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and facts["cpu_model"] in ("?", "x86_64"):
                    facts["cpu_model"] = value.strip()
                if key == "cpu MHz" and facts["cpu_mhz"] == "?":
                    facts["cpu_mhz"] = value.strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        facts["commit"] = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        facts["commit"] = "unknown"
    return facts


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec() if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else None
    binary = build()
    if spec is None:
        fail("BENCHMARK.json not found at the repository root", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    for key, value in host_facts().items():
        print(f"host     {key} = {value}")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)

    metrics, checks, attempted, failed = {}, [], None, None
    for line in proc.stdout.splitlines():
        fields = line.split("\t")
        kind = fields[0]
        if kind == "build":
            print(f"build    {fields[1]} = {fields[2] if len(fields) > 2 else ''}")
        elif kind == "metric":
            name, value, unit, samples = fields[1], float(fields[2]), fields[3], int(fields[4])
            metrics[name] = {"value": value, "unit": unit}
            suffix = f"  (n={samples})" if samples else ""
            print(f"metric   {name} = {value:.6g} {unit}{suffix}")
        elif kind == "check":
            checks.append((fields[1] == "ok", fields[2]))
            print(f"check    {fields[1]:4} {fields[2]}")
        elif kind == "note":
            print(f"note     {fields[1]}")
        elif kind == "result":
            attempted, failed = int(fields[1]), int(fields[2])

    if proc.returncode != 0 or attempted is None:
        # A crashed or refused run is a failed run, never a fast one.
        fail(f"workload {args.workload} exited with code {proc.returncode}")

    known = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
    printed_only = {"failed_pct", "agreement_violation_pct", "decisions_per_s",
                    "request_p50_us", "request_p99_us", "round_p50_us",
                    "round_p99_us", "trace.untraced_round_p50_us",
                    "trace.traced_round_p50_us"}
    unknown = sorted(set(metrics) - known - printed_only)
    if unknown:
        fail(f"the benchmark program reported metrics BENCHMARK.json does not name: {unknown}")

    result_metrics = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            result_metrics[name] = {"value": metrics[name]["value"], "unit": m["unit"]}
        elif args.trace:
            # A layer this workload never calls: nothing ran, nothing to time.
            print(f"metric   {name} = 0 {m['unit']}  (layer not used by {args.workload})")
            result_metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail(f"workload {args.workload} did not report {name}")

    correct = bool(checks) and all(ok for ok, _ in checks) and attempted >= 1
    if not correct:
        failed = max(attempted, 1)
    print(f"result   attempted = {attempted}, failed = {failed}, "
          f"failed_pct = {100.0 * failed / max(attempted, 1):.4g} %")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": result_metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
