#!/usr/bin/env python3
"""Folds fresh google-benchmark JSON runs into the checked-in BENCH files.

Each run's context.executable names the file it belongs to:

  micro_lp               -> BENCH_lp.json   per-window LP re-solve cost
  micro_sim, micro_flow  -> BENCH_sim.json  event engine, sharded scenario
                                            runner and NAT flow tables

Runs bound for one file concatenate (micro_sim and micro_flow share its
section); the file's context is taken from the first of them. Each file keeps
two sections side by side: a frozen 'baseline' from before an engine change
(the explicit-bound-row LP engine, the priority-queue event engine) and
'current', refreshed by SHAREGRID_CI_QUICK_BENCH=1 tools/ci.sh.

Timings on a shared host swing from run to run, so each run must repeat its
benchmarks (--benchmark_repetitions=N, with
--benchmark_report_aggregates_only=true keeping the output to the
aggregates): every benchmark is recorded as its median aggregate under its
run_name, and the context records N as 'repetitions'. A run without median
aggregates is refused.

Every fresh run must name the build it timed: the micro_* programs add
build_type (CMAKE_BUILD_TYPE) and cpu_model to their context
(bench/micro_main.cpp), and a run that lacks build_type or names a build
other than RelWithDebInfo or Release is refused before anything is written.
context.library_build_type cannot serve: it describes the installed
google-benchmark library and reads "debug" from any build of sharegrid.

Two gates run on every file before any file is written; if either trips, the
script exits 1 and leaves every BENCH file untouched:

  coverage   every benchmark already recorded in the target section must
             appear in the fresh runs, so a renamed benchmark, an over-narrow
             --benchmark_filter or a crashed binary cannot silently drop a
             measurement from the checked-in history.
  warm hits  BENCH_lp.json's 'current' section only. The warm-start
             benchmarks label themselves "W/S warm solves"; a fresh run that
             warm-starts a smaller fraction of its solves than the baseline
             or the previous current section (beyond a small slack) means the
             warm path is silently falling back to cold solves and the
             headline numbers are lying.

Usage: tools/update_bench.py FRESH_JSON... [--section current|baseline]
"""
import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Benchmark program -> the file that records its runs.
TARGETS = {
    "micro_lp": "BENCH_lp.json",
    "micro_sim": "BENCH_sim.json",
    "micro_flow": "BENCH_sim.json",
}

# The comment a file starts with when it does not exist yet.
COMMENTS = {
    "BENCH_lp.json":
        "Per-window LP re-solve cost, before (explicit bound rows) and after "
        "(bounded-variable simplex, implicit bounds); see "
        "docs/lp-performance.md",
    "BENCH_sim.json":
        "Simulator event-engine throughput, before (priority-queue engine) "
        "and after (hierarchical timing wheel); see docs/sim-performance.md",
}

KEEP_CONTEXT = ("date", "host_name", "cpu_model", "num_cpus", "mhz_per_cpu",
                "cpu_scaling_enabled", "build_type", "library_build_type")
# The aggregate each benchmark is recorded as.
RECORDED_AGGREGATE = "median"
# Builds whose timings may be recorded.
TIMED_BUILDS = ("RelWithDebInfo", "Release")
# micro_lp's "label" carries the warm-hit counters ("3528/3584 warm solves")
# and the row counts; dropping it would blind the warm-hit gate (google-
# benchmark keeps a label on the aggregates when every repetition printed
# the same one). The simulator benches report items_per_second instead. The
# recorded name is the aggregate's run_name, without its "_median" suffix;
# an aggregate's "iterations" counts repetitions, which the context records.
KEEP_BENCH = ("real_time", "cpu_time", "time_unit", "items_per_second",
              "label")

# A fresh warm-hit rate may fall this far below a recorded one before the
# gate trips (the counters are deterministic, but refresh cadence can shift
# the ratio by a solve or two at short benchmark runs).
RATE_SLACK = 0.02

WARM_LABEL = re.compile(r"(\d+)/(\d+) warm solves")


def fail(message):
    raise SystemExit(f"update_bench: {message}")


def target_of(raw, path):
    """The BENCH file a run belongs to, from its context.executable."""
    executable = raw["context"].get("executable")
    if executable is None:
        fail(f"{path}: context has no 'executable'; cannot tell which BENCH "
             "file the run belongs to")
    name = pathlib.PurePath(executable).name
    if name not in TARGETS:
        fail(f"{path}: runs of '{name}' are recorded in no BENCH file "
             f"(known programs: {', '.join(sorted(TARGETS))})")
    return TARGETS[name]


def condense(raw, path):
    """Keeps just the fields a before/after comparison needs."""
    for key in ("context", "benchmarks"):
        if key not in raw:
            fail(f"{path}: no '{key}' section — is this really the "
                 "--benchmark_out of a bench/micro_* program?")
    build = raw["context"].get("build_type")
    if build not in TIMED_BUILDS:
        named = ("names no build type" if build is None
                 else f"names build type {build!r}")
        fail(f"{path}: the run {named}; only "
             f"{' or '.join(TIMED_BUILDS)} builds are recorded (rebuild the "
             "bench/micro_* programs, which report their own build type)")
    medians = [b for b in raw["benchmarks"]
               if b.get("aggregate_name") == RECORDED_AGGREGATE]
    if not medians:
        fail(f"{path}: the run has no {RECORDED_AGGREGATE} aggregates; run "
             "it with --benchmark_repetitions=N (N > 1) so that one noisy "
             "repetition cannot become the recorded figure")
    nameless = sum(1 for b in medians if "run_name" not in b)
    if nameless:
        fail(f"{path}: {nameless} benchmark entr"
             f"{'y' if nameless == 1 else 'ies'} carry no 'run_name' field; "
             "refusing to fold an unattributable run")
    context = {k: raw["context"][k]
               for k in KEEP_CONTEXT if k in raw["context"]}
    context["repetitions"] = medians[0]["repetitions"]
    return {
        "context": context,
        "benchmarks": [{"name": b["run_name"],
                        **{k: b[k] for k in KEEP_BENCH if k in b}}
                       for b in medians],
    }


def check_coverage(fresh, reference, section):
    """Every benchmark recorded in the checked-in section must be present in
    the fresh runs. Returns a list of messages naming each absent entry."""
    fresh_names = {b["name"] for b in fresh.get("benchmarks", [])}
    problems = []
    for b in reference.get("benchmarks", []):
        name = b.get("name")
        if name is not None and name not in fresh_names:
            problems.append(
                f"benchmark '{name}' is recorded in the checked-in "
                f"'{section}' section but absent from the fresh runs — "
                "run the benches unfiltered or drop the entry on purpose")
    return problems


def warm_rates(section):
    """name -> warm_solves / solves for benchmarks carrying the warm label."""
    rates = {}
    for b in section.get("benchmarks", []):
        m = WARM_LABEL.fullmatch(b.get("label", ""))
        if m and int(m.group(2)) > 0:
            rates[b["name"]] = int(m.group(1)) / int(m.group(2))
    return rates


def check_warm_rate(fresh, reference):
    """Returns a list of regression messages (empty when the gate passes)."""
    ref_rates = warm_rates(reference)
    problems = []
    for name, rate in warm_rates(fresh).items():
        ref = ref_rates.get(name)
        if ref is not None and rate < ref - RATE_SLACK:
            problems.append(
                f"{name}: warm-hit rate {rate:.3f} regressed below the "
                f"checked-in {ref:.3f} (slack {RATE_SLACK})")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=pathlib.Path, nargs="+")
    parser.add_argument("--section", default="current",
                        choices=("current", "baseline"))
    args = parser.parse_args()

    fresh_by_file = {}
    for path in args.fresh:
        with open(path) as f:
            raw = json.load(f)
        part = condense(raw, path)
        target = target_of(raw, path)
        if target in fresh_by_file:
            fresh_by_file[target]["benchmarks"] += part["benchmarks"]
        else:
            fresh_by_file[target] = part

    docs = {}
    problems = []
    for target, fresh in fresh_by_file.items():
        bench = REPO / target
        doc = {}
        if bench.exists():
            with open(bench) as f:
                doc = json.load(f)
        doc.setdefault("comment", COMMENTS[target])
        if args.section in doc:
            problems += [f"{target}: {p}" for p in check_coverage(
                fresh, doc[args.section], args.section)]
        if target == "BENCH_lp.json" and args.section == "current":
            # Gate against the frozen baseline *and* the previous current
            # section: the baseline predates the larger problem sizes, so
            # without the second check their rates would never be gated.
            for reference in ("baseline", "current"):
                if reference in doc:
                    problems += [f"{target}: {p}" for p in check_warm_rate(
                        fresh, doc[reference])]
        doc[args.section] = fresh
        docs[target] = doc
    if problems:
        for p in problems:
            print(f"update_bench: {p}", file=sys.stderr)
        return 1

    for target, doc in docs.items():
        with open(REPO / target, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"updated {target} section '{args.section}' "
              f"({len(doc[args.section]['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
