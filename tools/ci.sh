#!/usr/bin/env bash
# Pre-PR gate: warnings-as-errors build + tests, then the same suite under
# ASan/UBSan and TSan with the runtime invariant auditor compiled in.
# See docs/static-analysis.md. Usage:
#
#   tools/ci.sh                      # all stages
#   SHAREGRID_CI_SKIP_TSAN=1 tools/ci.sh   # skip the (slow) TSan stage
#   SHAREGRID_CI_SKIP_CLANG=1 tools/ci.sh  # skip the Clang -Wthread-safety stage
#   SHAREGRID_CI_QUICK_BENCH=1 tools/ci.sh # also refresh BENCH_{lp,sim}.json
#   SHAREGRID_CI_SKIP_PERFBENCH=1 tools/ci.sh  # skip the perfbench smoke runs
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${SHAREGRID_CI_JOBS:-$(nproc)}"

# Temp files registered here are removed on any exit, including a failing
# bench or python step aborting the script via `set -e` mid-stage.
TMP_FILES=()
cleanup() { ((${#TMP_FILES[@]})) && rm -f -- "${TMP_FILES[@]}"; return 0; }
trap cleanup EXIT

run_stage() {
  local preset="$1"
  echo
  echo "=== [${preset}] configure + build + ctest ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --preset "${preset}"
}

run_stage relwithdebinfo   # -Werror + sharegrid_analyze + figure shapes

# Cross-process control plane: fork a 3-redirector fleet over loopback TCP
# and require plan convergence (bitwise vs InProcessTransport), then the
# churn phases — a leaf killed and RESTARTED (the root must prune it and
# re-admit the higher-incarnation restart at a round boundary) and the root
# killed (the survivors must elect the lowest live member and resume rounds
# with monotone tags). ctest already runs the binary once; rerunning it
# standalone keeps the multi-process stage visible in the CI log and gates
# directly on its exit code.
echo
echo "=== [multi-process] 3-process loopback fleet (coord::SocketTransport) ==="
./build-relwithdebinfo/examples/multi_process_demo \
  examples/scenarios/multi_process.ini

# Repository benchmark smoke: one short run of every BENCHMARK.json workload
# through the same command the benchmark uses. perfbench/run.py exits
# nonzero when the build fails or is refused, the program crashes, or an
# output check prints correct=false, so a broken benchmark shows here
# before a change lands rather than in the benchmark run after it. The
# traced run (--trace 1) also makes the checks only it makes: cluster_l4's
# 1-lane result equal to the N-lane result bit for bit, and socket_fleet's
# tracer keeping every span.
if [[ "${SHAREGRID_CI_SKIP_PERFBENCH:-0}" == "1" ]]; then
  echo "=== [perfbench] skipped (SHAREGRID_CI_SKIP_PERFBENCH=1) ==="
else
  echo
  echo "=== [perfbench] smoke run of every BENCHMARK.json workload ==="
  WORKLOADS="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in ${WORKLOADS}; do
    python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace 1
  done
fi

run_stage debug-asan       # ASan+UBSan, SHAREGRID_AUDIT=ON

# Clang thread-safety stage: the SHAREGRID_GUARDED_BY/REQUIRES/EXCLUDES
# annotations (util/thread_annotations.hpp) are no-ops under GCC, so only a
# Clang build actually checks the locking discipline. CMake adds
# -Wthread-safety to sharegrid_warnings whenever the compiler is Clang, so a
# plain warnings-as-errors build is the whole stage.
if [[ "${SHAREGRID_CI_SKIP_CLANG:-0}" == "1" ]]; then
  echo "=== [clang-thread-safety] skipped (SHAREGRID_CI_SKIP_CLANG=1) ==="
elif ! command -v clang++ >/dev/null 2>&1; then
  echo "=== [clang-thread-safety] FAILED: clang++ not found ===" >&2
  echo "Install clang to run the -Wthread-safety analysis, or set" >&2
  echo "SHAREGRID_CI_SKIP_CLANG=1 to acknowledge skipping it. The" >&2
  echo "annotations are unchecked under GCC, so skipping silently would" >&2
  echo "let locking-discipline regressions through." >&2
  exit 1
else
  echo
  echo "=== [clang-thread-safety] configure + build (clang++, -Wthread-safety) ==="
  cmake -B build-clang -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
  cmake --build build-clang -j "${JOBS}"
fi

if [[ "${SHAREGRID_CI_SKIP_TSAN:-0}" == "1" ]]; then
  echo "=== [debug-tsan] skipped (SHAREGRID_CI_SKIP_TSAN=1) ==="
else
  run_stage debug-tsan     # TSan, SHAREGRID_AUDIT=ON
  # The unified control plane is the other concurrency surface: the live
  # L7 service drives it through the mutex-guarded WallClockAdmission
  # facade, and the SocketTransport runs background receive threads feeding
  # a mutex-guarded inbox drained by poll(). Rerun the control-plane,
  # live-service, socket-transport, and TCP tests standalone under TSan so a
  # report can't hide in the big ctest log (docs/control-plane.md).
  echo "=== [debug-tsan] control plane + live drivers + socket transport ==="
  ./build-tsan/tests/sharegrid_tests \
    --gtest_filter='ControlPlane.*:ControlPlaneAudit.*:WallClockAdmission.*:L7Service.*:Tcp.*:SocketTransport.*:SocketTransportWire.*:SocketTransportAudit.*'
  # The sharded simulation engine runs cluster domains on its own lane
  # threads, which meet at one start std::barrier each epoch, take domains
  # off one shared atomic counter and count each domain they finish; the
  # caller waits on that count, not on the lanes — exactly the code TSan
  # exists for. Rerun the engine's tests (lane counts 1-8, lowest-domain
  # rethrow, shutdown after a throw), the star transport's 1- and 4-lane
  # delivery test and the cluster-partitioned scenario tests standalone;
  # the scenario tests also exercise the serial-as-oracle audit rerun
  # (SHAREGRID_AUDIT is ON in this build), so a racy lane would show up
  # both as a TSan report and as a bitwise divergence.
  echo "=== [debug-tsan] sharded simulation lanes ==="
  ./build-tsan/tests/sharegrid_tests \
    --gtest_filter='ShardedSimulator.*:ShardedStarTransport.*:ClusteredScenario.*'
  # Chaos stage: the forked fleet with a leaf kill + restart and a root
  # kill + election, under TSan. Session teardown is where the receive
  # threads, the inbox mutex, and poll() meet — abrupt process death
  # exercises exactly the shutdown/reclaim interleavings a clean run never
  # hits, and the audit hooks (single-root, lease monotone) are armed in
  # this build.
  echo "=== [debug-tsan] multi-process chaos (leaf restart + root election) ==="
  ./build-tsan/examples/multi_process_demo examples/scenarios/multi_process.ini
fi

# Opt-in: refresh the checked-in warm-vs-cold LP re-solve numbers (see
# docs/lp-performance.md) and the simulator numbers (docs/sim-performance.md).
# Off by default — benchmark timings on loaded CI machines are noise, so the
# stage only runs when explicitly requested. Single runs of one binary swing
# by tens of percent on a shared host, so every benchmark repeats
# BENCH_REPS times and update_bench.py records its median.
if [[ "${SHAREGRID_CI_QUICK_BENCH:-0}" == "1" ]]; then
  BENCH_REPS=5
  REPEAT=(--benchmark_repetitions="${BENCH_REPS}"
          --benchmark_report_aggregates_only=true)
  echo
  echo "=== [quick-bench] micro_lp warm-vs-cold re-solve ==="
  # Refreshes only the 'current' (implicit-bound engine) section of
  # BENCH_lp.json; the frozen explicit-bound-row 'baseline' section stays for
  # comparison. The unfiltered BM_LpResolve sweep includes the n = 64 and
  # n = 128 revised-simplex scaling points.
  LP_JSON="$(mktemp -t lp_bench.XXXXXX.json)"
  TMP_FILES+=("${LP_JSON}")
  ./build-relwithdebinfo/bench/micro_lp \
    --benchmark_filter='BM_LpResolve|BM_LpCold' "${REPEAT[@]}" \
    --benchmark_out="${LP_JSON}" --benchmark_out_format=json

  echo
  echo "=== [quick-bench] LP suite under ASan (eta-file audits armed) ==="
  # Timing numbers only count if the engine that produced them is clean:
  # rerun the LP-facing tests in the audit-enabled ASan build alongside the
  # bench refresh, so a refactorization or warm-path bug can't slip into
  # BENCH_lp.json on a machine that skipped the full debug-asan stage. The
  # StagedLp.* and IncomeScheduler.* suites drive every non-optimal verdict
  # through the schedulers' fallback rule with the eta-file audits armed.
  ./build-asan/tests/sharegrid_tests \
    --gtest_filter='Simplex.*:RevisedSimplex.*:SolveContext.*:Problem.*:AuditSimplex.*:SchedulerWarmStart.*:StagedLp.*:IncomeScheduler.*:Regression.*'

  echo
  echo "=== [quick-bench] micro_sim event-engine + sharded scenario ==="
  # Same split for BENCH_sim.json: 'current' is the timing wheel + sharded
  # runner + NAT connection table, the frozen priority-queue 'baseline'
  # section stays for comparison. The BM_Scenario filter picks up BM_ScenarioSharded
  # (1/2/4/8 lanes) alongside the classic L4/L7 points.
  SIM_JSON="$(mktemp -t sim_bench.XXXXXX.json)"
  TMP_FILES+=("${SIM_JSON}")
  ./build-relwithdebinfo/bench/micro_sim \
    --benchmark_filter='BM_Simulator|BM_Scenario' "${REPEAT[@]}" \
    --benchmark_out="${SIM_JSON}" --benchmark_out_format=json

  echo
  echo "=== [quick-bench] micro_flow NAT connection table ==="
  # The L4 redirector's table work per connection (first-use opens with no
  # index probe, then opens with their hint lookup, closes by id) is
  # recorded in the same section.
  FLOW_JSON="$(mktemp -t flow_bench.XXXXXX.json)"
  TMP_FILES+=("${FLOW_JSON}")
  ./build-relwithdebinfo/bench/micro_flow \
    --benchmark_filter='BM_ConnectionTable' "${REPEAT[@]}" \
    --benchmark_out="${FLOW_JSON}" --benchmark_out_format=json

  echo
  echo "=== [quick-bench] record BENCH_lp.json and BENCH_sim.json ==="
  # Each run goes to the file its program belongs to. update_bench.py fails
  # the stage, and writes neither file, if any recorded benchmark is missing
  # from the runs or a warm-hit rate regresses below the checked-in LP
  # sections (baseline *and* previous current).
  python3 tools/update_bench.py "${LP_JSON}" "${SIM_JSON}" "${FLOW_JSON}" \
    --section current
fi

echo
echo "ci.sh: all stages passed"
