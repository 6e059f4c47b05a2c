// Benchmark program: runs one workload and prints its results as lines that
// perfbench/run.py turns into the final JSON record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Output lines (tab-separated):
//   build   <key> <value>                   build facts the guard checked
//   metric  <name> <value> <unit> <samples>
//   check   <ok|FAIL> <description>
//   note    <text>
//   result  <attempted> <failed>
// Exit codes: 0 ran (checks may still have failed), 2 bad arguments,
// 3 refused build (debug, audit or sanitizer), 4 the workload threw.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench_common.hpp"
#include "workloads.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef SHAREGRID_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef __SANITIZE_ADDRESS__
constexpr const char* kSanitizer = "asan";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "tsan";
#else
constexpr const char* kSanitizer = "";
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <cluster_l4|many_principals|live_l7|"
               "socket_fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.trace_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value == "1";
      else if (key == "--trace-dir") options.trace_dir = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  std::printf("build\tbuild_type\t%s\n", PERFBENCH_BUILD_TYPE);
  std::printf("build\tcompiler\t%s\n", PERFBENCH_COMPILER);
  std::printf("build\tSHAREGRID_AUDIT\t%s\n", kAudit ? "ON" : "OFF");
  std::printf("build\tSHAREGRID_SANITIZE\t%s\n", kSanitizer);
  std::printf("build\toptimized\t%s\n", kOptimized ? "yes" : "no");
  if (kSanitized || kAudit || !kOptimized) {
    std::fflush(stdout);
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a debug, audit or "
                 "sanitizer build\n");
    return 3;
  }

  perfbench::Report report;
  try {
    if (options.workload == "cluster_l4") report = perfbench::run_cluster_l4(options);
    else if (options.workload == "many_principals")
      report = perfbench::run_many_principals(options);
    else if (options.workload == "live_l7") report = perfbench::run_live_l7(options);
    else if (options.workload == "socket_fleet")
      report = perfbench::run_socket_fleet(options);
    else return usage();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 4;
  }

  for (const auto& m : report.metrics)
    std::printf("metric\t%s\t%.17g\t%s\t%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  for (const auto& [name, ok] : report.checks)
    std::printf("check\t%s\t%s\n", ok ? "ok" : "FAIL", name.c_str());
  for (const auto& note : report.notes) std::printf("note\t%s\n", note.c_str());
  std::printf("result\t%llu\t%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  return 0;
}
