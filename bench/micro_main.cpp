// main() of the micro_* benchmark programs: google-benchmark's own, with
// the build type and CPU model added to the run's context, so that a
// recorded run names the build and host it timed (tools/update_bench.py
// refuses a run without them). context.library_build_type cannot serve:
// it describes the installed google-benchmark library, not this build.
#include <cstddef>
#include <fstream>
#include <string>

#include <benchmark/benchmark.h>

namespace {

/// The first "model name" of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t", line.find(':') + 1);
    if (value != std::string::npos) return line.substr(value);
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("build_type", SHAREGRID_BUILD_TYPE);
  benchmark::AddCustomContext("cpu_model", cpu_model());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
