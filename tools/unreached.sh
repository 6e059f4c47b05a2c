#!/usr/bin/env bash
# Lists the library functions that no program reaches: CONTRIBUTING.md's
# "Finding code that only tests reach" check as one command. Builds every
# bench, example and tool program and perfbench into BUILD_DIR with unused
# sections dropped at link time, then prints each sharegrid:: function that
# the libraries define and no program keeps, one a line.
#
#   tools/unreached.sh BUILD_DIR
#
# BUILD_DIR is a build of its own (RelWithDebInfo, -ffunction-sections
# -fdata-sections, --gc-sections): do not point it at a build you test.
# audit:: functions show up because this build compiles the audit hooks out.
# A function the compiler inlined everywhere is missing from both lists, so
# header-only members and settings that no program sets need a grep instead.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
mkdir -p "$1"
BUILD="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."

gc=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
mapfile -t programs < <(sed -n 's/^sharegrid_[a-z_]*(\([a-z0-9_]*\))$/\1/p' \
  bench/CMakeLists.txt examples/CMakeLists.txt)
{
  cmake -B "${BUILD}" -G Ninja "${gc[@]}"
  cmake --build "${BUILD}" --target make_report "${programs[@]}"
  cmake -S perfbench -B "${BUILD}/perf" -G Ninja "${gc[@]}"
  cmake --build "${BUILD}/perf"
} >&2

fns() {  # sharegrid:: functions defined in the given files, one a line
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; print substr($0, 3) }' |
    grep '^sharegrid::' | sort -u
}
kept=("${BUILD}/tools/make_report" "${BUILD}/perf/perfbench")
for program in "${programs[@]}"; do
  if [[ -f "${BUILD}/bench/${program}" ]]; then
    kept+=("${BUILD}/bench/${program}")
  else
    kept+=("${BUILD}/examples/${program}")
  fi
done
comm -23 <(fns "${BUILD}"/src/*/lib*.a) <(fns "${kept[@]}")
