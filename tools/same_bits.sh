#!/usr/bin/env bash
# Same-bits check between two builds: runs every figure, ablation and sweep
# bench (bench/{fig,abl_,sweep_}*), the six deterministic example programs
# (quickstart, community_sharing, provider_income, hierarchical_asp,
# failover, cdn_federation) and run_scenario_file on every example scenario
# (examples/scenarios/*.ini, million_clients.ini included) from both build
# directories and compares their stdout byte for byte. Exits 0 when every
# output and exit status matches, 1 on any difference, 2 on a usage error
# or a missing program. live_l7_demo (it reads the clock) and
# multi_process_demo (it forks) are left out.
#
#   tools/same_bits.sh BUILD_A BUILD_B
#
# Typical use: BUILD_A is a build of the parent commit (git archive it into
# a scratch directory and build there), BUILD_B the build of the change,
# both with the same build type. Scenario files a build refuses (the socket
# scenario needs several processes) still compare: both builds must refuse
# them the same way. The programs run one at a time; million_clients.ini
# takes about 25 s and 1 GB per build on a 4-core Xeon.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
BUILD_A="$(cd "$1" && pwd)" || exit 2
BUILD_B="$(cd "$2" && pwd)" || exit 2
cd "$(dirname "$0")/.."

OUT="$(mktemp -d)"
trap 'rm -rf -- "${OUT}"' EXIT

checked=0
differ=0

# compare NAME PROGRAM [ARGS...]: PROGRAM is relative to a build directory.
compare() {
  local name="$1" program="$2"
  shift 2
  local a="${BUILD_A}/${program}" b="${BUILD_B}/${program}"
  if [[ ! -x "${a}" || ! -x "${b}" ]]; then
    echo "missing: ${program} (build bench/ and examples/ in both builds)" >&2
    exit 2
  fi
  "${a}" "$@" > "${OUT}/a" 2> /dev/null
  local status_a=$?
  "${b}" "$@" > "${OUT}/b" 2> /dev/null
  local status_b=$?
  checked=$((checked + 1))
  if [[ ${status_a} -ne ${status_b} ]] || ! cmp -s "${OUT}/a" "${OUT}/b"; then
    differ=$((differ + 1))
    echo "DIFF  ${name} (exit ${status_a} vs ${status_b})"
    diff "${OUT}/a" "${OUT}/b" | head -n 20
  else
    echo "same  ${name} (exit ${status_a})"
  fi
}

shopt -s nullglob
benches=()
for path in "${BUILD_A}"/bench/fig* "${BUILD_A}"/bench/abl_* \
            "${BUILD_A}"/bench/sweep_*; do
  [[ -x "${path}" && -f "${path}" ]] && benches+=("bench/$(basename "${path}")")
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no bench programs in ${BUILD_A}/bench" >&2
  exit 2
fi
for bench in "${benches[@]}"; do
  compare "${bench}" "${bench}"
done
for example in quickstart community_sharing provider_income \
               hierarchical_asp failover cdn_federation; do
  compare "examples/${example}" "examples/${example}"
done
for scenario in examples/scenarios/*.ini; do
  compare "run_scenario_file ${scenario}" examples/run_scenario_file \
    "${scenario}"
done

echo "${checked} outputs compared, ${differ} differ"
[[ ${differ} -eq 0 ]]
