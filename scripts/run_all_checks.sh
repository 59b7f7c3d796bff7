#!/usr/bin/env bash
# One-command verification sweep, in dependency order:
#
#   1. configure + build the default tree
#   2. tier-1 ctest suite
#   3. repository benchmark tests (flexbench/test_flexbench.py; the
#      benchmark compiles src/ itself, so a public name it still uses
#      and the library no longer has fails here)
#   4. sanitizer suites (ASan/UBSan tree, then TSan tree)
#   5. bench sweep (BENCH_*.json exports, stamped)
#   6. reaction-budget + solver-scaling verdict (check_budget.sh)
#
# Usage: scripts/run_all_checks.sh [build-dir]
#   build-dir  defaults to ./build (or FLEX_BUILD_DIR)
#
# Stage toggles (each skips its stage when set to 1):
#   FLEX_SKIP_SANITIZERS  skip stage 4 (both sanitizer trees)
#   FLEX_SKIP_TSAN        keep ASan/UBSan, skip only the TSan half
#   FLEX_SKIP_BENCHES     skip stages 5 and 6
#
# Exit status: non-zero on the first failing stage (set -e), so CI can
# run this script as the single gate.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${FLEX_BUILD_DIR:-${repo_root}/build}}"

echo "=== run_all_checks [1/6]: configure + build (${build_dir}) ==="
cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j"$(nproc)"

echo "=== run_all_checks [2/6]: tier-1 ctest ==="
(cd "${build_dir}" && ctest --output-on-failure -j"$(nproc)")

echo "=== run_all_checks [3/6]: repository benchmark tests ==="
python3 "${repo_root}/flexbench/test_flexbench.py"

if [[ "${FLEX_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "=== run_all_checks [4/6]: SKIPPED (FLEX_SKIP_SANITIZERS=1) ==="
else
  echo "=== run_all_checks [4/6]: sanitizer suites ==="
  "${repo_root}/scripts/run_sanitized_tests.sh"
fi

if [[ "${FLEX_SKIP_BENCHES:-0}" == "1" ]]; then
  echo "=== run_all_checks [5/6]: SKIPPED (FLEX_SKIP_BENCHES=1) ==="
  echo "=== run_all_checks [6/6]: SKIPPED (FLEX_SKIP_BENCHES=1) ==="
else
  echo "=== run_all_checks [5/6]: bench sweep ==="
  "${repo_root}/scripts/run_benches.sh" "${build_dir}"
  echo "=== run_all_checks [6/6]: reaction-budget verdict ==="
  "${repo_root}/scripts/check_budget.sh" "${build_dir}"
fi

echo "run_all_checks: all stages passed"
