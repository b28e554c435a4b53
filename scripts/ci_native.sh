#!/usr/bin/env bash
# MS_NATIVE CI leg: build with -O3 -march=native scoped to the kernel
# library and prove the determinism contract holds under the widest ISA the
# host offers (vectorized code must still be bit-identical across thread
# counts and to the scalar oracles), check the pinned mm/cf/lu checksums
# (test_apps PinnedChecksum.*, whose sizes run every dense tile fringe) and
# the golden virtual times and checksums (ctest cli_golden_*) in this build
# flavour too, then smoke the kernel benchmark suite.
#
#   scripts/ci_native.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-native}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DMS_NATIVE=ON
cmake --build "${BUILD_DIR}" -j --target test_kern test_apps bench_kernels mstream_cli

"${BUILD_DIR}/tests/test_kern"
"${BUILD_DIR}/tests/test_apps" --gtest_filter='PinnedChecksum.*'
ctest --test-dir "${BUILD_DIR}" -R '^cli_golden_' --output-on-failure
"${BUILD_DIR}/bench/bench_kernels" --benchmark_list_tests > /dev/null

echo "ci_native: OK"
