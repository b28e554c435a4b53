#!/usr/bin/env bash
# Sanitizer CI leg: build the library + tests with MS_SANITIZE and run the
# suites exercising the thread pool, the pooled runtime hot path, and the
# hazard analyzer. Defaults to ThreadSanitizer, which is what the
# multithreaded sweep engine needs; pass "address" for an ASan run (leak
# detection on — this is what proves every context releases its pooled
# actions) or "undefined" for UBSan with every report fatal.
#
#   scripts/ci_sanitize.sh [thread|address|undefined] [build-dir]
set -euo pipefail

SANITIZER="${1:-thread}"
BUILD_DIR="${2:-build-${SANITIZER}san}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

case "${SANITIZER}" in
  thread|address|undefined) ;;
  *)
    echo "usage: $0 [thread|address|undefined] [build-dir]" >&2
    exit 2
    ;;
esac

TARGETS=(test_sim test_rt test_kern test_model test_trace test_telemetry test_analyze test_apps
         test_integration test_capi)

cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMS_SANITIZE="${SANITIZER}"
cmake --build "${BUILD_DIR}" -j --target "${TARGETS[@]}" mstream_cli

# Fail on any sanitizer report even when the test itself would pass.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}"

# test_sim/test_rt/test_kern: sweep thread pool, pooled runtime, parallel
# kernel engine, and concurrent graph-cache access under the race detector.
# test_model/test_trace: analytic + timeline layers. test_telemetry:
# the concurrent metric primitives and span rings under the race detector.
# test_analyze: the hazard analyzer and linter behind analyze::Capture,
# including a pooled tuner search with one Capture per worker thread.
# test_apps: the ported apps across the Direct and Compiled graph modes,
# including plans shared through the process graph cache, and the pinned
# mm/cf/lu checksums (PinnedChecksum.*), whose sizes run every fringe of
# the vectorized dense tile kernels under ASan (address) and UBSan
# (undefined).
# test_integration: paper claims end to end, and the passivity harness, the
# suite's one identity oracle: its pool-placement knob runs registry apps
# and random DAGs as two concurrent sweep jobs, each under its own Capture,
# while another thread scrapes a live ObsServer.
# test_capi: the flat C API, an external input surface (range resolution
# of caller-supplied pointers and sizes).
for t in "${TARGETS[@]}"; do
  "${BUILD_DIR}/tests/${t}"
done
# The golden virtual times and checksums (traces and the reproduce --quick
# tables) must not depend on the build flavour either.
ctest --test-dir "${BUILD_DIR}" -R '^cli_golden_' --output-on-failure

echo "ci_sanitize(${SANITIZER}): OK"
