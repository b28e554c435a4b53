#!/usr/bin/env bash
# The whole CI surface in one command, in severity order:
#   1. tier-1: Release build + full ctest suite
#   2. observability endpoint smoke: scrape a live --serve-obs run over TCP
#      (/healthz readiness + monotone Prometheus /metrics + /trace host track)
#   3. sanitizers: thread (the sweep pool, parallel kernels and concurrent
#      telemetry primitives), address (leak check proves the runtime's
#      pools and depot release every action), undefined (every UB report
#      fatal)
#   4. native kernel leg (-O3 -march=native numerics stay bit-stable)
#   5. static analysis (clang-tidy, or the strict -Werror fallback)
#   6. performance lint: every app + hbench pattern under `mstream_cli lint`,
#      failing on findings outside scripts/lint_waivers.txt (JSON reports
#      in <prefix>/lint-reports/)
#   7. bench-regression smoke (report-only: fresh medians vs BENCH_*.json)
#
#   scripts/ci_all.sh [build-dir-prefix]
set -euo pipefail

PREFIX="${1:-build-ci}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "==> tier-1 build + ctest"
cmake -S "${SOURCE_DIR}" -B "${PREFIX}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${PREFIX}" -j
ctest --test-dir "${PREFIX}" --output-on-failure -j "$(nproc)"

echo "==> observability endpoint smoke (--serve-obs)"
"${SOURCE_DIR}/scripts/ci_obs_smoke.sh" "${PREFIX}"

for san in thread address undefined; do
  echo "==> sanitize: ${san}"
  "${SOURCE_DIR}/scripts/ci_sanitize.sh" "${san}" "${PREFIX}-${san}san"
done

echo "==> native kernels"
"${SOURCE_DIR}/scripts/ci_native.sh" "${PREFIX}-native"

echo "==> static analysis"
"${SOURCE_DIR}/scripts/ci_tidy.sh" "${PREFIX}-tidy"

echo "==> performance lint (apps + hbench)"
"${SOURCE_DIR}/scripts/ci_lint.sh" "${PREFIX}"

echo "==> bench regression smoke (report-only)"
"${SOURCE_DIR}/scripts/ci_bench_regress.sh" "${PREFIX}"

echo "ci_all: OK"
