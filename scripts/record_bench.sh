#!/usr/bin/env bash
# Record the microbenchmark suites (google-benchmark's JSON format,
# machine-diffable across commits) at the repo root:
#   bench_kernels   -> BENCH_KERNELS.json
#   bench_telemetry -> BENCH_TELEMETRY.json (metrics-off vs -on A/B)
#   bench_graph     -> BENCH_GRAPH.json (compiled replay launch, compile)
#   bench_simcore   -> BENCH_SIMCORE.json (engine/runtime host-cost baseline
#                      for the report-only CI regression smoke)
#
# Every suite runs 5 repetitions and records only the aggregates (mean,
# median, stddev, cv); the JSON context block stamps the CPU count, which
# ci_bench_regress.sh checks before comparing. The build directory is always
# (re)configured as Release, so a Debug or sanitizer tree is never recorded.
#
#   scripts/record_bench.sh [build-dir] [kernels-out.json] [telemetry-out.json] [graph-out.json] [simcore-out.json]
#
# Pass a build configured with -DMS_NATIVE=ON to record the full-ISA numbers.
set -euo pipefail

BUILD_DIR="${1:-build}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
KERNELS_OUT="${2:-${SOURCE_DIR}/BENCH_KERNELS.json}"
TEL_OUT="${3:-${SOURCE_DIR}/BENCH_TELEMETRY.json}"
GRAPH_OUT="${4:-${SOURCE_DIR}/BENCH_GRAPH.json}"
SIMCORE_OUT="${5:-${SOURCE_DIR}/BENCH_SIMCORE.json}"

cmake -S "${SOURCE_DIR}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j --target bench_kernels bench_telemetry bench_graph bench_simcore

for pair in "bench_kernels:${KERNELS_OUT}" "bench_telemetry:${TEL_OUT}" \
            "bench_graph:${GRAPH_OUT}" "bench_simcore:${SIMCORE_OUT}"; do
  bin="${pair%%:*}"
  out="${pair#*:}"
  "${BUILD_DIR}/bench/${bin}" \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out_format=json \
    --benchmark_out="${out}"
  echo "record_bench: wrote ${out}"
done
