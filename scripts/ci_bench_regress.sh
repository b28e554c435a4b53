#!/usr/bin/env bash
# Report-only bench-regression smoke: re-run the host-cost microbenchmarks
# (bench_simcore, bench_graph, bench_telemetry) with 3 repetitions and
# compare the fresh medians against the median rows of the checked-in
# BENCH_*.json baselines (recorded by record_bench.sh with repetitions). A
# benchmark slower than 2x its recorded median is reported as a regression —
# generous enough that shared-runner noise stays quiet, loud enough that an
# accidental O(n^2) in the engine shows up. A baseline recorded on a machine
# with a different CPU count is skipped with a message rather than compared.
# Median rows only one side has are listed too: a baseline row with no fresh
# counterpart is a "stale baseline row" (the benchmark was removed or
# renamed; re-record), a fresh row with no baseline is "unrecorded".
# Never fails the build: perf baselines are recorded on whatever machine ran
# record_bench.sh last, so this leg informs, the tier-1/sanitizer legs gate.
#
#   scripts/ci_bench_regress.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench-regress: python3 not found, skipping"
  exit 0
fi

compare() {
  python3 - "$1" "$2" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    baseline = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def ns(row):
    return row["real_time"] * TO_NS[row.get("time_unit", "ns")]


base = {row.get("run_name", row["name"]): ns(row) for row in baseline.get("benchmarks", [])
        if row.get("aggregate_name") == "median"}
if not base:
    print("bench-regress:   baseline has no median rows (re-record with record_bench.sh)")
regressions = 0
compared = 0
seen = set()
for row in fresh.get("benchmarks", []):
    if row.get("aggregate_name") != "median":
        continue
    name = row.get("run_name", row["name"])
    seen.add(name)
    if name not in base:
        print(f"bench-regress:   unrecorded {name}: no baseline median row")
        continue
    if base[name] <= 0.0:
        continue
    compared += 1
    ratio = ns(row) / base[name]
    if ratio > 2.0:
        regressions += 1
        print(f"bench-regress:   REGRESSION {name}: {ratio:.2f}x the recorded median")
for name in sorted(base.keys() - seen):
    print(f"bench-regress:   stale baseline row {name}: no fresh counterpart")
print(f"bench-regress:   {compared} benchmarks compared, {regressions} over the 2x threshold")
EOF
}

for pair in "bench_simcore:BENCH_SIMCORE.json" "bench_graph:BENCH_GRAPH.json" \
            "bench_telemetry:BENCH_TELEMETRY.json"; do
  bin="${pair%%:*}"
  baseline="${SOURCE_DIR}/${pair##*:}"
  if [[ ! -f "${baseline}" ]]; then
    echo "bench-regress: no baseline ${baseline##*/}, skipping ${bin}"
    continue
  fi
  base_cpus="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["context"].get("num_cpus", ""))' "${baseline}")"
  if [[ "${base_cpus}" != "$(nproc)" ]]; then
    echo "bench-regress: ${baseline##*/} was recorded on ${base_cpus:-an unknown number of} CPUs, this machine has $(nproc); skipping ${bin}"
    continue
  fi
  if [[ ! -x "${BUILD_DIR}/bench/${bin}" ]]; then
    cmake --build "${BUILD_DIR}" -j --target "${bin}"
  fi
  fresh="$(mktemp)"
  echo "bench-regress: ${bin} (3 repetitions, medians vs ${baseline##*/})"
  "${BUILD_DIR}/bench/${bin}" \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_out_format=json \
    --benchmark_out="${fresh}" >/dev/null
  compare "${baseline}" "${fresh}"
  rm -f "${fresh}"
done

echo "bench-regress: done (report-only)"
