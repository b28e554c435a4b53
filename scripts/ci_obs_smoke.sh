#!/usr/bin/env bash
# Live-endpoint smoke: start a real workload with --serve-obs on an ephemeral
# port and scrape it while it is hot. Asserts, end to end through a TCP
# socket, that:
#   - the CLI prints the bound address (ephemeral :0 resolves)
#   - /healthz answers 200 "serving" while the run is in flight
#   - /metrics serves Prometheus text (HELP/TYPE headers + samples) and the
#     request counter is monotone across two scrapes
#   - /trace serves Chrome-trace JSON: a traceEvents array that holds the
#     host process_name event (checked with python3's json module)
#   - the workload exits 0 with the server attached
#
#   scripts/ci_obs_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="${BUILD_DIR}/tools/mstream_cli"
if [[ ! -x "${CLI}" ]]; then
  cmake --build "${BUILD_DIR}" -j --target mstream_cli
fi

log="$(mktemp)"
s1="$(mktemp)"
s2="$(mktemp)"
s3="$(mktemp)"
cleanup() {
  [[ -n "${pid:-}" ]] && kill "${pid}" 2>/dev/null || true
  rm -f "${log}" "${s1}" "${s2}" "${s3}"
}
trap cleanup EXIT

# fetch URL OUT -> writes the body to OUT, prints the HTTP status code.
if command -v curl >/dev/null 2>&1; then
  fetch() { curl -s -o "$2" -w '%{http_code}' "$1"; }
elif command -v python3 >/dev/null 2>&1; then
  fetch() {
    python3 - "$1" "$2" <<'EOF'
import sys, urllib.request
try:
    r = urllib.request.urlopen(sys.argv[1], timeout=5)
    body, code = r.read(), r.getcode()
except urllib.error.HTTPError as e:
    body, code = e.read(), e.code
open(sys.argv[2], "wb").write(body)
print(code, end="")
EOF
  }
else
  echo "obs-smoke: neither curl nor python3 found, skipping"
  exit 0
fi

# A functional kmeans run long enough (several seconds) to scrape mid-flight.
"${CLI}" app kmeans --functional --points 2000000 --tiles 56 --iters 30 \
  --serve-obs 127.0.0.1:0 >"${log}" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#^obs: serving http://\([0-9.:]*\).*#\1#p' "${log}")"
  [[ -n "${addr}" ]] && break
  sleep 0.1
done
if [[ -z "${addr}" ]]; then
  echo "obs-smoke: FAIL - no bound address printed"
  cat "${log}"
  exit 1
fi
echo "obs-smoke: scraping http://${addr}"

code="$(fetch "http://${addr}/healthz" "${s1}")"
if [[ "${code}" != "200" || "$(cat "${s1}")" != "serving" ]]; then
  echo "obs-smoke: FAIL - /healthz answered ${code} '$(cat "${s1}")', wanted 200 'serving'"
  exit 1
fi

requests_total() {
  awk '/^ms_obs_http_requests_total[{ ]/ { s += $NF } END { printf "%d", s }' "$1"
}
code="$(fetch "http://${addr}/metrics" "${s1}")"
[[ "${code}" == "200" ]] || { echo "obs-smoke: FAIL - /metrics answered ${code}"; exit 1; }
grep -q '^# TYPE ms_obs_http_requests_total counter$' "${s1}" || {
  echo "obs-smoke: FAIL - /metrics is missing its own request-counter family"
  head -5 "${s1}"
  exit 1
}
code="$(fetch "http://${addr}/metrics" "${s2}")"
[[ "${code}" == "200" ]] || { echo "obs-smoke: FAIL - second /metrics answered ${code}"; exit 1; }
t1="$(requests_total "${s1}")"
t2="$(requests_total "${s2}")"
if (( t2 <= t1 )); then
  echo "obs-smoke: FAIL - request counter not monotone (${t1} -> ${t2})"
  exit 1
fi

code="$(fetch "http://${addr}/trace" "${s3}")"
[[ "${code}" == "200" ]] || { echo "obs-smoke: FAIL - /trace answered ${code}"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "${s3}" <<'EOF' || { echo "obs-smoke: FAIL - /trace is not a host Chrome trace"; exit 1; }
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert isinstance(events, list)
assert any(e.get("ph") == "M" and e.get("name") == "process_name"
           and e.get("args", {}).get("name") == "host (wall-clock)" for e in events)
EOF
else
  echo "obs-smoke: python3 not found, /trace JSON check skipped"
fi

wait "${pid}"
rc=$?
pid=""
if (( rc != 0 )); then
  echo "obs-smoke: FAIL - workload exited ${rc} with the endpoint attached"
  cat "${log}"
  exit 1
fi
echo "obs-smoke: OK (healthz serving, ${t1} -> ${t2} requests counted across scrapes, /trace has the host track)"
