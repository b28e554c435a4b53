#!/usr/bin/env bash
# Performance-lint CI leg: every ported app plus the hBench patterns run
# under `mstream_cli lint`, which records the scheduled action graph and
# checks it against the platform cost model (docs/lint.md). Findings fail
# the leg unless scripts/lint_waivers.txt waives that (workload, rule) pair —
# waivers are documented true positives, and a stale waiver (one that no
# longer fires) is reported so the list cannot rot silently. Each workload
# also runs under `mstream_cli analyze`, and any hazard (race, deadlock,
# use-before-write, ...) fails the leg; hazards take no waivers.
#
# The lint JSON and hazard JSON reports of every workload land in
# <build-dir>/lint-reports/ as the leg's artifact. Each lint report is read
# with python3's json module, so a malformed report fails the leg.
#
#   scripts/ci_lint.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-ci}"
SOURCE_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CLI="${BUILD_DIR}/tools/mstream_cli"
WAIVERS="${SOURCE_DIR}/scripts/lint_waivers.txt"
ARTIFACTS="${BUILD_DIR}/lint-reports"

if [[ ! -x "${CLI}" ]]; then
  echo "ci_lint: ${CLI} not built (run the tier-1 leg first)" >&2
  exit 2
fi
mkdir -p "${ARTIFACTS}"

# workload-id  CLI-subcommand-and-args: every app the registry lists
# (`mstream_cli apps`), the tile-task apps on two cards (their cross-card
# coherence round trips), then the hBench patterns.
apps="$("${CLI}" apps)"
WORKLOADS=()
for app in ${apps}; do
  WORKLOADS+=("app:${app} app ${app}")
done
WORKLOADS+=(
  "app:cf-x2     app cf --device 31sp-x2 --tiles 16 --dim 960"
  "app:lu-x2     app lu --device 31sp-x2 --tiles 16 --dim 960"
  "hbench:fig5   hbench fig5"
  "hbench:fig6   hbench fig6"
  "hbench:fig7   hbench fig7"
)

waived() {  # waived <workload-id> <rule>
  grep -Eq "^${1}[[:space:]]+${2}([[:space:]]|$)" <(grep -v '^#' "${WAIVERS}")
}

fail=0
declare -A waiver_hit
for entry in "${WORKLOADS[@]}"; do
  id="${entry%% *}"
  read -r -a cmd <<< "${entry#* }"
  json="${ARTIFACTS}/${id/:/-}.json"
  hazards="${ARTIFACTS}/${id/:/-}.hazards.json"

  echo "==> analyze ${id}"
  rc=0
  "${CLI}" analyze "${cmd[@]}" --json "${hazards}" >/dev/null || rc=$?
  if [[ ${rc} -ne 0 ]]; then
    echo "ci_lint: ${id}: mstream_cli analyze exited ${rc} (see ${hazards})" >&2
    fail=1
  fi

  echo "==> lint ${id}"
  rc=0
  "${CLI}" lint "${cmd[@]}" --json "${json}" >/dev/null || rc=$?
  if [[ ${rc} -ge 2 ]]; then
    echo "ci_lint: ${id}: mstream_cli exited ${rc}" >&2
    fail=1
    continue
  fi

  # Findings (if any) are in the JSON report; check each rule against waivers.
  if ! rules_text="$(python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
print("\n".join(sorted({finding["rule"] for finding in report["findings"]})))
' "${json}")"; then
    echo "ci_lint: ${id}: unreadable lint report ${json}" >&2
    fail=1
    continue
  fi
  mapfile -t rules <<< "${rules_text}"
  for rule in "${rules[@]}"; do
    [[ -z "${rule}" ]] && continue
    if waived "${id}" "${rule}"; then
      echo "    waived: ${rule}"
      waiver_hit["${id} ${rule}"]=1
    else
      echo "ci_lint: ${id}: non-waivered finding '${rule}' (see ${json})" >&2
      fail=1
    fi
  done
done

# Stale-waiver report: entries that never fired (informational, not fatal —
# a waiver can be config-dependent, but it should not rot unnoticed).
while read -r id rule _; do
  [[ -z "${id}" || "${id}" == \#* ]] && continue
  if [[ -z "${waiver_hit["${id} ${rule}"]:-}" ]]; then
    echo "ci_lint: note: stale waiver '${id} ${rule}' (no such finding fired)"
  fi
done < "${WAIVERS}"

if [[ ${fail} -ne 0 ]]; then
  echo "ci_lint: FAILED (hazards or non-waivered findings above; reports in ${ARTIFACTS})" >&2
  exit 1
fi
echo "ci_lint: OK (reports in ${ARTIFACTS})"
