#!/usr/bin/env bash
# refresh_baselines.sh — regenerate the checked-in CI baselines under ci/
# after an intentional behaviour or performance change.
#
#   scripts/refresh_baselines.sh [BUILD_DIR]
#
# Rebuilds the Release tools, re-runs the curated campaign and the engine
# throughput bench (including the --curve sweep), rewrites
# ci/campaign_baseline.json and ci/bench_engine_baseline.json, and prints a
# diff of the deterministic counters plus the CI gates' report of every run
# that left its tolerance band, so the "why did the numbers move" paragraph
# of the commit message writes itself.  See ci/README.md for the
# policy: never refresh to paper over an unexplained regression.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SEEDS="${SEEDS:-3}"
REPEAT="${REPEAT:-5}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
fi
build_type="$(grep -E '^CMAKE_BUILD_TYPE' "${BUILD_DIR}/CMakeCache.txt" \
  | cut -d= -f2)"
if [[ "${build_type}" != "Release" ]]; then
  echo "refresh_baselines: ${BUILD_DIR} is a ${build_type:-unset} tree;" \
    "baselines must come from a Release build" >&2
  exit 1
fi

cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target scenario_campaign bench_engine_throughput perf_gate

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

echo "== campaign (--seeds ${SEEDS}) =="
"${BUILD_DIR}/scenario_campaign" --seeds "${SEEDS}" \
  --out "${tmp}/campaign-results.json"
"${BUILD_DIR}/perf_gate" digest --campaign "${tmp}/campaign-results.json" \
  --out "${tmp}/campaign_baseline.json"

echo "== engine bench (--repeat ${REPEAT} --curve) =="
"${BUILD_DIR}/bench_engine_throughput" --repeat "${REPEAT}" --curve \
  --out "${tmp}/bench_engine_baseline.json"

# Deterministic-counter diff before the overwrite: wall-clock fields move
# on every refresh, counters only when behaviour changed.
echo "== counter diff (old -> new; wall-clock noise excluded) =="
strip_wallclock() {
  grep -Ev '"(wall_ms|events_per_sec|packets_per_sec|deliveries_per_sec)"' \
    "$1"
}
for name in campaign_baseline bench_engine_baseline; do
  echo "-- ci/${name}.json"
  if diff -u <(strip_wallclock "ci/${name}.json") \
             <(strip_wallclock "${tmp}/${name}.json"); then
    echo "   (no counter change)"
  fi
done

# Band report before the overwrite: the CI gates run on the new results
# against the old baselines.  Informational here (never fails the refresh);
# every run they name left its tolerance band, and that list is what the
# commit message must explain.
echo "== band report: perf_gate campaign (new results vs ci/campaign_baseline.json) =="
"${BUILD_DIR}/perf_gate" campaign --baseline ci/campaign_baseline.json \
  --current "${tmp}/campaign-results.json" || true
for gate in engine curve; do
  echo "== band report: perf_gate ${gate} (new results vs ci/bench_engine_baseline.json) =="
  "${BUILD_DIR}/perf_gate" "${gate}" --baseline ci/bench_engine_baseline.json \
    --current "${tmp}/bench_engine_baseline.json" || true
done

mv "${tmp}/campaign_baseline.json" ci/campaign_baseline.json
mv "${tmp}/bench_engine_baseline.json" ci/bench_engine_baseline.json
echo "== done; commit ci/*.json together with the change that moved them =="
