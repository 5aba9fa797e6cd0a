#!/usr/bin/env bash
# Cold-route perf smoke.
#
# Reads the RA1000 row out of a freshly generated BENCH_pipeline.json
# and fails when its route stage exceeds a generous wall-time ceiling.
# The ceiling is two orders of magnitude above the
# routinely measured time (< 0.1 s), so it never trips on a slow shared
# runner — it exists to catch the catastrophic regression class: an
# accidentally quadratic path, a lost oracle, a search that stopped
# pruning.
#
# Usage: ci/check_pipeline_perf.sh <BENCH_pipeline.json> [ceiling-seconds]
set -euo pipefail

artifact="${1:?usage: check_pipeline_perf.sh <BENCH_pipeline.json> [ceiling-seconds]}"
ceiling="${2:-5.0}"

route=$(awk '
  /"assay": "RA1000"/ { in_row = 1 }
  in_row && /"route_seconds":/ { print $2 + 0; exit }
' "$artifact" | tr -d ',')

if [ -z "$route" ]; then
  echo "$artifact: no RA1000 row found" >&2
  exit 1
fi

echo "RA1000 cold route: ${route}s (ceiling ${ceiling}s)"
awk -v r="$route" -v c="$ceiling" 'BEGIN { exit !(r <= c) }' || {
  echo "RA1000 route regressed past the ${ceiling}s ceiling" >&2
  exit 1
}
