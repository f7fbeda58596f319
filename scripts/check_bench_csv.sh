#!/usr/bin/env bash
# Full-size CSV regression: runs each named bench at full size in a
# temporary directory and compares its CSV byte for byte with the
# checked-in reference at the repo root. The ablation CSVs named by the
# `bench_csv_regression` ctest pin retune-aware pricing
# (ablation_reconfig), overlapped pricing (ablation_overlap) and channel
# occupancy (ablation_utilization); `bench_fig6_regression` runs Fig. 6
# (fig6_scaling) at its full N <= 4096 grid.
#
# Usage: scripts/check_bench_csv.sh <bench-binary-dir> <name>...
#   (bench_<name> writes <name>.csv)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_DIR="$(cd "$1" && pwd)"
shift
unset WRHT_BENCH_TINY WRHT_BENCH_PERF

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

status=0
for name in "$@"; do
  if ! "$BENCH_DIR/bench_$name" > "$name.log" 2>&1; then
    echo "FAIL bench_$name exited non-zero:"
    tail -n 20 "$name.log"
    status=1
  elif ! cmp "$name.csv" "$ROOT/$name.csv"; then
    echo "FAIL $name.csv differs from the checked-in reference:"
    diff "$ROOT/$name.csv" "$name.csv" | head -n 20 || true
    status=1
  else
    echo "ok   $name.csv"
  fi
done
exit "$status"
