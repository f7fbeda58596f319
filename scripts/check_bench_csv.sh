#!/usr/bin/env bash
# Full-size CSV regression: runs each named bench at full size in a
# temporary directory and compares its CSV byte for byte with the
# checked-in reference at the repo root. The `bench_csv_regression` ctest
# pins every checked-in figure CSV but Fig. 6: the paper's Table 1 step
# counts (table1_steps), Figs. 2, 4, 5 and 7 (fig2_motivating,
# fig4_grouped_nodes, fig5_wavelengths, and fig7_electrical_vs_optical,
# which runs the flow-level fat-tree engine at full size), the all-to-all,
# rate-convention and RWA ablations (ablation_alltoall,
# ablation_convention, ablation_rwa), retune-aware pricing
# (ablation_reconfig), overlapped pricing (ablation_overlap), channel
# occupancy (ablation_utilization), and the shared-fabric service: the
# admission-policy bake-off (ablation_svc_policies, from bench_svc_policies)
# and the telemetry on/off identity (ablation_svc_telemetry, from
# bench_svc_telemetry). `bench_fig6_regression` runs Fig. 6 (fig6_scaling)
# at its full N <= 4096 grid.
#
# Usage: scripts/check_bench_csv.sh <bench-binary-dir> <name>...
#   (<name> is either <csv>, where bench_<csv> writes <csv>.csv, or
#   <bench>:<csv>, where bench_<bench> writes <csv>.csv)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BENCH_DIR="$(cd "$1" && pwd)"
shift
unset WRHT_BENCH_TINY WRHT_BENCH_PERF

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

status=0
for arg in "$@"; do
  bench="${arg%%:*}"
  name="${arg#*:}"
  if ! "$BENCH_DIR/bench_$bench" > "$name.log" 2>&1; then
    echo "FAIL bench_$bench exited non-zero:"
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
