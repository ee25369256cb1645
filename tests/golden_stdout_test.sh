#!/usr/bin/env bash
# Modeled-output gate: each binary's stdout must equal its committed golden
# tests/goldens/<binary name>.txt byte for byte. The goldens pin modeled
# times, cache counters and answers, so a change that moves any of them
# fails here. Registered with ctest as `golden_stdout_test`; ctest runs it
# at every SIMD level and sanitizer the suite runs under.
#
# Usage: golden_stdout_test.sh <golden_dir> <binary>...
#
# An intended model change re-records the goldens from a fresh build,
#   for b in bench_table1_ingest bench_table2_cache \
#            bench_ablation_cache_tiers bench_ablation_rebalance \
#            bench_ablation_reorder; do
#     build/bench/$b > tests/goldens/$b.txt
#   done
#   build/examples/ncnpr_workflow > tests/goldens/ncnpr_workflow.txt
# and says so in CHANGES.md. Host wall times belong on stderr, which the
# gate does not read.

set -u
if [ $# -lt 2 ]; then
  echo "usage: $0 <golden_dir> <binary>..." >&2
  exit 2
fi
golden_dir="$1"
shift
failed=0
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for bin in "$@"; do
  name=$(basename "$bin")
  golden="$golden_dir/$name.txt"
  if ! "$bin" > "$out"; then
    echo "FAIL [$name]: exited non-zero" >&2
    failed=1
  elif ! diff -u "$golden" "$out" >&2; then
    echo "FAIL [$name]: stdout differs from $golden" >&2
    failed=1
  else
    echo "ok   [$name]"
  fi
done
exit "$failed"
