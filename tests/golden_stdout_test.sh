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
#   build/bench/bench_ablation_cache_tiers > tests/goldens/bench_ablation_cache_tiers.txt
#   build/examples/ncnpr_workflow > tests/goldens/ncnpr_workflow.txt
# and says so in CHANGES.md.

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
