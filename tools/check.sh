#!/usr/bin/env bash
# Full correctness gate: custom lint, the ids-analyzer static checks, then
# the test suite under TSan and under ASan+UBSan. tools/ci.sh runs this and
# adds a Release pass; a developer should run it before pushing
# concurrency-touching changes.
#
# Usage: tools/check.sh [--jobs N]

set -eu

jobs=$(nproc 2>/dev/null || echo 2)
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "usage: $0 [--jobs N]" >&2; exit 2 ;;
  esac
done

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "==> lint"
tools/lint.sh

echo "==> ids-analyzer (src/, SARIF, gated on tools/analyzer_baseline.txt)"
cmake -B build-analyze -S . > build-analyze-configure.log 2>&1 || {
  cat build-analyze-configure.log >&2; exit 1
}
rm -f build-analyze-configure.log
cmake --build build-analyze --target ids-analyzer -j "$jobs"
analyzer=build-analyze/tools/analyzer/ids-analyzer
# SARIF and the stats JSON land next to the build so CI can archive them;
# findings outside the committed baseline fail the gate.
"$analyzer" --format=sarif --stats \
  --stats-json=build-analyze/ids-analyzer-stats.json \
  --baseline=tools/analyzer_baseline.txt src \
  > build-analyze/ids-analyzer.sarif
# Baseline drift: a fixed finding must also be removed from the baseline,
# so regenerating it has to reproduce the committed file byte-for-byte.
fresh_baseline=$(mktemp)
"$analyzer" --write-baseline="$fresh_baseline" src > /dev/null || true
if ! diff -u tools/analyzer_baseline.txt "$fresh_baseline"; then
  rm -f "$fresh_baseline"
  echo "check: tools/analyzer_baseline.txt is stale; regenerate with" >&2
  echo "  $analyzer --write-baseline=tools/analyzer_baseline.txt src" >&2
  exit 1
fi
rm -f "$fresh_baseline"

echo "==> ids-analyzer wall-time budget"
# The summary/spawner fixed points must stay effectively linear in the
# corpus; a superlinear blowup shows up here long before it hurts a
# developer. The budget is ~200x the current wall time on src/.
if command -v python3 > /dev/null 2>&1; then
  python3 - build-analyze/ids-analyzer-stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
total = doc["phase_seconds"]["total"]
budget = 20.0
assert total <= budget, \
    "analyzer spent %.3fs on src/ (budget %.0fs)" % (total, budget)
print("analyzer wall time %.3fs (budget %.0fs)" % (total, budget))
EOF
fi

echo "==> ids-analyzer certify (concurrent-exec shared-state certificate)"
# The certificate must pass (exit 0) AND match the committed inventory, so
# every reclassified entry shows up in review.
fresh_cert=$(mktemp)
"$analyzer" --certify=concurrent-exec src > "$fresh_cert"
if ! diff -u tools/concurrency_certificate.json "$fresh_cert"; then
  rm -f "$fresh_cert"
  echo "check: tools/concurrency_certificate.json is stale; regenerate with" >&2
  echo "  $analyzer --certify=concurrent-exec src > tools/concurrency_certificate.json" >&2
  exit 1
fi
rm -f "$fresh_cert"

echo "==> ids-analyzer self-test (dogfood + resolution ratio)"
bash tests/analyzer_selftest.sh "$analyzer"

echo "==> trace smoke (ncnpr_workflow --trace/--metrics)"
cmake --build build-analyze --target ncnpr_workflow -j "$jobs"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
build-analyze/examples/ncnpr_workflow \
  --trace "$smoke_dir/trace.json" --metrics "$smoke_dir/metrics.prom" \
  > "$smoke_dir/stdout.log"
[ -s "$smoke_dir/trace.json" ] || { echo "trace smoke: empty trace" >&2; exit 1; }
grep -q '"traceEvents"' "$smoke_dir/trace.json" || {
  echo "trace smoke: no traceEvents in trace.json" >&2; exit 1
}
grep -q '^ids_cache_hits_total{' "$smoke_dir/metrics.prom" || {
  echo "trace smoke: cache metrics missing from exposition" >&2; exit 1
}
grep -q '^ids_udf_exec_seconds_bucket{' "$smoke_dir/metrics.prom" || {
  echo "trace smoke: UDF latency histogram missing from exposition" >&2; exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$smoke_dir/trace.json" > /dev/null || {
    echo "trace smoke: trace.json is not valid JSON" >&2; exit 1
  }
fi

echo "==> observability smoke (ncnpr_workflow --serve-obs/--profile)"
# Live-plane end-to-end: the workflow serves /metrics, /statusz, /tracez
# and /profilez on an ephemeral port while holding after the run, and the
# smoke script scrapes it over loopback like an operator with curl would.
bash tools/obs_smoke.sh build-analyze/examples/ncnpr_workflow \
  "$smoke_dir/obs"

build_and_test() {  # $1 = build dir, $2 = IDS_SANITIZE value
  echo "==> $2 build ($1)"
  mkdir -p "$1"
  cmake -B "$1" -S . -DIDS_SANITIZE="$2" -DIDS_WERROR=ON > "$1/configure.log"
  cmake --build "$1" -j "$jobs"
  # Two passes: auto-detected SIMD dispatch, then the forced-scalar
  # kernels. Both must be green under the sanitizer — the scalar run is
  # what non-x86 hosts would execute, and divergence between the passes
  # means the determinism contract (DESIGN.md §11) is broken.
  echo "==> $2 ctest (IDS_SIMD_LEVEL=auto)"
  (cd "$1" && ctest --output-on-failure -j "$jobs")
  echo "==> $2 ctest (IDS_SIMD_LEVEL=scalar)"
  (cd "$1" && IDS_SIMD_LEVEL=scalar ctest --output-on-failure -j "$jobs")
}

build_and_test build-tsan thread
build_and_test build-asan address

echo "==> all checks passed"
