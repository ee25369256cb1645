#!/usr/bin/env bash
# Observability-plane smoke: runs the NCNPR workflow with the in-process
# exposition server and the sampling profiler on, scrapes every endpoint
# over loopback during the post-run hold window (as an operator with curl
# would), and asserts the ids_* metric families, that /tracez holds the
# trace of the newest /statusz account under the same sequence number,
# and non-empty named-scope flamegraph stacks.
#
# Usage: tools/obs_smoke.sh WORKFLOW_BINARY [OUT_DIR]
#   WORKFLOW_BINARY  path to a built examples/ncnpr_workflow
#   OUT_DIR          scratch dir for logs/profile (default: mktemp -d)

set -eu

if [ $# -lt 1 ] || [ ! -x "$1" ]; then
  echo "usage: $0 WORKFLOW_BINARY [OUT_DIR]" >&2
  exit 2
fi
workflow="$1"
if [ $# -ge 2 ]; then
  outdir="$2"
  mkdir -p "$outdir"
  cleanup=""
else
  outdir=$(mktemp -d)
  cleanup="$outdir"
fi
obs_pid=""
trap '[ -n "$obs_pid" ] && kill "$obs_pid" 2>/dev/null; [ -n "$cleanup" ] && rm -rf "$cleanup"' EXIT

"$workflow" --serve-obs 0 --profile "$outdir/profile.folded" --hold-obs 10 \
  > "$outdir/obs.log" 2>&1 &
obs_pid=$!

# The workflow binds port 0 (kernel-assigned, no collisions on a busy
# runner) and prints + flushes the listening banner as soon as the server
# is up, so the actual port is discoverable well before the queries run.
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's#^obs server listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' \
           "$outdir/obs.log")
  [ -n "$port" ] && break
  if ! kill -0 "$obs_pid" 2>/dev/null; then
    echo "obs smoke: workflow died before the server came up:" >&2
    cat "$outdir/obs.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "obs smoke: server never printed the listening banner:" >&2
  cat "$outdir/obs.log" >&2
  exit 1
fi

# The hold banner marks both queries done and the server idle-serving —
# that is when /statusz and /tracez carry the full run. Sanitizer builds
# can take a while to get there, so poll generously with a liveness check
# instead of a short fixed window.
held=""
for _ in $(seq 1 600); do
  if grep -q '^holding obs server for ' "$outdir/obs.log"; then
    held=1
    break
  fi
  if ! kill -0 "$obs_pid" 2>/dev/null; then
    echo "obs smoke: workflow died before the hold phase:" >&2
    cat "$outdir/obs.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$held" ]; then
  echo "obs smoke: server never reached the hold phase:" >&2
  cat "$outdir/obs.log" >&2
  exit 1
fi

if command -v python3 > /dev/null 2>&1; then
  python3 - "$port" <<'EOF'
import sys, urllib.request
port = sys.argv[1]
def fetch(path):
    with urllib.request.urlopen("http://127.0.0.1:%s%s" % (port, path),
                                timeout=5) as r:
        return r.read().decode()
metrics = fetch("/metrics")
for family in ("ids_engine_queries_total", "ids_cache_hits_total{",
               "ids_query_rows_gathered_total", "ids_query_wall_seconds_"):
    assert family in metrics, "missing %s in live /metrics" % family
statusz = fetch("/statusz")
for key in ('"build_type":', '"simd_level":', '"queries":{"total":2'):
    assert key in statusz, "missing %s in /statusz" % key
# Both endpoints render the same query log records: the newest account's
# sequence on /statusz is a trace header on /tracez.
marker = '"recent":[{"sequence":'
assert marker in statusz, "/statusz lists no query account"
newest = statusz.split(marker, 1)[1].split(",", 1)[0]
assert "=== trace #%s ===" % newest in fetch("/tracez"), \
    "/tracez lacks trace #%s, the newest /statusz account" % newest
folded = fetch("/profilez?fmt=folded")
assert folded.strip(), "/profilez?fmt=folded is empty"
for line in folded.strip().splitlines():
    path, _, count = line.rpartition(" ")
    assert path and int(count) > 0, "unnamed profile sample: %r" % line
print("obs smoke: /metrics /statusz /tracez /profilez all serving")
EOF
else
  echo "obs smoke: python3 unavailable, skipping live scrape" >&2
fi

wait "$obs_pid" || { echo "obs smoke: workflow exited nonzero" >&2; exit 1; }
obs_pid=""
[ -s "$outdir/profile.folded" ] || {
  echo "obs smoke: --profile wrote no folded stacks" >&2
  exit 1
}
grep -q 'engine.query' "$outdir/profile.folded" || {
  echo "obs smoke: folded output lacks engine.query frames" >&2
  exit 1
}
echo "obs smoke: OK"
