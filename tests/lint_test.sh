#!/usr/bin/env bash
# Unit tests for tools/lint.sh: the live tree must pass, and every
# negative fixture under tools/lint_fixtures/ must fail with the message
# for exactly the pattern it plants. Registered with ctest as `lint_test`.

set -u
repo="$(cd "$(dirname "$0")/.." && pwd)"
lint="$repo/tools/lint.sh"
failed=0

check() {  # $1 = label, $2 = expected exit, $3 = expected stderr regex, rest = args
  local label="$1" want_exit="$2" want_msg="$3"
  shift 3
  local out
  out=$("$lint" "$@" 2>&1)
  local got=$?
  if [ "$got" -ne "$want_exit" ]; then
    echo "FAIL [$label]: exit $got, wanted $want_exit" >&2
    failed=1
  elif [ -n "$want_msg" ] && ! echo "$out" | grep -qE "$want_msg"; then
    echo "FAIL [$label]: output missing /$want_msg/:" >&2
    echo "$out" | sed 's/^/    /' >&2
    failed=1
  else
    echo "ok   [$label]"
  fi
}

check "live tree clean" 0 'lint: OK'
check "naked mutex flagged" 1 'naked std synchronization primitive' \
      --root "$repo/tools/lint_fixtures/naked_mutex"
check "include cycle flagged" 1 '#include cycle' \
      --root "$repo/tools/lint_fixtures/include_cycle"
check "missing pragma flagged" 1 "missing '#pragma once'" \
      --root "$repo/tools/lint_fixtures/missing_pragma"
check "raw rng flagged" 1 'raw RNG use' \
      --root "$repo/tools/lint_fixtures/raw_rng"
check "unordered container in hot path flagged" 1 'node-based hash container' \
      --root "$repo/tools/lint_fixtures/unordered_hot"
check "raw stdout flagged" 1 'raw stdout write' \
      --root "$repo/tools/lint_fixtures/raw_stdout"
check "host-side sleep flagged" 1 'host-side sleep' \
      --root "$repo/tools/lint_fixtures/sleep_in_src"
check "mutable static flagged" 1 'mutable static state' \
      --root "$repo/tools/lint_fixtures/global_state"
check "mutable global flagged" 1 'mutable namespace-scope global' \
      --root "$repo/tools/lint_fixtures/global_state"
check "raw intrinsics flagged" 1 'raw SIMD intrinsics' \
      --root "$repo/tools/lint_fixtures/raw_intrinsics"
check "unknown escape tag flagged" 1 'unknown lint:allow-\* tag' \
      --root "$repo/tools/lint_fixtures/unknown_escape"
check "raw socket header flagged" 1 'raw socket header' \
      --root "$repo/tools/lint_fixtures/raw_sockets"
check "mutable store field flagged" 1 'mutable field in frozen store' \
      --root "$repo/tools/lint_fixtures/mutable_field"

# Rule 11 bans only tags outside the closed set: the fixture's real
# lint:allow-global waiver must not appear among its findings.
out=$("$lint" --root "$repo/tools/lint_fixtures/unknown_escape" 2>&1)
if echo "$out" | grep -q 'lint:allow-global'; then
  echo "FAIL [known escape tag spared]: lint:allow-global was flagged" >&2
  failed=1
else
  echo "ok   [known escape tag spared]"
fi

# Rule 10's escape hatch: the fixture's lint:allow-intrinsics line must not
# appear among the findings (the include and the unmarked _mm calls must).
out=$("$lint" --root "$repo/tools/lint_fixtures/raw_intrinsics" 2>&1)
if echo "$out" | grep -q 'prefetch'; then
  echo "FAIL [intrinsics escape hatch]: lint:allow-intrinsics line was flagged" >&2
  failed=1
else
  echo "ok   [intrinsics escape hatch]"
fi

# Rule 12's two carve-outs: src/telemetry/ is exempt wholesale (the obs
# server's sockets live there), and a lint:allow-sockets line is spared.
out=$("$lint" --root "$repo/tools/lint_fixtures/raw_sockets" 2>&1)
if echo "$out" | grep -q 'telemetry/exporter'; then
  echo "FAIL [sockets telemetry exemption]: src/telemetry/ file was flagged" >&2
  failed=1
else
  echo "ok   [sockets telemetry exemption]"
fi
if echo "$out" | grep -q 'arpa/inet'; then
  echo "FAIL [sockets escape hatch]: lint:allow-sockets line was flagged" >&2
  failed=1
else
  echo "ok   [sockets escape hatch]"
fi

# Rule 13's carve-outs: atomic and IDS_GUARDED_BY members are
# synchronized, the lint:allow-mutable line is opted out, and the rule is
# scoped to src/graph/ + src/store/ (the src/core/ fixture file is out of
# scope) — none of those may appear among the findings.
out=$("$lint" --root "$repo/tools/lint_fixtures/mutable_field" 2>&1)
for spared in 'hits_' 'misses_' 'scratch_' 'last_cost_'; do
  if echo "$out" | grep -q "$spared"; then
    echo "FAIL [mutable carve-outs]: spared member $spared was flagged" >&2
    failed=1
  else
    echo "ok   [mutable carve-out: $spared spared]"
  fi
done
for flagged in 'cache_' 'prepared_'; do
  if echo "$out" | grep -q "$flagged"; then
    echo "ok   [mutable lazy-prepare: $flagged flagged]"
  else
    echo "FAIL [mutable lazy-prepare]: $flagged was not flagged" >&2
    failed=1
  fi
done

exit $failed
