#!/usr/bin/env bash
# Unit tests for tools/analyzer (ids-analyzer): the live src/ tree must be
# clean, every bad.cpp fixture under tools/analyzer_fixtures/ must fail
# with its rule's tag, and every good.cpp must pass. Registered with ctest
# as `analyzer_test`; the binary path arrives as $1 (falls back to the
# default build location so the script also runs standalone).

set -u
repo="$(cd "$(dirname "$0")/.." && pwd)"
analyzer="${1:-$repo/build/tools/analyzer/ids-analyzer}"
fixtures="$repo/tools/analyzer_fixtures"
failed=0

if [ ! -x "$analyzer" ]; then
  echo "FAIL: ids-analyzer binary not found at $analyzer" >&2
  exit 1
fi

check() {  # $1 = label, $2 = expected exit, $3 = expected output regex, rest = args
  local label="$1" want_exit="$2" want_msg="$3"
  shift 3
  local out
  out=$("$analyzer" "$@" 2>&1)
  local got=$?
  if [ "$got" -ne "$want_exit" ]; then
    echo "FAIL [$label]: exit $got, wanted $want_exit" >&2
    echo "$out" | sed 's/^/    /' >&2
    failed=1
  elif [ -n "$want_msg" ] && ! echo "$out" | grep -qE "$want_msg"; then
    echo "FAIL [$label]: output missing /$want_msg/:" >&2
    echo "$out" | sed 's/^/    /' >&2
    failed=1
  else
    echo "ok   [$label]"
  fi
}

check "live tree clean" 0 'ids-analyzer: OK' "$repo/src"

check "discarded status flagged" 1 'discarded-status' \
      "$fixtures/discarded_status/bad.cpp"
check "explicit discard accepted" 0 'ids-analyzer: OK' \
      "$fixtures/discarded_status/good.cpp"
# The (void) cast is specifically called out, not merely tolerated.
check "(void) discard flagged" 1 'not an approved discard' \
      "$fixtures/discarded_status/bad.cpp"

check "unchecked value flagged" 1 'unchecked-value' \
      "$fixtures/unchecked_value/bad.cpp"
check "dominated value accepted" 0 'ids-analyzer: OK' \
      "$fixtures/unchecked_value/good.cpp"
check "unguarded status message flagged" 1 'status\(\)\.message\(\)' \
      "$fixtures/unchecked_value/bad.cpp"

check "lock order cycle flagged" 1 'inconsistent lock acquisition order' \
      "$fixtures/lock_order_cycle/bad.cpp"
check "acyclic lock order accepted" 0 'ids-analyzer: OK' \
      "$fixtures/lock_order_cycle/good.cpp"

check "bare assert flagged" 1 'bare-assert' \
      "$fixtures/bare_assert/bad.cpp"
check "IDS_CHECK and static_assert accepted" 0 'ids-analyzer: OK' \
      "$fixtures/bare_assert/good.cpp"

check "cross-TU lock cycle flagged" 1 'cross-TU inconsistent lock acquisition order' \
      "$fixtures/xfile_lock_cycle/bad.cpp" "$fixtures/xfile_lock_cycle/bad_peer.cpp"
check "cross-TU cycle tagged xfile-lock-order" 1 'xfile-lock-order' \
      "$fixtures/xfile_lock_cycle/bad.cpp" "$fixtures/xfile_lock_cycle/bad_peer.cpp"
check "cross-TU hierarchy accepted" 0 'ids-analyzer: OK' \
      "$fixtures/xfile_lock_cycle/good.cpp" "$fixtures/xfile_lock_cycle/good_peer.cpp"

check "transitive blocking under lock flagged" 1 \
      'blocking-under-lock.*write_file.*may block' \
      "$fixtures/blocking_under_lock/bad.cpp"
check "direct sleep under lock flagged" 1 'sleep_for' \
      "$fixtures/blocking_under_lock/bad.cpp"
check "hoist / IDS_MAY_BLOCK / condvar wait accepted" 0 'ids-analyzer: OK' \
      "$fixtures/blocking_under_lock/good.cpp"

check "wall-clock read on execute path flagged" 1 \
      'wallclock-in-engine.*system_clock.*reachable from IdsEngine::execute' \
      "$fixtures/wallclock_in_engine/bad.cpp"
check "raw RNG on execute path flagged" 1 'raw randomness.*mt19937' \
      "$fixtures/wallclock_in_engine/bad.cpp"
check "IDS_WALLCLOCK_OK and ids::Rng accepted" 0 'ids-analyzer: OK' \
      "$fixtures/wallclock_in_engine/good.cpp"

check "wrapper-forwarded discard flagged" 1 \
      'wrapper-discarded-status.*forwards a Status/Result' \
      "$fixtures/wrapper_discarded_status/bad.cpp"
check "consumed wrapper results accepted" 0 'ids-analyzer: OK' \
      "$fixtures/wrapper_discarded_status/good.cpp"

# --- concurrency rules -------------------------------------------------------

check "mixed-lock write flagged" 1 'guarded-by' \
      "$fixtures/guarded_by/bad.cpp"
check "mixed-lock message cites the locked site" 1 \
      'written with .Counter::mu_. held at .* but with no lock here' \
      "$fixtures/guarded_by/bad.cpp"
check "unannotated locked write flagged" 1 \
      'without an IDS_GUARDED_BY annotation' \
      "$fixtures/guarded_by/bad.cpp"
check "annotated and locked writes accepted" 0 'ids-analyzer: OK' \
      "$fixtures/guarded_by/good.cpp"

check "by-ref capture escape flagged" 1 \
      'thread-escape.*mutates by-reference capture' \
      "$fixtures/thread_escape/bad.cpp"
check "captured-this member escape flagged" 1 \
      "mutates member 'Indexer::count_' .* through captured 'this'" \
      "$fixtures/thread_escape/bad.cpp"
check "atomic / per-rank / locked tasks accepted" 0 'ids-analyzer: OK' \
      "$fixtures/thread_escape/good.cpp"

# --- phase/epoch rules -------------------------------------------------------

check "missing freeze method flagged" 1 \
      "phase-discipline.*has no method 'seal'" \
      "$fixtures/phase_discipline/bad.cpp"
check "mutable frozen field flagged" 1 \
      'phase-discipline.*lazy-prepare' \
      "$fixtures/phase_discipline/bad.cpp"
check "serve-phase write flagged" 1 \
      "serve-phase write.*'Store::touch'.*reachable from IdsEngine::execute" \
      "$fixtures/phase_discipline/bad.cpp"
check "freeze call on execute path flagged" 1 \
      "freeze method 'Postings::commit'.*reachable from IdsEngine::execute" \
      "$fixtures/phase_discipline/bad.cpp"
check "eager freeze with guarded ingest accepted" 0 'ids-analyzer: OK' \
      "$fixtures/phase_discipline/good.cpp"

check "unguarded ingest write flagged" 1 \
      "frozen-ingest-guard.*'Ledger::append' without an epoch guard" \
      "$fixtures/frozen_ingest_guard/bad.cpp"
check "positive frozen assert is not a guard" 1 \
      "frozen-ingest-guard.*'Ledger::audit'" \
      "$fixtures/frozen_ingest_guard/bad.cpp"
check "IDS_CHECK/IDS_DCHECK epoch guards accepted" 0 'ids-analyzer: OK' \
      "$fixtures/frozen_ingest_guard/good.cpp"
# Constructor writes and the freeze method itself are exempt: the good
# fixture reserves in the ctor and sorts inside freeze() with no guard.
check "ctor and freeze-method writes exempt" 0 'ids-analyzer: OK' \
      --rule=frozen-ingest-guard "$fixtures/frozen_ingest_guard/good.cpp"

# --- lifetime rules ----------------------------------------------------------

check "view invalidated by direct mutation flagged" 1 \
      "view-invalidation.*view 'p'.*'names.push_back\(\)'" \
      "$fixtures/view_invalidation/bad.cpp"
check "view invalidated through method summary flagged" 1 \
      "view 'base'.*'grow\(\)' \(ids_.resize\)" \
      "$fixtures/view_invalidation/bad.cpp"
check "view invalidated by reassignment flagged" 1 \
      "being reassigned" \
      "$fixtures/view_invalidation/bad.cpp"
check "re-derived / stable-storage views accepted" 0 'ids-analyzer: OK' \
      "$fixtures/view_invalidation/good.cpp"

check "returned reference to local flagged" 1 \
      'dangling-return.*local' \
      "$fixtures/dangling_return/bad.cpp"
check "returned view of by-value param flagged" 1 \
      "dangling-return.*by-value parameter" \
      "$fixtures/dangling_return/bad.cpp"
check "member / parameter-referent returns accepted" 0 'ids-analyzer: OK' \
      "$fixtures/dangling_return/good.cpp"

check "view bound to substr temporary flagged" 1 \
      "temporary-bound-view.*'substr\(...\)' result" \
      "$fixtures/temporary_bound_view/bad.cpp"
check "view member initialized from temporary flagged" 1 \
      "string_view member 'Header::title_'" \
      "$fixtures/temporary_bound_view/bad.cpp"
check "views of named owners accepted" 0 'ids-analyzer: OK' \
      "$fixtures/temporary_bound_view/good.cpp"

check "unjoined by-ref task capture flagged" 1 \
      "task-outlives-capture.*captures 'rows' by reference.*never joins" \
      "$fixtures/task_outlives_capture/bad.cpp"
check "unjoined this capture flagged" 1 \
      "task-outlives-capture.*'this'" \
      "$fixtures/task_outlives_capture/bad.cpp"
check "joined / by-value / waived tasks accepted" 0 'ids-analyzer: OK' \
      "$fixtures/task_outlives_capture/good.cpp"

# --- lexer raw strings -------------------------------------------------------

check "raw string contents produce no findings" 0 'ids-analyzer: OK' \
      "$fixtures/lexer_raw_string/good.cpp"
check "lexer recovers after a raw string" 1 \
      'lexer_raw_string/bad.cpp:11:.*bare-assert' \
      "$fixtures/lexer_raw_string/bad.cpp"

# --- shared-state certificate ------------------------------------------------

check "certify flags execute-path shared state" 1 'shared-state' \
      --certify=concurrent-exec "$fixtures/shared_state/bad.cpp"
check "certify flags function-local statics" 1 'function-local static' \
      --certify=concurrent-exec "$fixtures/shared_state/bad.cpp"
check "certify flags namespace-scope globals" 1 \
      'namespace-scope global .g_queries.' \
      --certify=concurrent-exec "$fixtures/shared_state/bad.cpp"
check "shared-state is certify-only" 0 'ids-analyzer: OK' \
      "$fixtures/shared_state/bad.cpp"
check "certify flags a reused scratch member" 1 \
      "member 'IdsEngine::scratch_'" \
      --certify=concurrent-exec "$fixtures/shared_state/bad.cpp"
check "certify accepts guarded/atomic engine" 0 'certificate OK' \
      --certify=concurrent-exec "$fixtures/shared_state/good.cpp"
check "certify flags classes sharing a short name" 1 \
      "ambiguous-class.*class name 'Entry'" \
      --certify=concurrent-exec "$fixtures/ambiguous_class/bad.cpp"
check "certify accepts one name per class" 0 'certificate OK' \
      --certify=concurrent-exec "$fixtures/ambiguous_class/good.cpp"
check "certify without engine root is an error" 2 \
      'found no IdsEngine::execute' \
      --certify=concurrent-exec "$fixtures/guarded_by/good.cpp"
check "unknown certificate is a usage error" 2 'unknown certificate' \
      --certify=no-such-cert "$fixtures/shared_state/good.cpp"
check "live tree passes the certificate" 0 'certificate OK' \
      --certify=concurrent-exec "$repo/src"

# --- CLI surface -------------------------------------------------------------

check "no input paths is a usage error" 2 'no input paths'
check "missing path is an IO error" 2 'cannot read' /no/such/path
check "--list-rules names every rule" 0 'xfile-lock-order' --list-rules
check "--list-rules names the lifetime rules" 0 'task-outlives-capture' \
      --list-rules
check "unknown --rule is a usage error" 2 'unknown rule' --rule=no-such-rule
check "unknown --format is a usage error" 2 'unknown format' --format=xml \
      "$fixtures/bare_assert/good.cpp"
# Rule filtering: with only bare-assert enabled, the discarded-status
# fixture is clean; with its own rule enabled it still fails.
check "--rule disables other rules" 0 'ids-analyzer: OK' \
      --rule=bare-assert "$fixtures/discarded_status/bad.cpp"
check "--rule keeps the selected rule" 1 'discarded-status' \
      --rule=discarded-status "$fixtures/discarded_status/bad.cpp"
check "--stats reports the resolution ratio" 0 'resolution-ratio=' \
      --stats "$fixtures/lock_order_cycle/good.cpp"
check "--stats reports parse timing and jobs" 0 \
      'parse-seconds=.*\(jobs=1\)' --stats --jobs=1 \
      "$fixtures/lock_order_cycle/good.cpp"
check "--stats reports per-phase wall time" 0 \
      'phase-seconds: lex=.* corpus=.* callgraph=.* rules=.* total=' \
      --stats "$fixtures/lock_order_cycle/good.cpp"
check "--stats breaks findings down per rule" 1 \
      'rule guarded-by *active=2' --stats "$fixtures/guarded_by/bad.cpp"
check "bad --jobs value is a usage error" 2 'bad --jobs' --jobs=many \
      "$fixtures/bare_assert/good.cpp"

# Parallel lexing must be invisible in the results: byte-identical output.
serial=$("$analyzer" "$repo/src" 2>&1)
parallel=$("$analyzer" --jobs=4 "$repo/src" 2>&1)
if [ "$serial" = "$parallel" ]; then
  echo "ok   [--jobs=4 output matches serial]"
else
  echo "FAIL [--jobs=4 output matches serial]" >&2
  failed=1
fi

# --- stats JSON --------------------------------------------------------------

tmp_stats="$(mktemp)"
check "--stats-json runs clean" 0 'ids-analyzer: OK' \
      --stats-json="$tmp_stats" "$fixtures/guarded_by/good.cpp"
if command -v python3 >/dev/null 2>&1; then
  if python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("files", "functions", "resolution_ratio", "jobs",
            "parse_seconds", "analyze_seconds", "findings", "per_rule",
            "phase_seconds"):
    assert key in doc, "missing key: " + key
for key in ("lex", "corpus", "callgraph", "rules", "total"):
    assert key in doc["phase_seconds"], "missing phase: " + key
    assert doc["phase_seconds"][key] >= 0
assert "guarded-by" in doc["per_rule"], "per_rule misses guarded-by"
assert "thread-escape" in doc["per_rule"], "per_rule misses thread-escape"
assert "view-invalidation" in doc["per_rule"], "per_rule misses view-invalidation"
assert "dangling-return" in doc["per_rule"], "per_rule misses dangling-return"
' "$tmp_stats"; then
    echo "ok   [stats JSON validates]"
  else
    echo "FAIL [stats JSON validates]" >&2
    failed=1
  fi
fi
rm -f "$tmp_stats"

# --- SARIF -------------------------------------------------------------------

sarif_check() {  # $1 = label, $2 = expected exit, rest = args
  local label="$1" want_exit="$2"
  shift 2
  local out
  out=$("$analyzer" --format=sarif "$@" 2>/dev/null)
  local got=$?
  if [ "$got" -ne "$want_exit" ]; then
    echo "FAIL [$label]: exit $got, wanted $want_exit" >&2
    failed=1
    return
  fi
  if ! echo "$out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["version"] == "2.1.0", "bad version"
assert len(doc["runs"]) == 1, "expected exactly one run"
run = doc["runs"][0]
rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
for rid in ("discarded-status", "unchecked-value", "lock-order",
            "bare-assert", "xfile-lock-order", "blocking-under-lock",
            "wallclock-in-engine", "wrapper-discarded-status",
            "guarded-by", "thread-escape", "shared-state",
            "phase-discipline", "frozen-ingest-guard",
            "view-invalidation", "dangling-return", "temporary-bound-view",
            "task-outlives-capture"):
    assert rid in rules, "missing rule metadata: " + rid
for res in run["results"]:
    assert res["ruleId"] in rules
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"]
    assert loc["region"]["startLine"] >= 1
print(len(run["results"]))
' >/dev/null; then
    echo "FAIL [$label]: SARIF did not validate" >&2
    failed=1
  else
    echo "ok   [$label]"
  fi
}

if command -v python3 >/dev/null 2>&1; then
  sarif_check "SARIF validates (findings)" 1 "$fixtures/discarded_status/bad.cpp"
  sarif_check "SARIF validates (clean)" 0 "$fixtures/discarded_status/good.cpp"
else
  echo "skip [SARIF validation]: python3 not available"
fi

# --- GitHub annotations ------------------------------------------------------

check "github format emits ::error annotations" 1 \
      '::error file=.*bad\.cpp,line=[0-9]+,title=ids-analyzer/discarded-status::' \
      --format=github "$fixtures/discarded_status/bad.cpp"
check "github format is silent on a clean tree" 0 'ids-analyzer: OK' \
      --format=github "$fixtures/discarded_status/good.cpp"
out=$("$analyzer" --format=github "$fixtures/discarded_status/good.cpp" 2>/dev/null)
if [ -z "$out" ]; then
  echo "ok   [github format stdout empty when clean]"
else
  echo "FAIL [github format stdout empty when clean]" >&2
  failed=1
fi

# --- baseline round-trip -----------------------------------------------------

tmp_baseline="$(mktemp)"
trap 'rm -f "$tmp_baseline"' EXIT
check "baseline write still reports findings" 1 'discarded-status' \
      --write-baseline="$tmp_baseline" "$fixtures/discarded_status/bad.cpp"
if ! grep -q 'discarded-status|' "$tmp_baseline"; then
  echo "FAIL [baseline file has keys]: no discarded-status key in $tmp_baseline" >&2
  failed=1
else
  echo "ok   [baseline file has keys]"
fi
check "baselined findings suppressed" 0 'suppressed' \
      --baseline="$tmp_baseline" "$fixtures/discarded_status/bad.cpp"
check "baseline leaves new findings fatal" 1 'bare-assert' \
      --baseline="$tmp_baseline" "$fixtures/discarded_status/bad.cpp" \
      "$fixtures/bare_assert/bad.cpp"
check "missing baseline is an IO error" 2 'cannot read baseline' \
      --baseline=/no/such/baseline "$fixtures/discarded_status/good.cpp"

exit $failed
