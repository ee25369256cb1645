#!/usr/bin/env bash
# Custom lint pass for the IDS tree. Fails (exit 1) on banned patterns:
#
#   1. Naked std::mutex / std::lock_guard / std::condition_variable &co.
#      outside src/common/ — everything else must use the annotated
#      ids::Mutex / ids::MutexLock / ids::CondVar wrappers so Clang's
#      -Wthread-safety analysis covers it.
#   2. #include cycles among repo headers.
#   3. Headers missing #pragma once.
#   4. std::rand / srand / std::random_device / std::mt19937 outside
#      src/common/rng.h — all randomness flows through the deterministic
#      common RNG for reproducibility.
#   5. Node-based hash containers in the engine hot paths (src/core,
#      src/graph).
#   6. (Retired: bare assert( is banned by ids-analyzer [bare-assert].)
#   7. Raw stdout writes (std::cout / printf / fprintf(stdout) / puts) in
#      src/ — library code reports through IDS_LOG (stderr) or the
#      telemetry exporters; stdout belongs to the examples and tools that
#      own the process. src/telemetry/ is exempt (it renders the export
#      formats); snprintf and fprintf(stderr, ...) are always fine. A
#      deliberate use opts out with a trailing `// lint:allow-stdout`.
#   8. std::this_thread::sleep_for / sleep_until in src/ outside src/sim/ —
#      time in the engine is *modeled* (sim::VirtualClock); a host-side
#      sleep stalls a real thread without advancing modeled time and makes
#      tests wall-clock dependent. Only the simulation layer may pace real
#      time. tools/analyzer's [blocking-under-lock] catches the worst case
#      (sleeping under a mutex) interprocedurally; this regex rule bans the
#      primitive outright.
#   9. Mutable static/global state in src/: `static` locals that are not
#      const/constexpr/atomic/thread_local, and namespace-scope `g_*`
#      globals that are not const/atomic/sync — hidden shared state that
#      defeats the concurrent-serving certificate (`ids-analyzer
#      --certify=concurrent-exec` walks the same territory with token
#      fidelity; this regex rule keeps the signal in plain `lint`).
#      src/telemetry/ and src/common/logging.cpp are exempt (process-wide
#      registries and the log level are global by design); a deliberate
#      use opts out with a trailing `// lint:allow-global`.
#  10. Raw SIMD intrinsics outside src/common/simd.* — #include
#      <immintrin.h> (or the narrower *mmintrin headers) and _mm/_mm256
#      calls. Every kernel goes through the dispatched ids::simd layer so
#      the scalar fallback, the determinism contract, and the
#      IDS_SIMD_LEVEL override stay in one place. A deliberate use opts
#      out with a trailing `// lint:allow-intrinsics`.
#  11. Unknown `lint:allow-*` tags. The opt-out vocabulary is a closed set
#      (stdout, global, unordered, intrinsics, sockets); a typo such as
#      `lint:allow-stdio` suppresses nothing while *looking* audited, so
#      any tag outside the set is itself a finding.
#  12. Raw socket headers in src/ outside src/telemetry/ — #include of
#      <sys/socket.h>, <netinet/*.h> or <arpa/inet.h>. The engine is a
#      library with modeled I/O; the only component that opens real
#      sockets is the observability server, and confining the headers
#      keeps it that way (and keeps every other translation unit portable
#      to socketless sandboxes). A deliberate use opts out with a
#      trailing `// lint:allow-sockets`.
#  13. `mutable` fields in src/graph/ + src/store/ — the stores obey the
#      ingest→freeze→serve contract (IDS_FROZEN_AFTER, DESIGN.md §13),
#      and a mutable member is the lazy-prepare shape that lets "const"
#      read paths mutate after the freeze. Atomic, IDS_GUARDED_BY, and
#      sync-primitive (Mutex/CondVar) members are exempt; a deliberate
#      use opts out
#      with a trailing `// lint:allow-mutable`. tools/analyzer's
#      [phase-discipline] enforces the same ban on annotated fields with
#      token fidelity; this regex rule covers unannotated ones too.
#
# Usage: tools/lint.sh [--root DIR]
#   --root DIR   lint DIR instead of the repository (used by the negative
#                fixture tests under tools/lint_fixtures/).

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
while [ $# -gt 0 ]; do
  case "$1" in
    --root) root="$2"; shift 2 ;;
    *) echo "usage: $0 [--root DIR]" >&2; exit 2 ;;
  esac
done

if [ ! -d "$root" ]; then
  echo "lint: no such directory: $root" >&2
  exit 2
fi
cd "$root" || exit 2

dirs=()
for d in src tests bench examples; do
  [ -d "$d" ] && dirs+=("$d")
done
if [ ${#dirs[@]} -eq 0 ]; then
  echo "lint: no source directories under $root" >&2
  exit 2
fi

list_files() {  # $1 = glob suffix
  find "${dirs[@]}" -type f -name "$1" | LC_ALL=C sort
}

failures=0
fail() {
  echo "lint: $1" >&2
  failures=$((failures + 1))
}

# --- 1. naked standard synchronization primitives outside src/common/ ----
while IFS= read -r f; do
  case "$f" in
    src/common/*) continue ;;
  esac
  hits=$(grep -nE 'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable)' "$f")
  if [ -n "$hits" ]; then
    fail "naked std synchronization primitive in $f (use ids::Mutex/MutexLock/CondVar from common/thread_annotations.h):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 2. include cycles among repo headers -------------------------------
# Build the quoted-include edge list (repo-relative resolution: includes
# are rooted at src/, matching the -I layout) and feed it to tsort, which
# reports "input contains a loop" on a cycle.
edges=$(mktemp)
while IFS= read -r f; do
  while IFS= read -r inc; do
    target=""
    if [ -f "src/$inc" ]; then
      target="src/$inc"
    elif [ -f "$(dirname "$f")/$inc" ]; then
      target="$(dirname "$f")/$inc"
    fi
    # Skip system/library includes and self-includes.
    [ -n "$target" ] && [ "$target" != "$f" ] && echo "$f $target"
  done < <(sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$f")
done < <(list_files '*.h') > "$edges"
cycle_report=$(tsort "$edges" 2>&1 >/dev/null)
if echo "$cycle_report" | grep -q 'loop'; then
  fail "#include cycle detected among headers:
$(echo "$cycle_report" | sed 's/^tsort: //')"
fi
rm -f "$edges"

# --- 3. headers missing #pragma once ------------------------------------
while IFS= read -r f; do
  if ! head -5 "$f" | grep -q '^#pragma once'; then
    fail "missing '#pragma once' in $f"
  fi
done < <(list_files '*.h')

# --- 4. raw C/unseeded randomness outside src/common/rng.h --------------
while IFS= read -r f; do
  [ "$f" = "src/common/rng.h" ] && continue
  hits=$(grep -nE 'std::rand\b|[^_[:alnum:]]s?rand\(|std::random_device|std::mt19937|std::default_random_engine' "$f")
  if [ -n "$hits" ]; then
    fail "raw RNG use in $f (use ids::Rng from common/rng.h):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 5. node-based hash containers in engine hot paths ------------------
# src/core/ and src/graph/ hold the query-operator inner loops; per-node
# allocating std::unordered_{map,multimap} were deliberately evicted in
# favor of the flat containers in common/flat_map.h. Cold-path uses
# (per-query config tables, build-time interning) opt out with a trailing
# `// lint:allow-unordered` comment on the offending line.
while IFS= read -r f; do
  case "$f" in
    src/core/*|src/graph/*) ;;
    *) continue ;;
  esac
  hits=$(grep -nE 'std::unordered_(multi)?map' "$f" | grep -v 'lint:allow-unordered')
  if [ -n "$hits" ]; then
    fail "node-based hash container in hot path $f (use FlatGroupIndex/FlatTermSet from common/flat_map.h, or mark a cold-path use with // lint:allow-unordered):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 7. raw stdout writes in src/ ---------------------------------------
# Library code must not claim the process's stdout: logs go to stderr via
# IDS_LOG, structured data goes through the telemetry exporters (which
# return strings). snprintf/fprintf(stderr) never match; whole-line
# comments are skipped; `// lint:allow-stdout` opts a line out.
while IFS= read -r f; do
  case "$f" in
    src/telemetry/*) continue ;;
    src/*) ;;
    *) continue ;;
  esac
  hits=$(grep -nE 'std::cout|(^|[^_[:alnum:]])printf[[:space:]]*\(|fprintf[[:space:]]*\([[:space:]]*stdout|(^|[^_[:alnum:]])puts[[:space:]]*\(' "$f" \
           | grep -v 'lint:allow-stdout' \
           | grep -vE '^[0-9]+:[[:space:]]*//')
  if [ -n "$hits" ]; then
    fail "raw stdout write in $f (log via IDS_LOG, return strings from exporters, or mark a deliberate use with // lint:allow-stdout):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 8. host-side sleeps in src/ outside src/sim/ -----------------------
# Modeled code advances sim::VirtualClock; it never stalls the host. The
# simulation layer itself may pace real time (e.g. when bridging to a
# live process) and is exempt.
while IFS= read -r f; do
  case "$f" in
    src/sim/*) continue ;;
    src/*) ;;
    *) continue ;;
  esac
  hits=$(grep -nE 'std::this_thread::sleep_(for|until)' "$f")
  if [ -n "$hits" ]; then
    fail "host-side sleep in $f (advance the sim::VirtualClock instead; only src/sim/ may pace real time):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 9. mutable static/global state in src/ -----------------------------
# Two shapes: (a) `static` declarations that are neither immutable
# (const/constexpr), synchronized (atomic/Mutex/CondVar), nor per-thread
# (thread_local) — lines with '(' are skipped, which screens out static
# member-function declarations and statics initialized from calls (the
# analyzer's [shared-state] certificate classifies those with full token
# fidelity); (b) declarations of g_-prefixed namespace-scope globals (the
# repo's naming convention for them) lacking the same protections.
while IFS= read -r f; do
  case "$f" in
    src/telemetry/*|src/common/logging.cpp) continue ;;
    src/*) ;;
    *) continue ;;
  esac
  # Blank out opted-out lines wholesale, then strip //-comment tails, so
  # neither prose mentioning "static" nor the escape marker itself match.
  hits=$(sed -e '/lint:allow-global/s/.*//' -e 's|//.*||' "$f" \
           | grep -nE '(^|[[:space:]])static[[:space:]]' \
           | grep -vE 'const|constexpr|atomic|thread_local|Mutex|CondVar|\(')
  if [ -n "$hits" ]; then
    fail "mutable static state in $f (make it const/atomic, guard it, or mark a deliberate use with // lint:allow-global):
$hits"
  fi
  hits=$(sed -e '/lint:allow-global/s/.*//' -e 's|//.*||' "$f" \
           | grep -nE '^[A-Za-z_][A-Za-z0-9_:<>,&* ]*[[:space:]]g_[a-z0-9_]+[[:space:]]*[={;]' \
           | grep -vE 'const|atomic|Mutex|CondVar' \
           | grep -vE '^[0-9]+:[[:space:]]*(return|if|while|for|case|delete|throw)\b')
  if [ -n "$hits" ]; then
    fail "mutable namespace-scope global in $f (make it const/atomic/internally synchronized, or mark a deliberate use with // lint:allow-global):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 10. raw SIMD intrinsics outside src/common/simd.* ------------------
# The dispatch layer is the only place intrinsics may live: everything
# else calls ids::simd, which owns the scalar fallback and the
# cross-level determinism contract. Matches the umbrella and per-ISA
# intrinsic headers plus _mm*/_mm256*/_mm512* calls; comment tails are
# stripped so prose about intrinsics stays legal.
while IFS= read -r f; do
  case "$f" in
    src/common/simd.h|src/common/simd.cpp) continue ;;
  esac
  hits=$(sed -e '/lint:allow-intrinsics/s/.*//' -e 's|//.*||' "$f" \
           | grep -nE '#[[:space:]]*include[[:space:]]*<(immintrin|[a-z]{3}mmintrin|avxintrin|avx2intrin)\.h>|(^|[^_[:alnum:]])_mm(256|512)?_[a-z0-9_]+[[:space:]]*\(')
  if [ -n "$hits" ]; then
    fail "raw SIMD intrinsics in $f (route through ids::simd in common/simd.h, or mark a deliberate use with // lint:allow-intrinsics):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 11. unknown lint:allow-* escape tags -------------------------------
# Rules 5/7/9/10/12/13 honor exactly six tags. Anything else — a typo, or
# a tag invented for a rule that does not read it — would ride along in
# review looking like an audited waiver while suppressing nothing. Closed
# set, enforced here.
while IFS= read -r f; do
  hits=$(grep -noE 'lint:allow-[a-z0-9-]+' "$f" \
           | grep -vE 'lint:allow-(stdout|global|unordered|intrinsics|sockets|mutable)$')
  if [ -n "$hits" ]; then
    fail "unknown lint:allow-* tag in $f (known tags: stdout, global, unordered, intrinsics, sockets, mutable):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 12. raw socket headers in src/ outside src/telemetry/ --------------
# The observability server (src/telemetry/obs_server.cpp) is the single
# place the process touches BSD sockets; everything else models its I/O,
# so a socket include anywhere else is an architecture leak. Comment
# tails are stripped so prose about sockets stays legal.
while IFS= read -r f; do
  case "$f" in
    src/telemetry/*) continue ;;
    src/*) ;;
    *) continue ;;
  esac
  hits=$(sed -e '/lint:allow-sockets/s/.*//' -e 's|//.*||' "$f" \
           | grep -nE '#[[:space:]]*include[[:space:]]*<(sys/socket\.h|netinet/[a-z0-9_]+\.h|arpa/inet\.h)>')
  if [ -n "$hits" ]; then
    fail "raw socket header in $f (real sockets live in src/telemetry/ only; mark a deliberate use with // lint:allow-sockets):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

# --- 13. mutable fields in the frozen stores ----------------------------
# src/graph/ and src/store/ hold the IDS_FROZEN_AFTER stores: after
# freeze() their state is immutable and concurrently readable, and a
# `mutable` member is exactly the lazy-prepare backdoor that breaks the
# contract from a const read path. Synchronized members (atomic or
# IDS_GUARDED_BY) are exempt; comment tails are stripped so prose about
# mutability stays legal; `// lint:allow-mutable` opts a line out.
while IFS= read -r f; do
  case "$f" in
    src/graph/*|src/store/*) ;;
    *) continue ;;
  esac
  hits=$(sed -e '/lint:allow-mutable/s/.*//' -e 's|//.*||' "$f" \
           | grep -nE '(^|[[:space:]])mutable[[:space:]]' \
           | grep -vE 'atomic|IDS_GUARDED_BY|Mutex|CondVar')
  if [ -n "$hits" ]; then
    fail "mutable field in frozen store $f (prepare eagerly in freeze(), make it atomic/IDS_GUARDED_BY, or mark a deliberate use with // lint:allow-mutable):
$hits"
  fi
done < <(list_files '*.h'; list_files '*.cpp')

if [ "$failures" -gt 0 ]; then
  echo "lint: $failures finding(s)" >&2
  exit 1
fi
echo "lint: OK (${#dirs[@]} directories clean)"
exit 0
