#pragma once

// Query tracing: a span tree per IdsEngine::execute.
//
// Spans form a tree — query → stage → per-rank operator → per-call
// (UDF exec, cache get/put) — and every span carries TWO time ranges:
//
//   virt_start/virt_end — modeled virtual-clock time (sim::Nanos) on the
//                         timeline the span ran on. This is the time the
//                         simulation reports to the user, so the Chrome
//                         trace is laid out on the modeled clock.
//   wall_start/wall_end — host wall-clock nanoseconds, recorded so the
//                         overhead of the harness itself stays visible.
//
// Timelines map to Chrome trace "threads": tid 0 is the engine's barrier
// timeline (query + stage spans), tid r+1 is rank r's virtual clock.
//
// Exporters (SpanTree):
//   to_chrome_json()  — Chrome trace_event JSON ("X" complete events,
//                       ts/dur in microseconds of modeled time), loadable
//                       in chrome://tracing and Perfetto. args carry the
//                       exact integer modeled_ns plus all span attributes.
//   to_text_report()  — EXPLAIN ANALYZE-style indented tree with modeled
//                       and wall durations, plus a per-category summary
//                       built on common/stats.h RunningStats.
//
// Recording: a query writes its spans only to its own SpanTree, without a
// lock, and moves the finished tree into its QueryLog record
// (telemetry/query_log.h), the one place a finished query's spans go.
// Recording is bounded by the log's `max_spans`: past the cap new spans
// are dropped (counted, reported in both exports) rather than growing
// without bound on million-row queries.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ids::telemetry {

/// Host wall clock in nanoseconds (steady), the clock of every span's wall
/// range and the one wall-clock read the engine layers may make.
std::uint64_t wall_now_ns();

/// 1-based span handle; 0 means "no span" (parentless, or tracing off).
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  std::string name;
  std::string category;  // "query", "stage", "rank", "udf", "cache", ...
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int rank = -1;  // -1 = engine barrier timeline, >= 0 = that rank's clock
  sim::Nanos virt_start = 0;
  sim::Nanos virt_end = 0;
  std::uint64_t wall_start_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  sim::Nanos virt_duration() const { return virt_end - virt_start; }
};

/// A span list in recording order: a span's id is its 1-based position
/// and its parent comes before it (kNoSpan for a root). Plain data with no
/// lock. A query records into its own tree, and a QueryRecord holds the
/// finished query's.
struct SpanTree {
  std::vector<Span> spans;
  std::uint64_t dropped = 0;  // spans the cap rejected, each counted once

  /// Appends `batch` in its order and returns the new id of its first span
  /// (kNoSpan if none was kept). In `batch` a span's id is its 1-based
  /// position and a parent of kNoSpan stands for `parent`; both are
  /// renumbered into this tree. Past `cap` spans the batch's tail is
  /// dropped and counted (parents come before their children, so a kept
  /// span never loses its parent).
  SpanId append(std::vector<Span> batch, SpanId parent, std::size_t cap);

  /// The span `id`, or nullptr for kNoSpan and for a span the cap dropped.
  Span* find(SpanId id);

  /// Chrome trace_event JSON (see the file comment).
  std::string to_chrome_json() const;
  /// EXPLAIN ANALYZE-style indented tree plus a per-category summary.
  std::string to_text_report() const;
};

}  // namespace ids::telemetry
