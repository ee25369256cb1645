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
// Exporters (SpanTree, and the Tracer's whole contents):
//   to_chrome_json()  — Chrome trace_event JSON ("X" complete events,
//                       ts/dur in microseconds of modeled time), loadable
//                       in chrome://tracing and Perfetto. args carry the
//                       exact integer modeled_ns plus all span attributes.
//   to_text_report()  — EXPLAIN ANALYZE-style indented tree with modeled
//                       and wall durations, plus a per-category summary
//                       built on common/stats.h RunningStats.
//
// Recording: a query writes its spans only to its own SpanTree, without a
// lock, and hands the finished tree to the Tracer once (Tracer::append).
// The Tracer is an append-only sink that may be shared by many queries and
// engines; every public method locks its mutex. Recording is bounded by
// `max_spans`, per query tree and per tracer: past the cap new spans are
// dropped (counted, reported in both exports) rather than growing without
// bound on million-row queries.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/time.h"

namespace ids::telemetry {

class Counter;          // metrics.h
class MetricsRegistry;  // metrics.h

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
/// lock. A query records into its own tree, the Tracer keeps one under its
/// mutex, and a QueryRecord holds the finished query's.
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

/// Append-only sink of finished span trees, shared across queries.
class Tracer {
 public:
  /// `metrics` receives the ids_trace_dropped_spans_total counter (spans
  /// rejected by the max_spans cap); nullptr = the process-global
  /// registry. Resolved once here, so counting drops is one lock-free
  /// increment.
  explicit Tracer(std::size_t max_spans = 1u << 16,
                  MetricsRegistry* metrics = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Host wall clock in nanoseconds (steady), the clock of every span's
  /// wall range.
  static std::uint64_t wall_now_ns();

  /// The span cap, of this tracer and of each tree recorded for it.
  std::size_t max_spans() const { return max_spans_; }

  /// Appends a finished tree after the spans already held, renumbering its
  /// ids (its roots stay roots), so one tree is one contiguous block. The
  /// cap drops the tree's tail; those drops and the tree's own are added
  /// to dropped() and to ids_trace_dropped_spans_total.
  void append(SpanTree tree) IDS_EXCLUDES(mutex_);

  /// Spans held.
  std::size_t size() const IDS_EXCLUDES(mutex_);
  /// Spans rejected by a cap, the tracer's or an appended tree's.
  std::uint64_t dropped() const IDS_EXCLUDES(mutex_);

  SpanTree snapshot() const IDS_EXCLUDES(mutex_);
  void clear() IDS_EXCLUDES(mutex_);

  std::string to_chrome_json() const IDS_EXCLUDES(mutex_);
  std::string to_text_report() const IDS_EXCLUDES(mutex_);

 private:
  const std::size_t max_spans_;
  Counter* dropped_counter_;  // ids_trace_dropped_spans_total
  mutable Mutex mutex_;
  SpanTree tree_ IDS_GUARDED_BY(mutex_);
};

}  // namespace ids::telemetry
