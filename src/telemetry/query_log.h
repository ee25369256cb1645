#pragma once

// Per-query resource accounting and the query log (ISSUE 9 tentpole).
//
// A QueryResourceAccount is assembled by the engine over one execute()
// call and answers "what did this query cost, and where": bytes pulled
// per cache tier, rows moved by the exchange layer, UDF model
// executions, the high-water mark of SolutionTable bytes, and — per
// stage — how far the modeled (virtual-clock) time diverged from host
// wall time. The finished account travels three ways:
//
//   * QueryResult::account       — programmatic access for callers;
//   * the trace root span attrs  — so a span tree shows cost next to time;
//   * QueryLog                   — one record per finished query (account
//                                  plus span tree), feeding /statusz and
//                                  /tracez from the same entries.
//
// The account is plain data plus JSON rendering; the engine owns all
// mutation (single-threaded at barrier points), so it needs no locking.
// Only the log is thread-safe.

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/trace.h"

namespace ids::telemetry {

/// Modeled-vs-wall time for one engine stage.
struct StageAccount {
  std::string stage;          // "scan", "filter", "invoke", ...
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Positive when the harness spent more wall time than the model
  /// charged (overhead), negative when the model charges more than the
  /// host actually needed (simulated I/O, modeled FLOPs).
  double divergence_seconds() const { return wall_seconds - modeled_seconds; }
};

/// Bytes and hits served by one cache tier during the query.
struct TierBytes {
  std::string tier;  // a cache::kReadTierNames entry
  std::uint64_t bytes_in = 0;  // payload bytes read from this tier
  std::uint64_t hits = 0;
};

/// Everything one query consumed. See file comment for the data flow.
struct QueryResourceAccount {
  std::uint64_t sequence = 0;  // 1-based completion index, log-assigned

  std::vector<TierBytes> tiers;        // only tiers that served bytes
  std::uint64_t cache_bytes_written = 0;
  std::uint64_t cache_misses = 0;

  std::uint64_t rows_gathered = 0;     // rows merged at gather
  std::uint64_t rows_partitioned = 0;  // rows crossing ranks in exchanges
  std::uint64_t udf_invocations = 0;   // INVOKE model executions
  std::uint64_t peak_solution_bytes = 0;

  std::vector<StageAccount> stages;    // execution order
  double modeled_seconds = 0.0;        // whole-query modeled time
  double wall_seconds = 0.0;           // whole-query host time

  double divergence_seconds() const { return wall_seconds - modeled_seconds; }

  /// Deterministic single-object JSON (format_double doubles), e.g.
  /// {"sequence":3,"modeled_seconds":...,"tiers":[...],"stages":[...]}.
  std::string to_json() const;
};

/// One finished query as published to the QueryLog. The account's
/// `sequence` is the record's number, on /statusz and /tracez alike.
struct QueryRecord {
  QueryResourceAccount account;
  /// The query's own span tree (ids 1..n, at most the tracer's max_spans,
  /// and the spans that cap dropped); empty when the engine had no tracer.
  SpanTree trace;
};

/// Bounded log of the most recent finished queries. The engine pushes one
/// record per execute(); the oldest falls out once `capacity` is reached,
/// so the log holds at most capacity x max_spans spans.
/// /statusz renders the accounts and /tracez the span trees of the same
/// records, so "trace #N" is the query whose account has sequence N.
/// Thread-safe: queries push while HTTP scrapes snapshot.
class QueryLog {
 public:
  explicit QueryLog(std::size_t capacity = 8);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Stores the record, stamping `record.account.sequence` with the next
  /// 1-based completion index, and returns that sequence.
  std::uint64_t push(QueryRecord record) IDS_EXCLUDES(mutex_);

  /// Retained records, oldest first.
  std::vector<QueryRecord> snapshot() const IDS_EXCLUDES(mutex_);
  /// Records ever pushed (>= retained count).
  std::uint64_t total_pushed() const IDS_EXCLUDES(mutex_);

  /// /statusz: {"total":N,"recent":[...]} with accounts newest first.
  std::string accounts_json() const IDS_EXCLUDES(mutex_);
  /// /tracez: text report of every retained record, newest first, each
  /// under a "trace #<sequence>" header.
  std::string traces_text() const IDS_EXCLUDES(mutex_);
  /// /tracez?fmt=json: Chrome JSON of the newest retained record (an
  /// empty trace when the log is empty or that query was untraced).
  std::string newest_trace_json() const IDS_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::vector<QueryRecord> entries_ IDS_GUARDED_BY(mutex_);  // oldest first
  std::uint64_t total_pushed_ IDS_GUARDED_BY(mutex_) = 0;
};

}  // namespace ids::telemetry
