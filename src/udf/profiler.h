#pragma once

// Per-rank UDF profiling (§2.4.1).
//
// For every UDF, each rank tracks exactly the three statistics the paper
// lists: (i) execution count, (ii) total execution time, and (iii) the
// number of query expressions rejected due to the UDF. The planner uses
// mean cost for chain reordering (§2.4.3) and per-rank throughput for
// solution re-balancing (§2.4.2). The store is continually updated over
// the lifetime of an IDS instance — stats persist across queries.
//
// One value type, ProfileTable, holds these stats for the planner's
// per-query snapshot, a running query's own tally, and the profiler's
// running totals. A query's rank r tallies into row r of the query's
// table without a lock, and the query publishes the table once when it
// ends (UdfProfiler::publish, one lock). The planner plans every rank
// from a snapshot taken before the query's first UDF call, so nothing a
// query writes is read while it runs.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/time.h"

namespace ids::udf {

struct UdfStats {
  std::uint64_t execs = 0;
  sim::Nanos total_time = 0;
  std::uint64_t rejects = 0;

  /// Mean modeled seconds per execution; 0 when never executed.
  double mean_cost_seconds() const {
    return execs == 0 ? 0.0
                      : sim::to_seconds(total_time) / static_cast<double>(execs);
  }

  /// Fraction of executions that rejected the enclosing expression —
  /// the planner's pruning-power estimate. 0 when never executed.
  double rejection_rate() const {
    return execs == 0 ? 0.0
                      : static_cast<double>(rejects) / static_cast<double>(execs);
  }

  void merge(const UdfStats& other) {
    execs += other.execs;
    total_time += other.total_time;
    rejects += other.rejects;
  }
};

/// The per-rank stats of a set of UDFs and their cross-rank aggregates; a
/// plain value that takes no locks. A table holds ranks x UDFs x 24 bytes
/// (about 200 KB for a query naming 4 UDFs on 2048 ranks).
class ProfileTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ProfileTable() = default;
  /// Zeroed stats of `names` (each distinct name once) on `num_ranks` ranks.
  ProfileTable(const std::vector<std::string>& names, int num_ranks);

  const std::vector<std::string>& names() const { return names_; }
  /// Index of `name` in names(); npos if absent.
  std::size_t index_of(std::string_view name) const;

  /// `name`'s stats on `rank`, and over all ranks; zeroed if absent.
  const UdfStats& get(int rank, std::string_view name) const;
  const UdfStats& aggregate(std::string_view name) const;

  /// Estimated mean cost of one execution on `rank`: the rank's own mean,
  /// shrunk toward the cross-rank aggregate by sample count (see
  /// UdfProfiler::kFullConfidenceExecs). Falls back to the aggregate (then
  /// 0) for UDFs the rank (or every rank) never ran.
  double estimated_cost_seconds(int rank, std::string_view name) const;

  /// Rank `rank`'s cells, indexed like names(). Writes here reach
  /// aggregate() at the next sum_ranks().
  std::span<UdfStats> row(int rank);
  void sum_ranks();

  /// Adds `other`'s rows (same rank count) to this table's rows and
  /// aggregates, adding the names this table lacks.
  void add(const ProfileTable& other);

  /// A copy of `names`' rows and aggregates; zeroed for absent names.
  ProfileTable select(const std::vector<std::string>& names) const;

 private:
  std::vector<std::string> names_;   // distinct
  int num_ranks_ = 0;
  std::vector<UdfStats> per_rank_;   // [rank * names_.size() + udf]
  std::vector<UdfStats> aggregate_;  // [udf]
};

/// The running totals every finished query publishes into.
class UdfProfiler {
 public:
  explicit UdfProfiler(int num_ranks)
      : num_ranks_(num_ranks), table_({}, num_ranks) {}

  int num_ranks() const { return num_ranks_; }

  /// Adds one finished query's tally to the totals under one lock, so
  /// readers see whole queries.
  void publish(const ProfileTable& tally) IDS_EXCLUDES(mutex_);

  /// The stats of `names` (duplicates allowed): what the planner reads.
  ProfileTable snapshot(const std::vector<std::string>& names) const
      IDS_EXCLUDES(mutex_);

  /// Stats aggregated over all ranks; zeroed for a UDF never published.
  UdfStats aggregate(std::string_view name) const IDS_EXCLUDES(mutex_);

  /// Executions a rank needs before its own mean is fully trusted. Below
  /// this, the estimate shrinks toward the cross-rank aggregate: with a
  /// handful of samples, per-rank means mostly reflect *which rows* the
  /// rank happened to evaluate (data skew), not how fast the rank is, and
  /// trusting them would let the re-balancer assign nearly all solutions
  /// to a rank whose one sampled row was cheap.
  static constexpr std::uint64_t kFullConfidenceExecs = 16;

  void clear() IDS_EXCLUDES(mutex_);

 private:
  const int num_ranks_;
  mutable Mutex mutex_;
  ProfileTable table_ IDS_GUARDED_BY(mutex_);
};

}  // namespace ids::udf
