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
// Locking contract: the store is sharded by rank, one mutex per shard.
// A rank's record_* calls only touch its own shard, so recording is
// uncontended on the hot path. The planner never reads the live shards:
// once per query, between stage barriers, it takes a ProfileSnapshot of
// the query's UDFs (one pass, one lock per shard) and plans every rank
// from that immutable copy without taking a lock. The snapshot is the
// planner's single read path; records made after it do not change it.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

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

/// Immutable copy of the per-rank stats of a fixed set of UDFs, plus their
/// cross-rank aggregates: what the planner reads to order and cost one
/// query's FILTER chain on every rank. A plain value; reads take no locks.
class ProfileSnapshot {
 public:
  /// `name`'s stats on `rank`; zeroed if never seen there. `name` must be
  /// one of the UDFs the snapshot was taken for.
  const UdfStats& get(int rank, std::string_view name) const {
    return per_rank_[static_cast<std::size_t>(rank) * names_.size() +
                     index_of(name)];
  }

  /// `name`'s stats aggregated over all ranks.
  const UdfStats& aggregate(std::string_view name) const {
    return aggregate_[index_of(name)];
  }

  /// Estimated mean cost of one execution on `rank`: the rank's own mean,
  /// shrunk toward the cross-rank aggregate by sample count (see
  /// UdfProfiler::kFullConfidenceExecs). Falls back to the aggregate (then
  /// 0) for UDFs the rank (or every rank) never ran.
  double estimated_cost_seconds(int rank, std::string_view name) const;

 private:
  friend class UdfProfiler;

  std::size_t index_of(std::string_view name) const;

  std::vector<std::string> names_;   // distinct, in first-requested order
  std::vector<UdfStats> per_rank_;   // [rank * names_.size() + udf]
  std::vector<UdfStats> aggregate_;  // [udf]
};

class UdfProfiler {
 public:
  /// `metrics` mirrors every record into the registry — an
  /// ids_udf_exec_seconds{udf=...} histogram of modeled per-exec cost and
  /// an ids_udf_rejects_total{udf=...} counter — so UDF latency
  /// distributions appear in the Prometheus exposition alongside the
  /// planner's own per-rank store. nullptr disables mirroring.
  explicit UdfProfiler(int num_ranks,
                       telemetry::MetricsRegistry* metrics = nullptr)
      : metrics_(metrics), per_rank_(static_cast<std::size_t>(num_ranks)) {}

  int num_ranks() const { return static_cast<int>(per_rank_.size()); }

  /// Records one execution on `rank`. Safe to call concurrently from
  /// different ranks, and concurrently with cross-rank readers.
  void record_exec(int rank, std::string_view name, sim::Nanos cost) {
    if (metrics_ != nullptr) {
      metrics_
          ->histogram("ids_udf_exec_seconds",
                      telemetry::latency_seconds_buckets(),
                      {{"udf", std::string(name)}})
          ->observe(sim::to_seconds(cost));
    }
    Shard& shard = per_rank_[static_cast<std::size_t>(rank)];
    MutexLock lock(shard.mutex);
    auto& s = shard.stats[std::string(name)];
    ++s.execs;
    s.total_time += cost;
  }

  /// Records that `name`'s evaluation rejected an expression on `rank`.
  void record_reject(int rank, std::string_view name) {
    if (metrics_ != nullptr) {
      metrics_
          ->counter("ids_udf_rejects_total", {{"udf", std::string(name)}})
          ->inc();
    }
    Shard& shard = per_rank_[static_cast<std::size_t>(rank)];
    MutexLock lock(shard.mutex);
    ++shard.stats[std::string(name)].rejects;
  }

  /// Snapshot of one UDF's stats on one rank; zeroed stats if never seen
  /// there. (A snapshot, not a pointer: the entry may be updated
  /// concurrently by the owning rank.)
  UdfStats get(int rank, std::string_view name) const {
    Shard& shard = per_rank_[static_cast<std::size_t>(rank)];
    MutexLock lock(shard.mutex);
    auto it = shard.stats.find(std::string(name));
    return it == shard.stats.end() ? UdfStats{} : it->second;
  }

  /// Copies the stats of `names` (duplicates allowed) on every rank, one
  /// lock per shard, and aggregates them across ranks.
  ProfileSnapshot snapshot(const std::vector<std::string>& names) const;

  /// Stats aggregated over all ranks (a one-UDF snapshot).
  UdfStats aggregate(std::string_view name) const {
    return snapshot({std::string(name)}).aggregate(name);
  }

  /// Executions a rank needs before its own mean is fully trusted. Below
  /// this, the estimate shrinks toward the cross-rank aggregate: with a
  /// handful of samples, per-rank means mostly reflect *which rows* the
  /// rank happened to evaluate (data skew), not how fast the rank is, and
  /// trusting them would let the re-balancer assign nearly all solutions
  /// to a rank whose one sampled row was cheap.
  static constexpr std::uint64_t kFullConfidenceExecs = 16;

  /// ProfileSnapshot::estimated_cost_seconds over a one-UDF snapshot.
  double estimated_cost_seconds(int rank, std::string_view name) const {
    return snapshot({std::string(name)}).estimated_cost_seconds(rank, name);
  }

  void clear() {
    for (Shard& shard : per_rank_) {
      MutexLock lock(shard.mutex);
      shard.stats.clear();
    }
  }

 private:
  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::string, UdfStats> stats IDS_GUARDED_BY(mutex);
  };

  telemetry::MetricsRegistry* metrics_;
  // mutable: const readers (get/snapshot) still lock the shard mutexes.
  mutable std::vector<Shard> per_rank_;
};

}  // namespace ids::udf
