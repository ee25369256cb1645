#pragma once

// The IDS engine: a massively parallel query executor over the 3-in-1
// datastore (§2.2), with UDF profiling (§2.4.1), solution re-balancing
// (§2.4.2), FILTER chain reordering (§2.4.3), and global-cache-backed
// model invocation (§3).
//
// Execution model: ranks are first-class objects (see src/runtime).
// Shard i of every store belongs to rank i; operators run real
// computation per rank on a thread pool while modeled time accrues on
// per-rank virtual clocks, and collectives (shuffles, gathers) charge the
// alpha-beta fabric model and synchronize clocks. A query's reported time
// is the critical-path (max-over-ranks) virtual time, stage by stage.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/manager.h"
#include "core/ast.h"
#include "core/rebalancer.h"
#include "graph/solution.h"
#include "graph/triple_store.h"
#include "models/cost_profile.h"
#include "runtime/hetero.h"
#include "runtime/topology.h"
#include "store/feature_store.h"
#include "store/inverted_index.h"
#include "store/vector_store.h"
#include "telemetry/metrics.h"
#include "telemetry/query_log.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids::core {

struct EngineOptions {
  runtime::Topology topology = runtime::Topology::laptop();
  /// Per-rank relative speeds; empty = homogeneous.
  runtime::HeteroProfile hetero;
  /// Kernel cost calibration (see models/cost_profile.h).
  models::CostProfile costs;
  RebalancePolicy rebalance = RebalancePolicy::kThroughput;
  /// §2.4.3 conjunct reordering; off = evaluate FILTERs as written.
  bool reorder_filters = true;
  /// Scale-model knob (DESIGN.md): each physical element stands for
  /// `row_multiplier` logical elements of the paper-scale run. Graph
  /// operator costs (scan/join/distinct) scale by it, and each FILTER
  /// conjunct evaluation is charged as `row_multiplier` logical
  /// evaluations — unless the conjunct's UDF has an explicit override in
  /// `udf_call_multiplier`. This reproduces the paper's stage populations
  /// (66M SW comparisons but only thousands of DTBA inferences) without
  /// distorting per-call costs. INVOKE executions are always modeled once.
  /// Leave at 1 for real workloads.
  double row_multiplier = 1.0;
  /// Per-UDF logical-call multipliers overriding row_multiplier in FILTER
  /// conjuncts that reference the UDF (e.g. {"ncnpr.dtba", 20}).
  // Cold path: consulted once per conjunct at plan time, never per row.
  std::unordered_map<std::string, double> udf_call_multiplier;  // lint:allow-unordered
  /// Optional global distributed cache for INVOKE clauses.
  cache::CacheManager* cache = nullptr;
  /// Metrics sink for engine instruments (ids_engine_queries_total,
  /// ids_engine_stage_seconds, ids_engine_rebalance_total) and the
  /// queries' ids_udf_exec_seconds / ids_udf_rejects_total. nullptr = the
  /// process-global registry.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Finished-query log (see src/telemetry/query_log.h): when set, every
  /// execute() pushes one record — its resource account, plus its span
  /// tree when the log's max_spans is positive — feeding the obs server's
  /// /statusz and /tracez. The log assigns `QueryResult::account.sequence`.
  /// The span tree runs query → stage → per-rank operator → per-call (UDF
  /// exec, cache get/put), with modeled and wall time on every span. No
  /// log, or a log with max_spans 0 = no tracing (and no tracing overhead
  /// on the hot path).
  telemetry::QueryLog* query_log = nullptr;
  std::uint64_t seed = 0x1D5;
};

struct StageTiming {
  std::string stage;     // "scan", "join", "rebalance", "filter", ...
  double seconds = 0.0;  // modeled critical-path time of the stage
};

struct QueryResult {
  graph::SolutionTable solutions;  // gathered, ordered, limited, projected
  double total_seconds = 0.0;
  std::vector<StageTiming> stages;  // derived from account.stages

  std::size_t rows_after_patterns = 0;
  std::size_t rows_after_filters = 0;
  std::size_t rows_invoked = 0;
  std::size_t cache_hits = 0;    // the query's own INVOKE cache reads,
  std::size_t cache_misses = 0;  // like account.tiers
  bool used_throughput_rebalance = false;

  /// Per-query resource accounting (ISSUE 9): cache bytes by serving
  /// tier, rows moved, UDF executions, peak SolutionTable bytes, and
  /// per-stage modeled-vs-wall divergence. Always populated.
  telemetry::QueryResourceAccount account;

  /// Sum of stage times whose name starts with `prefix`.
  double stage_seconds(std::string_view prefix) const;
  /// Total minus stages whose name starts with `prefix` (e.g. the paper's
  /// "excluding docking" analysis of Fig 4).
  double seconds_excluding(std::string_view prefix) const;
};

class IdsEngine {
 public:
  /// All stores must be sharded with num_shards == topology.num_ranks()
  /// (shard i lives on rank i); `keywords`/`vectors` are optional.
  IdsEngine(EngineOptions options, graph::TripleStore* triples,
            store::FeatureStore* features,
            store::InvertedIndex* keywords = nullptr,
            store::VectorStore* vectors = nullptr);

  const EngineOptions& options() const { return options_; }
  udf::UdfRegistry& registry() { return registry_; }
  udf::UdfProfiler& profiler() { return profiler_; }

  /// Executes a query. Deterministic for a given engine state; profiling
  /// data accumulated by earlier queries influences planning of later
  /// ones (§2.4.1: the profile store is continually updated). The query
  /// runs the UDF versions registered when it starts, and its UDF
  /// profile reaches profiler() once, when it finishes.
  QueryResult execute(const Query& query);

  /// Human-readable execution plan for the query *as it would run now*
  /// (pattern order with cardinality estimates, FILTER conjunct order
  /// from the current profiles, rank order divergence, invoke stages).
  /// Does not execute anything or touch the profiles.
  std::string explain(const Query& query) const;

 private:
  EngineOptions options_;
  graph::TripleStore* triples_;
  store::FeatureStore* features_;
  store::InvertedIndex* keywords_;
  store::VectorStore* vectors_;
  udf::UdfRegistry registry_;
  udf::UdfProfiler profiler_;
};

}  // namespace ids::core
