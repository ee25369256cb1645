#pragma once

// Query planning (§2.4).
//
// Two planner responsibilities:
//
//   1. Pattern ordering: greedy selectivity-first join order. The first
//      pattern is the one with the lowest estimated cardinality; each
//      subsequent pick must share a variable with the already-bound set
//      (preferring subject-bound extensions, which resolve to index
//      lookups instead of hash joins).
//
//   2. FILTER conjunct ordering (§2.4.3): each rank reorders the
//      conjunctive chain by ascending estimated evaluation cost from its
//      *own* UDF profile; conjuncts with similar cost (within ~20%) are
//      tie-broken by pruning power (higher rejection rate first). Ranks
//      may legitimately end up with different orders. Costs come from a
//      per-query ProfileSnapshot, so planning p ranks is one O(p·U) copy of
//      the profile plus lock-free arithmetic.

#include <vector>

#include "core/ast.h"
#include "expr/chain.h"
#include "graph/triple_store.h"
#include "udf/profiler.h"

namespace ids::core {

/// Estimated number of matches of a pattern (exact count over the store's
/// shards — affordable at our scale and exact for the planner tests).
std::size_t estimate_cardinality(const graph::TripleStore& store,
                                 const graph::TriplePattern& pattern);

/// Returns an execution order (indices into `patterns`). Patterns
/// unreachable by shared variables are appended at the end (they will
/// execute as cartesian joins).
std::vector<std::size_t> order_patterns(
    const graph::TripleStore& store,
    const std::vector<graph::TriplePattern>& patterns);

/// The profile the FILTER planner reads for `conjuncts`: one snapshot of
/// every UDF they contain, taken once per query and shared by all ranks.
udf::ProfileSnapshot snapshot_profile(
    const std::vector<expr::Conjunct>& conjuncts,
    const udf::UdfProfiler& profiler);

/// Per-conjunct planning estimate.
struct ConjunctEstimate {
  double cost_seconds = 0.0;     // profiled mean cost of contained UDFs
  double rejection_rate = 0.0;   // max rejection rate of contained UDFs
};

ConjunctEstimate estimate_conjunct(const expr::Conjunct& conjunct, int rank,
                                   const udf::ProfileSnapshot& profile);

/// Reorders `conjuncts` for `rank`: ascending cost, ties (within
/// `similar_ratio`) broken by descending rejection rate; equal conjuncts
/// keep their original relative order (stable).
std::vector<std::size_t> order_conjuncts(
    const std::vector<expr::Conjunct>& conjuncts, int rank,
    const udf::ProfileSnapshot& profile, double similar_ratio = 1.2);

/// Estimated seconds for `rank` to push one solution through the chain in
/// the given order: conjunct c's cost is discounted by the probability
/// that evaluation reaches it (product of earlier pass rates). This is the
/// "time to evaluate a single solution" estimate re-balancing exchanges
/// (§2.4.2).
double estimate_solution_seconds(
    const std::vector<expr::Conjunct>& conjuncts,
    const std::vector<std::size_t>& order, int rank,
    const udf::ProfileSnapshot& profile);

// Single-call conveniences: each takes a fresh snapshot of the live
// profiler and forwards to the overload above. Planning many ranks should
// take one snapshot_profile() and reuse it.
std::vector<std::size_t> order_conjuncts(
    const std::vector<expr::Conjunct>& conjuncts, int rank,
    const udf::UdfProfiler& profiler, double similar_ratio = 1.2);
double estimate_solution_seconds(
    const std::vector<expr::Conjunct>& conjuncts,
    const std::vector<std::size_t>& order, int rank,
    const udf::UdfProfiler& profiler);

}  // namespace ids::core
