#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

namespace ids::core {

namespace {

void add_vars(const graph::TriplePattern& p, std::set<std::string>* vars) {
  if (p.s.is_var) vars->insert(p.s.var);
  if (p.p.is_var) vars->insert(p.p.var);
  if (p.o.is_var) vars->insert(p.o.var);
}

bool shares_var(const graph::TriplePattern& p,
                const std::set<std::string>& vars) {
  return (p.s.is_var && vars.contains(p.s.var)) ||
         (p.p.is_var && vars.contains(p.p.var)) ||
         (p.o.is_var && vars.contains(p.o.var));
}

bool subject_bound(const graph::TriplePattern& p,
                   const std::set<std::string>& vars) {
  return !p.s.is_var || vars.contains(p.s.var);
}

}  // namespace

std::size_t estimate_cardinality(const graph::TripleStore& store,
                                 const graph::TriplePattern& pattern) {
  std::size_t n = 0;
  for (int s = 0; s < store.num_shards(); ++s) {
    n += store.shard(s).count(pattern);
  }
  return n;
}

std::vector<std::size_t> order_patterns(
    const graph::TripleStore& store,
    const std::vector<graph::TriplePattern>& patterns) {
  const std::size_t n = patterns.size();
  std::vector<std::size_t> cardinality(n);
  for (std::size_t i = 0; i < n; ++i) {
    cardinality[i] = estimate_cardinality(store, patterns[i]);
  }

  std::vector<std::size_t> order;
  std::vector<bool> used(n, false);
  std::set<std::string> bound;

  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    // Priority: (connected, subject-bound) > (connected) > any; within a
    // class, lowest cardinality, then lowest index (determinism).
    int best_class = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      int cls;
      if (step == 0) {
        cls = 0;
      } else if (shares_var(patterns[i], bound)) {
        cls = subject_bound(patterns[i], bound) ? 2 : 1;
      } else {
        cls = 0;
      }
      if (best == n || cls > best_class ||
          (cls == best_class && cardinality[i] < cardinality[best])) {
        best = i;
        best_class = cls;
      }
    }
    used[best] = true;
    order.push_back(best);
    add_vars(patterns[best], &bound);
  }
  return order;
}

udf::ProfileTable snapshot_profile(
    const std::vector<expr::Conjunct>& conjuncts,
    const udf::UdfProfiler& profiler) {
  std::vector<std::string> names;
  for (const auto& c : conjuncts) {
    names.insert(names.end(), c.udfs.begin(), c.udfs.end());
  }
  return profiler.snapshot(names);
}

ConjunctEstimate estimate_conjunct(const expr::Conjunct& conjunct, int rank,
                                   const udf::ProfileTable& profile) {
  ConjunctEstimate e;
  for (const auto& name : conjunct.udfs) {
    e.cost_seconds += profile.estimated_cost_seconds(rank, name);
    e.rejection_rate =
        std::max(e.rejection_rate, profile.aggregate(name).rejection_rate());
  }
  return e;
}

std::vector<std::size_t> order_conjuncts(
    const std::vector<expr::Conjunct>& conjuncts, int rank,
    const udf::ProfileTable& profile, double similar_ratio) {
  const std::size_t n = conjuncts.size();
  std::vector<ConjunctEstimate> est(n);
  for (std::size_t i = 0; i < n; ++i) {
    est[i] = estimate_conjunct(conjuncts[i], rank, profile);
  }
  // "Similar computational time" (§2.4.3) is made transitive by bucketing
  // costs logarithmically at the similarity ratio; within a bucket, higher
  // pruning power goes first, and stable sort preserves the written order
  // for full ties.
  const double log_ratio = std::log(similar_ratio);
  std::vector<int> bucket(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cost = est[i].cost_seconds;
    bucket[i] = cost <= 0.0
                    ? std::numeric_limits<int>::min()
                    : static_cast<int>(std::floor(std::log(cost) / log_ratio));
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (bucket[a] != bucket[b]) return bucket[a] < bucket[b];
                     return est[a].rejection_rate > est[b].rejection_rate;
                   });
  return order;
}

double estimate_solution_seconds(
    const std::vector<expr::Conjunct>& conjuncts,
    const std::vector<std::size_t>& order, int rank,
    const udf::ProfileTable& profile) {
  double total = 0.0;
  double reach_probability = 1.0;
  for (std::size_t idx : order) {
    ConjunctEstimate e = estimate_conjunct(conjuncts[idx], rank, profile);
    total += reach_probability * e.cost_seconds;
    reach_probability *= std::max(0.0, 1.0 - e.rejection_rate);
  }
  return total;
}

std::vector<std::size_t> order_conjuncts(
    const std::vector<expr::Conjunct>& conjuncts, int rank,
    const udf::UdfProfiler& profiler, double similar_ratio) {
  return order_conjuncts(conjuncts, rank,
                         snapshot_profile(conjuncts, profiler), similar_ratio);
}

double estimate_solution_seconds(
    const std::vector<expr::Conjunct>& conjuncts,
    const std::vector<std::size_t>& order, int rank,
    const udf::UdfProfiler& profiler) {
  return estimate_solution_seconds(conjuncts, order, rank,
                                   snapshot_profile(conjuncts, profiler));
}

}  // namespace ids::core
