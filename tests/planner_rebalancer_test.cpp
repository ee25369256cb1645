// Planner and rebalancer tests, including the paper's §2.4.2 worked
// example (900 heterogeneous ranks) as a closed-form check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "core/planner.h"
#include "common/rng.h"
#include "core/rebalancer.h"
#include "expr/chain.h"
#include "graph/triple_store.h"

namespace ids::core {
namespace {

using expr::Expr;

TEST(Rebalancer, CountTargetsConserveTotal) {
  auto t = count_based_targets(1001, 10);
  EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::size_t{0}), 1001u);
  // Remainder spread: first one rank gets the extra row.
  EXPECT_EQ(t[0], 101u);
  EXPECT_EQ(t[9], 100u);
}

TEST(Rebalancer, ThroughputTargetsConserveTotal) {
  std::vector<double> tp = {1.0, 2.0, 3.0, 0.5};
  for (std::size_t total : {0u, 1u, 7u, 1000u, 999983u}) {
    auto t = throughput_targets(total, tp);
    EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::size_t{0}), total);
  }
}

TEST(Rebalancer, ThroughputTargetsProportional) {
  std::vector<double> tp = {100.0, 200.0, 300.0};
  auto t = throughput_targets(600, tp);
  EXPECT_EQ(t[0], 100u);
  EXPECT_EQ(t[1], 200u);
  EXPECT_EQ(t[2], 300u);
}

TEST(Rebalancer, PaperWorkedExample) {
  // §2.4.2: 1.4M solutions; 500 ranks @100 ops/s, 300 @200, 100 @300.
  std::vector<double> tp;
  tp.insert(tp.end(), 500, 100.0);
  tp.insert(tp.end(), 300, 200.0);
  tp.insert(tp.end(), 100, 300.0);
  const std::size_t total = 1'400'000;

  auto targets = throughput_targets(total, tp);
  EXPECT_EQ(std::accumulate(targets.begin(), targets.end(), std::size_t{0}),
            total);
  // Slow ranks get 1000 solutions, 2x ranks 2000, 3x ranks 3000
  // (the paper's chunk_size * rank_ratio assignment).
  EXPECT_EQ(targets[0], 1000u);
  EXPECT_EQ(targets[500], 2000u);
  EXPECT_EQ(targets[899], 3000u);

  // Completion: balanced = total / aggregate throughput = 10 s; count-based
  // is bounded by the slowest rank at ~15.6 s. Throughput-based wins by the
  // ratio the paper's example illustrates.
  double balanced = completion_seconds(targets, tp);
  double count_based =
      completion_seconds(count_based_targets(total, 900), tp);
  EXPECT_NEAR(balanced, 10.0, 0.01);
  EXPECT_NEAR(count_based, 1556.0 / 100.0, 0.1);
  EXPECT_LT(balanced, count_based);
}

TEST(Rebalancer, DecideUsesCountWhenSimilar) {
  // All ranks within 20% of the slowest: count-based (the paper's rule).
  std::vector<std::size_t> counts = {10, 20, 30, 0};
  std::vector<double> tp = {100, 110, 105, 119};
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_TRUE(d.rebalance);
  EXPECT_FALSE(d.used_throughput);
  EXPECT_EQ(d.targets, count_based_targets(60, 4));
}

TEST(Rebalancer, DecideUsesThroughputWhenDivergent) {
  std::vector<std::size_t> counts = {30, 30};
  std::vector<double> tp = {100, 300};
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_TRUE(d.used_throughput);
  EXPECT_EQ(d.targets[0], 15u);
  EXPECT_EQ(d.targets[1], 45u);
  EXPECT_NEAR(d.speed_ratio, 3.0, 1e-9);
}

TEST(Rebalancer, MissingProfilesForceCountBased) {
  std::vector<std::size_t> counts = {5, 5};
  std::vector<double> tp = {100, 0.0};  // rank 1 never ran the UDF
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_FALSE(d.used_throughput);
}

TEST(Rebalancer, PolicyNoneDoesNothing) {
  auto d = decide_rebalance(RebalancePolicy::kNone, {1, 2}, {1.0, 2.0});
  EXPECT_FALSE(d.rebalance);
}

TEST(Rebalancer, PolicyCountIgnoresThroughput) {
  auto d = decide_rebalance(RebalancePolicy::kCount, {9, 1}, {100.0, 900.0});
  EXPECT_TRUE(d.rebalance);
  EXPECT_FALSE(d.used_throughput);
}

// --- Pattern ordering -------------------------------------------------------

class PatternOrdering : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<graph::TripleStore>(4);
    // 100 proteins, 10 reviewed, 200 inhibit edges.
    for (int i = 0; i < 100; ++i) {
      std::string p = "prot" + std::to_string(i);
      store_->add(p, "type", "Protein");
      if (i < 10) store_->add(p, "reviewed", "true");
    }
    for (int i = 0; i < 200; ++i) {
      store_->add("cpd" + std::to_string(i % 50), "inhibits",
                  "prot" + std::to_string(i % 100));
    }
    store_->finalize();
  }

  graph::TriplePattern pat(const char* s, const char* p, const char* o) {
    auto term = [this](const char* t) -> graph::PatternTerm {
      if (t[0] == '?') return graph::PatternTerm::Var(t + 1);
      return graph::PatternTerm::Const(*store_->dict().lookup(t));
    };
    return {term(s), term(p), term(o)};
  }

  std::unique_ptr<graph::TripleStore> store_;
};

TEST_F(PatternOrdering, CardinalityEstimatesAreExact) {
  EXPECT_EQ(estimate_cardinality(*store_, pat("?x", "type", "Protein")), 100u);
  EXPECT_EQ(estimate_cardinality(*store_, pat("?x", "reviewed", "true")), 10u);
}

TEST_F(PatternOrdering, MostSelectiveFirstThenConnected) {
  std::vector<graph::TriplePattern> patterns = {
      pat("?p", "type", "Protein"),        // card 100
      pat("?c", "inhibits", "?p"),         // card 200
      pat("?p", "reviewed", "true"),       // card 10  <- should go first
  };
  auto order = order_patterns(*store_, patterns);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // reviewed (10)
  EXPECT_EQ(order[1], 0u);  // type (100), subject-bound extension
  EXPECT_EQ(order[2], 1u);  // inhibits joins last
}

TEST_F(PatternOrdering, DisconnectedPatternsGoLast) {
  std::vector<graph::TriplePattern> patterns = {
      pat("?a", "reviewed", "true"),
      pat("?z", "inhibits", "?w"),  // shares nothing with ?a
  };
  auto order = order_patterns(*store_, patterns);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

// --- Conjunct ordering ------------------------------------------------------

/// Publishes one finished query's tally to `prof`: `execs` executions of
/// `name` on `rank` costing `cost` each, `rejects` of them rejecting.
void publish(udf::UdfProfiler& prof, int rank, const std::string& name,
             std::uint64_t execs, sim::Nanos cost, std::uint64_t rejects = 0) {
  udf::ProfileTable tally({name}, prof.num_ranks());
  tally.row(rank)[0] = {execs, cost * static_cast<sim::Nanos>(execs), rejects};
  prof.publish(tally);
}

TEST(ConjunctOrdering, AscendingProfiledCost) {
  udf::UdfProfiler prof(1);
  publish(prof, 0, "cheap", 1, sim::from_millis(1));
  publish(prof, 0, "mid", 1, sim::from_seconds(0.2));
  publish(prof, 0, "costly", 1, sim::from_seconds(30));

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("costly", {}), {"costly"}},
      {Expr::Udf("cheap", {}), {"cheap"}},
      {Expr::Udf("mid", {}), {"mid"}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ConjunctOrdering, TieBrokenByRejectionRate) {
  udf::UdfProfiler prof(1);
  // Equal cost; g rejects more.
  publish(prof, 0, "f", 10, sim::from_seconds(1.0), 1);
  publish(prof, 0, "g", 10, sim::from_seconds(1.0), 8);

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("f", {}), {"f"}},
      {Expr::Udf("g", {}), {"g"}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));  // g first
}

TEST(ConjunctOrdering, UnprofiledKeepsOriginalOrder) {
  udf::UdfProfiler prof(1);
  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("a", {}), {"a"}},
      {Expr::Udf("b", {}), {"b"}},
      {Expr::Constant(true), {}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ConjunctOrdering, PerRankOrdersDiffer) {
  udf::UdfProfiler prof(2);
  // Rank 0 finds f cheap; rank 1 finds f expensive. Enough samples that
  // the shrinkage toward the aggregate trusts the per-rank means.
  constexpr std::uint64_t kFull = udf::UdfProfiler::kFullConfidenceExecs;
  publish(prof, 0, "f", kFull, sim::from_millis(1));
  publish(prof, 1, "f", kFull, sim::from_seconds(10));
  publish(prof, 0, "g", kFull, sim::from_seconds(1));
  publish(prof, 1, "g", kFull, sim::from_seconds(1));

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("f", {}), {"f"}},
      {Expr::Udf("g", {}), {"g"}},
  };
  auto o0 = order_conjuncts(conj, 0, prof);
  auto o1 = order_conjuncts(conj, 1, prof);
  EXPECT_EQ(o0, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(o1, (std::vector<std::size_t>{1, 0}));
}

TEST(ConjunctOrdering, SolutionTimeEstimateDiscountsBySelectivity) {
  udf::UdfProfiler prof(1);
  publish(prof, 0, "first", 10, sim::from_seconds(1.0), 9);  // rejects 90%
  publish(prof, 0, "second", 10, sim::from_seconds(10.0));

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("first", {}), {"first"}},
      {Expr::Udf("second", {}), {"second"}},
  };
  std::vector<std::size_t> order = {0, 1};
  double est = estimate_solution_seconds(conj, order, 0, prof);
  // 1.0 + 0.1 * 10.0 = 2.0 (the second conjunct runs only 10% of the time).
  EXPECT_NEAR(est, 2.0, 1e-9);
}

// --- Profile snapshot equivalence --------------------------------------------
//
// The planner reads one snapshot of the profile per query. Its orders and
// estimates must equal, bit for bit, a reference computed straight from
// every execution and reject the published queries carried, summed per
// rank and merged over ranks for the aggregate.

/// [rank] -> UDF -> stats: what the published tallies add up to.
using RefProfile = std::vector<std::map<std::string, udf::UdfStats>>;

udf::UdfStats ref_stats(const RefProfile& ref, int rank,
                        const std::string& name) {
  const auto& m = ref[static_cast<std::size_t>(rank)];
  auto it = m.find(name);
  return it == m.end() ? udf::UdfStats{} : it->second;
}

udf::UdfStats ref_aggregate(const RefProfile& ref, const std::string& name) {
  udf::UdfStats agg;
  for (std::size_t r = 0; r < ref.size(); ++r) {
    agg.merge(ref_stats(ref, static_cast<int>(r), name));
  }
  return agg;
}

struct RefEstimate {
  double cost = 0.0;
  double reject = 0.0;
};

RefEstimate ref_estimate(const RefProfile& ref, const expr::Conjunct& c,
                         int rank) {
  RefEstimate e;
  for (const auto& name : c.udfs) {
    const udf::UdfStats agg = ref_aggregate(ref, name);
    const udf::UdfStats s = ref_stats(ref, rank, name);
    double cost = agg.mean_cost_seconds();
    if (s.execs != 0) {
      double w = std::min(
          1.0, static_cast<double>(s.execs) /
                   static_cast<double>(udf::UdfProfiler::kFullConfidenceExecs));
      cost = (1.0 - w) * cost + w * s.mean_cost_seconds();
    }
    e.cost += cost;
    e.reject = std::max(e.reject, agg.rejection_rate());
  }
  return e;
}

std::vector<std::size_t> ref_order(const RefProfile& ref,
                                   const std::vector<expr::Conjunct>& conj,
                                   int rank) {
  std::vector<RefEstimate> est;
  for (const auto& c : conj) est.push_back(ref_estimate(ref, c, rank));
  auto bucket = [](double cost) {
    if (cost <= 0.0) return std::numeric_limits<int>::min();
    return static_cast<int>(std::floor(std::log(cost) / std::log(1.2)));
  };
  std::vector<std::size_t> order(conj.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (bucket(est[a].cost) != bucket(est[b].cost)) {
                       return bucket(est[a].cost) < bucket(est[b].cost);
                     }
                     return est[a].reject > est[b].reject;
                   });
  return order;
}

double ref_solution_seconds(const RefProfile& ref,
                            const std::vector<expr::Conjunct>& conj,
                            const std::vector<std::size_t>& order, int rank) {
  double total = 0.0;
  double reach = 1.0;
  for (std::size_t idx : order) {
    RefEstimate e = ref_estimate(ref, conj[idx], rank);
    total += reach * e.cost;
    reach *= std::max(0.0, 1.0 - e.reject);
  }
  return total;
}

/// Random per-rank profile, published as three queries' tallies: each
/// (rank, UDF) gets no executions, fewer than kFullConfidenceExecs, or
/// more, with random costs and rejects, each execution in a random one of
/// the three tallies. Returns what the tallies add up to.
RefProfile fill_random_profile(udf::UdfProfiler* prof,
                               const std::vector<std::string>& udfs,
                               Rng* rng) {
  constexpr std::uint64_t kFull = udf::UdfProfiler::kFullConfidenceExecs;
  const int p = prof->num_ranks();
  RefProfile ref(static_cast<std::size_t>(p));
  // Each query names the UDFs in its own order.
  std::vector<udf::ProfileTable> queries;
  for (std::size_t q = 0; q < 3; ++q) {
    std::vector<std::string> names = udfs;
    std::rotate(names.begin(), names.begin() + static_cast<long>(q % udfs.size()),
                names.end());
    queries.emplace_back(names, p);
  }
  for (int r = 0; r < p; ++r) {
    for (const auto& name : udfs) {
      std::uint64_t execs = 0;
      switch (rng->next_below(3)) {
        case 0: break;
        case 1:
          execs = 1 + rng->next_below(kFull - 1);
          break;
        default:
          execs = kFull + rng->next_below(30);
      }
      for (std::uint64_t i = 0; i < execs; ++i) {
        udf::ProfileTable& q = queries[rng->next_below(queries.size())];
        const auto at = static_cast<std::size_t>(
            std::find(q.names().begin(), q.names().end(), name) -
            q.names().begin());
        udf::UdfStats one{1, static_cast<sim::Nanos>(1 + rng->next_below(5'000'000)),
                          rng->next_below(3) == 0 ? 1u : 0u};
        q.row(r)[at].merge(one);
        ref[static_cast<std::size_t>(r)][name].merge(one);
      }
    }
  }
  for (const udf::ProfileTable& q : queries) prof->publish(q);
  return ref;
}

TEST(ProfileTable, PlannerMatchesPublishedReferenceBitForBit) {
  const std::vector<std::string> seen = {"a", "b", "c", "d"};
  // "a" appears in three conjuncts (once alongside "b"), "ghost" was never
  // executed anywhere, and one conjunct calls no UDF at all.
  const std::vector<expr::Conjunct> conj = {
      {Expr::Udf("c", {}), {"c"}},
      {Expr::Udf("a", {}), {"a"}},
      {Expr::Udf("ghost", {}), {"ghost"}},
      {Expr::Udf("a", {}), {"a", "b"}},
      {Expr::Constant(true), {}},
      {Expr::Udf("d", {}), {"d", "a"}},
  };
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    udf::UdfProfiler prof(37);
    const RefProfile ref = fill_random_profile(&prof, seen, &rng);

    const udf::ProfileTable snap = snapshot_profile(conj, prof);
    for (const auto& name : seen) {
      const udf::UdfStats agg = ref_aggregate(ref, name);
      EXPECT_EQ(snap.aggregate(name).execs, agg.execs);
      EXPECT_EQ(snap.aggregate(name).total_time, agg.total_time);
      EXPECT_EQ(snap.aggregate(name).rejects, agg.rejects);
      EXPECT_EQ(prof.aggregate(name).total_time, agg.total_time);
    }
    for (int r = 0; r < prof.num_ranks(); ++r) {
      const auto order = order_conjuncts(conj, r, snap);
      EXPECT_EQ(order, ref_order(ref, conj, r)) << "rank " << r;
      EXPECT_EQ(order, order_conjuncts(conj, r, prof)) << "rank " << r;
      EXPECT_EQ(estimate_solution_seconds(conj, order, r, snap),
                ref_solution_seconds(ref, conj, order, r))
          << "rank " << r;
      for (const auto& c : conj) {
        const ConjunctEstimate e = estimate_conjunct(c, r, snap);
        const RefEstimate ref_e = ref_estimate(ref, c, r);
        EXPECT_EQ(e.cost_seconds, ref_e.cost);
        EXPECT_EQ(e.rejection_rate, ref_e.reject);
      }
      for (const auto& name : seen) {
        const udf::UdfStats s = ref_stats(ref, r, name);
        EXPECT_EQ(snap.get(r, name).execs, s.execs);
        EXPECT_EQ(snap.get(r, name).total_time, s.total_time);
        EXPECT_EQ(snap.get(r, name).rejects, s.rejects);
      }
    }
  }
}

TEST(ProfileTable, LaterPublishesDoNotChangeASnapshot) {
  const std::vector<expr::Conjunct> conj = {
      {Expr::Udf("f", {}), {"f"}},
      {Expr::Udf("g", {}), {"g"}},
  };
  Rng rng(9);
  udf::UdfProfiler prof(8);
  fill_random_profile(&prof, {"f", "g"}, &rng);

  const udf::ProfileTable snap = snapshot_profile(conj, prof);
  std::vector<std::vector<std::size_t>> orders;
  std::vector<double> estimates;
  std::vector<std::uint64_t> execs;
  for (int r = 0; r < prof.num_ranks(); ++r) {
    orders.push_back(order_conjuncts(conj, r, snap));
    estimates.push_back(
        estimate_solution_seconds(conj, orders.back(), r, snap));
    execs.push_back(snap.get(r, "f").execs);
  }

  // Make f far more expensive and g a perfect filter everywhere.
  for (int r = 0; r < prof.num_ranks(); ++r) {
    publish(prof, r, "f", 64, sim::from_seconds(100.0));
    publish(prof, r, "g", 64, sim::from_millis(1), 64);
  }

  const udf::ProfileTable now = snapshot_profile(conj, prof);
  for (int r = 0; r < prof.num_ranks(); ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_EQ(order_conjuncts(conj, r, snap), orders[ru]);
    EXPECT_EQ(estimate_solution_seconds(conj, orders[ru], r, snap),
              estimates[ru]);
    EXPECT_EQ(snap.get(r, "f").execs, execs[ru]);
    EXPECT_EQ(now.get(r, "f").execs, execs[ru] + 64);
  }
}

}  // namespace
}  // namespace ids::core
