// End-to-end engine tests on small hand-checkable graphs: operator
// correctness, FILTER semantics and planner invariance, rebalancing
// effects under heterogeneity, DISTINCT, INVOKE with and without the
// global cache (including exact cache keys), stage timing accounting,
// and the constructor's checks on its options.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <set>

#include "core/engine.h"
#include "core/workflow.h"

namespace ids::core {
namespace {

using expr::CmpOp;
using expr::Expr;
using graph::PatternTerm;
using graph::TermId;

/// Tiny social-style graph fixture: people, ages, friendships.
class EngineFixture : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;

  void SetUp() override {
    triples_ = std::make_unique<graph::TripleStore>(kRanks);
    features_ = std::make_unique<store::FeatureStore>(kRanks);
    keywords_ = std::make_unique<store::InvertedIndex>();
    vectors_ = std::make_unique<store::VectorStore>(kRanks, 4);

    auto& d = triples_->dict();
    for (int i = 0; i < 10; ++i) {
      std::string person = "person" + std::to_string(i);
      triples_->add(person, "type", "Person");
      TermId id = *d.lookup(person);
      features_->set(id, "age", static_cast<double>(20 + i));
      keywords_->add_document(id, i % 2 == 0 ? "likes chess" : "likes tennis");
      std::vector<float> v(4, 0.0f);
      v[0] = static_cast<float>(i);
      vectors_->add(id, v);
      ids_.push_back(id);
    }
    // friendship ring: person i knows person (i+1)%10
    for (int i = 0; i < 10; ++i) {
      triples_->add("person" + std::to_string(i), "knows",
                    "person" + std::to_string((i + 1) % 10));
    }
    triples_->finalize();
    features_->freeze();
    keywords_->freeze();
  }

  IdsEngine make_engine(EngineOptions opts = {}) {
    opts.topology = runtime::Topology::laptop(kRanks);
    return IdsEngine(opts, triples_.get(), features_.get(), keywords_.get(),
                     vectors_.get());
  }

  PatternTerm term(const char* iri) {
    return PatternTerm::Const(*triples_->dict().lookup(iri));
  }

  std::set<TermId> result_ids(const QueryResult& r, const char* var) {
    std::set<TermId> out;
    int col = r.solutions.id_var_index(var);
    for (std::size_t row = 0; row < r.solutions.num_rows(); ++row) {
      out.insert(r.solutions.id_at(row, col));
    }
    return out;
  }

  std::unique_ptr<graph::TripleStore> triples_;
  std::unique_ptr<store::FeatureStore> features_;
  std::unique_ptr<store::InvertedIndex> keywords_;
  std::unique_ptr<store::VectorStore> vectors_;
  std::vector<TermId> ids_;
};

TEST_F(EngineFixture, SingleScanFindsAll) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 10u);
  EXPECT_EQ(result_ids(r, "x"), std::set<TermId>(ids_.begin(), ids_.end()));
  EXPECT_GT(r.total_seconds, 0.0);
}

TEST_F(EngineFixture, JoinFollowsEdges) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 10u);  // the full ring
  // Spot-check one edge: person0 knows person1.
  int xc = r.solutions.id_var_index("x");
  int yc = r.solutions.id_var_index("y");
  bool found = false;
  for (std::size_t row = 0; row < r.solutions.num_rows(); ++row) {
    if (r.solutions.id_at(row, xc) == ids_[0]) {
      EXPECT_EQ(r.solutions.id_at(row, yc), ids_[1]);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineFixture, TwoHopJoin) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
  q.patterns.push_back({PatternTerm::Var("y"), term("knows"), PatternTerm::Var("z")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 10u);  // ring: each x has exactly one 2-hop
  int xc = r.solutions.id_var_index("x");
  int zc = r.solutions.id_var_index("z");
  for (std::size_t row = 0; row < r.solutions.num_rows(); ++row) {
    // z is two steps around the ring from x.
    std::size_t xi = 0;
    while (ids_[xi] != r.solutions.id_at(row, xc)) ++xi;
    EXPECT_EQ(r.solutions.id_at(row, zc), ids_[(xi + 2) % 10]);
  }
}

TEST_F(EngineFixture, FilterOnFeature) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.filters.push_back(Expr::Compare(
      CmpOp::kGe, Expr::Feature(Expr::Var("x"), "age"), Expr::Constant(25.0)));
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 5u);  // ages 25..29
}

TEST_F(EngineFixture, KeywordRestricts) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.keywords.push_back({"x", {"chess"}, true});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 5u);  // even-numbered people
}

TEST_F(EngineFixture, VectorTopkRestricts) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  VectorClause vc;
  vc.var = "x";
  vc.query = {9.0f, 0.0f, 0.0f, 0.0f};
  vc.k = 3;
  vc.metric = store::Metric::kL2;
  q.vectors.push_back(vc);
  QueryResult r = eng.execute(q);
  // Nearest to 9 on the first axis: persons 9, 8, 7.
  EXPECT_EQ(result_ids(r, "x"),
            (std::set<TermId>{ids_[9], ids_[8], ids_[7]}));
}

TEST_F(EngineFixture, UdfFilterAndRejectProfiling) {
  IdsEngine eng = make_engine();
  eng.registry().register_static(
      "age_over", [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        double threshold = 0;
        expr::as_double(args[1], &threshold);
        auto age = ctx.features->get_double(e->id, "age");
        return udf::UdfResult{age && *age > threshold, sim::from_millis(1)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.filters.push_back(
      Expr::Udf("age_over", {Expr::Var("x"), Expr::Constant(26.5)}));
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 3u);  // 27, 28, 29

  udf::UdfStats agg = eng.profiler().aggregate("age_over");
  EXPECT_EQ(agg.execs, 10u);
  EXPECT_EQ(agg.rejects, 7u);
  EXPECT_GT(agg.total_time, 0u);
}

/// Three items on one rank: a query's rows run in one order, so what a
/// UDF sees on each call is deterministic.
class OneRankFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      triples_.add("item" + std::to_string(i), "type", "Item");
    }
    triples_.finalize();
    features_.freeze();
    first_ = *triples_.dict().lookup("item0");
  }

  IdsEngine make_engine() {
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(1);
    opts.metrics = &metrics_;
    return IdsEngine(opts, &triples_, &features_);
  }

  /// ?x type Item, FILTER udf(?x); INVOKE udf(?x) too when `invoke`.
  Query items_through(const std::string& udf, bool invoke) {
    const graph::Dictionary& d = triples_.dict();
    Query q;
    q.patterns.push_back({PatternTerm::Var("x"),
                          PatternTerm::Const(*d.lookup("type")),
                          PatternTerm::Const(*d.lookup("Item"))});
    q.filters.push_back(Expr::Udf(udf, {Expr::Var("x")}));
    if (invoke) {
      InvokeClause inv;
      inv.udf = udf;
      inv.args = {Expr::Var("x")};
      inv.out_var = "v";
      q.invokes.push_back(inv);
    }
    return q;
  }

  bool is_first(const expr::Value& v) const {
    const auto* e = std::get_if<expr::Entity>(&v);
    return e != nullptr && e->id == first_;
  }

  graph::TripleStore triples_{1};
  store::FeatureStore features_{1};
  telemetry::MetricsRegistry metrics_;
  TermId first_ = graph::kInvalidTerm;
};

TEST_F(OneRankFixture, QueryPublishesItsUdfTallyOnceWhenItEnds) {
  IdsEngine eng = make_engine();
  // Each call records the executions the shared profile held then; the
  // UDF rejects item0 and costs 1 ms.
  std::vector<std::uint64_t> seen;
  eng.registry().register_static(
      "peek", [&](const udf::UdfContext&, std::span<const expr::Value> args) {
        seen.push_back(eng.profiler().aggregate("peek").execs);
        return udf::UdfResult{!is_first(args[0]), sim::from_millis(1)};
      });
  const Query q = items_through("peek", /*invoke=*/true);

  // FILTER runs 3 calls and INVOKE 2: every one of them sees the profile
  // as it was before the query.
  eng.execute(q);
  EXPECT_EQ(seen, std::vector<std::uint64_t>(5, 0));
  eng.execute(q);
  std::vector<std::uint64_t> want(5, 0);
  want.insert(want.end(), 5, 5);
  EXPECT_EQ(seen, want);

  const udf::UdfStats agg = eng.profiler().aggregate("peek");
  EXPECT_EQ(agg.execs, 10u);
  EXPECT_EQ(agg.total_time, sim::from_millis(10));
  EXPECT_EQ(agg.rejects, 2u);
  EXPECT_EQ(metrics_.counter("ids_udf_rejects_total", {{"udf", "peek"}})
                ->value(),
            2u);
  EXPECT_EQ(metrics_
                .histogram("ids_udf_exec_seconds",
                           telemetry::latency_seconds_buckets(),
                           {{"udf", "peek"}})
                ->count(),
            10u);
}

TEST_F(OneRankFixture, FilterKeepsOneUdfVersionForTheWholeQuery) {
  IdsEngine eng = make_engine();
  // Version 1 passes every row, but on its first call it re-registers its
  // own name as version 2, which rejects every row.
  bool replaced = false;
  auto rejects_all = [](const udf::UdfContext&, std::span<const expr::Value>) {
    return udf::UdfResult{false, sim::from_millis(1)};
  };
  eng.registry().register_dynamic(
      "mod", "f",
      [&](const udf::UdfContext&, std::span<const expr::Value>) {
        if (!replaced) {
          replaced = true;
          eng.registry().register_dynamic("mod", "f", rejects_all, 0);
        }
        return udf::UdfResult{true, sim::from_millis(1)};
      },
      0);
  const Query q = items_through("mod.f", /*invoke=*/false);

  // The query that started with version 1 runs it on all three rows...
  EXPECT_EQ(eng.execute(q).solutions.num_rows(), 3u);
  EXPECT_TRUE(replaced);
  // ...and the next query runs version 2.
  EXPECT_EQ(eng.execute(q).solutions.num_rows(), 0u);
  const udf::UdfStats agg = eng.profiler().aggregate("mod.f");
  EXPECT_EQ(agg.execs, 6u);
  EXPECT_EQ(agg.rejects, 3u);
}

TEST_F(EngineFixture, ReorderingNeverChangesResults) {
  auto run = [&](bool reorder, RebalancePolicy policy) {
    EngineOptions opts;
    opts.reorder_filters = reorder;
    opts.rebalance = policy;
    IdsEngine eng = make_engine(opts);
    eng.registry().register_static(
        "pass", [](const udf::UdfContext&, std::span<const expr::Value> args) {
          double v = 0;
          expr::as_double(args[0], &v);
          return udf::UdfResult{v < 27.0, sim::from_millis(5)};
        });
    Query q;
    q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
    q.filters.push_back(
        Expr::Udf("pass", {Expr::Feature(Expr::Var("x"), "age")}));
    q.filters.push_back(Expr::Compare(
        CmpOp::kGe, Expr::Feature(Expr::Var("x"), "age"), Expr::Constant(22.0)));
    // Run twice so the second pass has profiles to reorder with.
    eng.execute(q);
    return result_ids(eng.execute(q), "x");
  };
  auto baseline = run(false, RebalancePolicy::kNone);
  EXPECT_EQ(baseline.size(), 5u);  // ages 22..26
  EXPECT_EQ(run(true, RebalancePolicy::kNone), baseline);
  EXPECT_EQ(run(true, RebalancePolicy::kCount), baseline);
  EXPECT_EQ(run(true, RebalancePolicy::kThroughput), baseline);
}

TEST_F(EngineFixture, ThroughputRebalanceKicksInUnderHeterogeneity) {
  EngineOptions opts;
  opts.hetero = runtime::HeteroProfile::groups({{2, 1.0}, {2, 4.0}});
  IdsEngine eng = make_engine(opts);
  eng.registry().register_static(
      "slow_check", [](const udf::UdfContext&, std::span<const expr::Value>) {
        return udf::UdfResult{true, sim::from_seconds(1.0)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.filters.push_back(Expr::Udf("slow_check", {Expr::Var("x")}));

  QueryResult first = eng.execute(q);  // builds profiles; count-based
  EXPECT_FALSE(first.used_throughput_rebalance);
  // Per-rank estimates shrink toward the aggregate until well-sampled
  // (kFullConfidenceExecs); repeated queries accumulate the samples.
  QueryResult later;
  for (int i = 0; i < 12; ++i) later = eng.execute(q);
  EXPECT_TRUE(later.used_throughput_rebalance);
  EXPECT_EQ(later.solutions.num_rows(), 10u);
}

TEST_F(EngineFixture, DistinctReducesToUniqueValues) {
  IdsEngine eng = make_engine();
  Query q;
  // knows edges: 10 rows but x values 0..9 all distinct; use object var
  // with duplicates instead: every person is known by exactly one other,
  // so distinct on y also gives 10. Take pairs (x knows y) twice via two
  // patterns to create duplicates.
  q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
  q.patterns.push_back({PatternTerm::Var("y"), term("type"), term("Person")});
  q.distinct_var = "y";
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 10u);
  EXPECT_EQ(result_ids(r, "y").size(), 10u);
}

TEST_F(EngineFixture, InvokeAddsNumericColumn) {
  IdsEngine eng = make_engine();
  eng.registry().register_static(
      "double_age", [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        auto age = ctx.features->get_double(e->id, "age");
        return udf::UdfResult{age ? *age * 2 : 0.0, sim::from_millis(10)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  InvokeClause inv;
  inv.udf = "double_age";
  inv.args = {Expr::Var("x")};
  inv.out_var = "result";
  q.invokes.push_back(inv);
  q.order_by = "result";

  QueryResult r = eng.execute(q);
  ASSERT_EQ(r.solutions.num_rows(), 10u);
  int col = r.solutions.num_var_index("result");
  ASSERT_GE(col, 0);
  EXPECT_DOUBLE_EQ(r.solutions.num_at(0, col), 40.0);  // ordered ascending
  EXPECT_DOUBLE_EQ(r.solutions.num_at(9, col), 58.0);
  EXPECT_EQ(r.rows_invoked, 10u);
}

TEST_F(EngineFixture, InvokeWithCacheHitsOnRepeat) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 10 << 20;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.cache = &cache;
  IdsEngine eng = make_engine(opts);
  // Ranks call the UDF from pool threads, so the counter is atomic.
  std::atomic<int> real_calls{0};
  eng.registry().register_static(
      "expensive", [&real_calls](const udf::UdfContext& ctx,
                                 std::span<const expr::Value> args) {
        ++real_calls;
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        auto age = ctx.features->get_double(e->id, "age");
        return udf::UdfResult{*age, sim::from_seconds(30.0)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  InvokeClause inv;
  inv.udf = "expensive";
  inv.args = {Expr::Var("x")};
  inv.out_var = "v";
  inv.use_cache = true;
  inv.cache_prefix = "sim/expensive";
  inv.cached_payload_bytes = 1000;
  q.invokes.push_back(inv);

  QueryResult cold = eng.execute(q);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 10u);
  EXPECT_EQ(real_calls.load(), 10);

  QueryResult warm = eng.execute(q);
  EXPECT_EQ(warm.cache_hits, 10u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(real_calls.load(), 10);  // no recomputation
  EXPECT_LT(warm.total_seconds, cold.total_seconds * 0.5);

  // Values survive the cache round trip.
  int col = warm.solutions.num_var_index("v");
  std::multiset<double> vals;
  for (std::size_t row = 0; row < warm.solutions.num_rows(); ++row) {
    vals.insert(warm.solutions.num_at(row, col));
  }
  EXPECT_EQ(vals.count(20.0), 1u);
  EXPECT_EQ(vals.count(29.0), 1u);
}

TEST_F(EngineFixture, StageTimingsCoverPipeline) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
  q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
  q.filters.push_back(Expr::Compare(
      CmpOp::kGe, Expr::Feature(Expr::Var("x"), "age"), Expr::Constant(0.0)));
  QueryResult r = eng.execute(q);

  double stage_sum = 0.0;
  std::set<std::string> names;
  for (const auto& s : r.stages) {
    stage_sum += s.seconds;
    names.insert(s.stage);
  }
  EXPECT_TRUE(names.contains("scan"));
  EXPECT_TRUE(names.contains("join"));
  EXPECT_TRUE(names.contains("filter"));
  EXPECT_TRUE(names.contains("gather"));
  EXPECT_NEAR(stage_sum, r.total_seconds, 1e-9);
  EXPECT_NEAR(r.seconds_excluding("filter") + r.stage_seconds("filter"),
              r.total_seconds, 1e-12);
}

TEST_F(EngineFixture, LimitAndSelectShapeOutput) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
  q.select = {"y"};
  q.limit = 3;
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 3u);
  EXPECT_EQ(r.solutions.id_vars(), (std::vector<std::string>{"y"}));
}

TEST_F(EngineFixture, UdfCallMultipliersScaleFilterCost) {
  auto filter_time = [&](double row_mult, double udf_mult) {
    EngineOptions opts;
    opts.row_multiplier = row_mult;
    if (udf_mult > 0.0) opts.udf_call_multiplier["unit_cost"] = udf_mult;
    IdsEngine eng = make_engine(opts);
    eng.registry().register_static(
        "unit_cost", [](const udf::UdfContext&, std::span<const expr::Value>) {
          return udf::UdfResult{true, sim::from_millis(100)};
        });
    Query q;
    q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
    q.filters.push_back(Expr::Udf("unit_cost", {Expr::Var("x")}));
    return eng.execute(q).stage_seconds("filter");
  };
  // Each physical conjunct evaluation stands for row_multiplier logical
  // evaluations...
  double t1 = filter_time(1.0, 0.0);
  double t100 = filter_time(100.0, 0.0);
  EXPECT_NEAR(t100 / t1, 100.0, 1.0);
  // ...unless the UDF has an explicit per-call multiplier override.
  double t_override = filter_time(100.0, 3.0);
  EXPECT_NEAR(t_override / t1, 3.0, 0.1);
}

TEST_F(EngineFixture, DeterministicAcrossRuns) {
  auto run = [&]() {
    IdsEngine eng = make_engine();
    Query q;
    q.patterns.push_back({PatternTerm::Var("x"), term("type"), term("Person")});
    q.patterns.push_back({PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
    QueryResult r = eng.execute(q);
    return std::make_pair(r.total_seconds, r.solutions.num_rows());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

using EngineFixtureDeathTest = EngineFixture;

TEST_F(EngineFixtureDeathTest, HeteroProfileMustCoverEveryRankAtPositiveSpeed) {
  // A profile shorter than the topology would be read past its end, and a
  // speed of 0 or below would divide every modeled cost by it.
  EngineOptions short_profile;
  short_profile.hetero = runtime::HeteroProfile::uniform(kRanks - 1, 1.0);
  EXPECT_DEATH((void)make_engine(short_profile),
               "hetero profile has 3 speeds for 4 ranks");
  EngineOptions zero_speed;
  zero_speed.hetero =
      runtime::HeteroProfile::groups({{kRanks - 1, 1.0}, {1, 0.0}});
  EXPECT_DEATH((void)make_engine(zero_speed),
               "hetero profile speeds must be positive");
}

TEST(InvokeCacheKeys, CollidingRenderingsNeverShareACachedResult) {
  constexpr int kRanks = 2;
  graph::TripleStore triples(kRanks);
  store::FeatureStore features(kRanks);
  triples.add("probe", "type", "Probe");  // one row per query
  // Entity names may hold the key's separator and escape characters.
  const std::vector<std::string> names = {"a/b", "c",   "a",   "b/c",
                                          "a\\", "a/b\\", "\\i1"};
  for (const auto& name : names) triples.add(name, "label", "arg");
  triples.finalize();
  features.freeze();
  const graph::Dictionary& dict = triples.dict();
  auto entity = [&dict](const char* name) -> expr::Value {
    return expr::Entity{*dict.lookup(name)};
  };

  // Each consecutive pair shares one key under a lossy rendering: '/'
  // inside names and strings, %g doubles, and integer 1 vs double 1.0.
  // The backslash pair would collide if only '/' were escaped.
  const std::vector<std::vector<expr::Value>> arg_lists = {
      {entity("a/b"), entity("c")},
      {entity("a"), entity("b/c")},
      {std::string("a/b"), std::string("c")},
      {std::string("a"), std::string("b/c")},
      {0.1234567},
      {0.1234568},
      {std::int64_t{1}},
      {1.0},
      {entity("a\\"), entity("b/c")},
      {entity("a/b\\"), entity("c")},
      {entity("\\i1")},
      {std::int64_t{1}},  // a repeat: must hit
  };

  // The UDF's value fingerprints its exact argument list (types, values
  // and boundaries), so a cached value served for another list shows.
  auto fingerprint = [&dict](const udf::UdfContext&,
                             std::span<const expr::Value> args) {
    std::string text;
    for (const auto& a : args) {
      text += std::to_string(a.index());
      text += ':';
      if (const auto* e = std::get_if<expr::Entity>(&a)) {
        text += dict.name(e->id);
      } else if (const auto* d = std::get_if<double>(&a)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", *d);
        text += buf;
      } else {
        text += expr::to_string(a);
      }
      text += '|';
    }
    return udf::UdfResult{
        static_cast<double>(std::hash<std::string>{}(text) % 1000003),
        sim::from_millis(1)};
  };

  auto run = [&](bool use_cache) {
    telemetry::MetricsRegistry reg;
    cache::CacheConfig cc;
    cc.num_nodes = 2;
    cc.metrics = &reg;
    cache::CacheManager cache(cc);
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.metrics = &reg;
    IdsEngine eng(opts, &triples, &features);
    eng.registry().register_static("fingerprint", fingerprint);

    std::vector<double> values;
    std::size_t hits = 0;
    for (const auto& args : arg_lists) {
      Query q;
      q.patterns.push_back({PatternTerm::Var("p"),
                            PatternTerm::Const(*dict.lookup("type")),
                            PatternTerm::Const(*dict.lookup("Probe"))});
      InvokeClause inv;
      inv.udf = "fingerprint";
      for (const auto& a : args) inv.args.push_back(Expr::Constant(a));
      inv.out_var = "v";
      inv.use_cache = use_cache;
      inv.cache_prefix = "fp";
      q.invokes.push_back(inv);
      const QueryResult r = eng.execute(q);
      EXPECT_EQ(r.solutions.num_rows(), 1u);
      values.push_back(r.solutions.num_at(0, r.solutions.num_var_index("v")));
      hits += r.cache_hits;
    }
    return std::make_pair(values, hits);
  };

  const auto [uncached, no_hits] = run(false);
  for (std::size_t i = 0; i + 2 < uncached.size(); i += 2) {
    EXPECT_NE(uncached[i], uncached[i + 1]) << "pair " << i / 2;
  }
  EXPECT_EQ(no_hits, 0u);
  const auto [cached, hits] = run(true);
  EXPECT_EQ(cached, uncached);
  EXPECT_EQ(hits, 1u);  // only the repeated argument list
}

}  // namespace
}  // namespace ids::core
