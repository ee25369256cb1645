// Engine edge cases: modality-seeded queries (keyword/vector with no
// graph patterns), cartesian joins, constant-subject patterns, descending
// order, null-returning UDFs, empty pipelines, and cache-failure
// injection mid-workload.

#include <gtest/gtest.h>

#include <atomic>

#include "core/engine.h"
#include "telemetry/query_log.h"

namespace ids::core {
namespace {

using expr::CmpOp;
using expr::Expr;
using graph::PatternTerm;
using graph::TermId;

class EdgeFixture : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;

  void SetUp() override {
    triples_ = std::make_unique<graph::TripleStore>(kRanks);
    features_ = std::make_unique<store::FeatureStore>(kRanks);
    keywords_ = std::make_unique<store::InvertedIndex>();
    vectors_ = std::make_unique<store::VectorStore>(kRanks, 2);
    for (int i = 0; i < 8; ++i) {
      std::string iri = "doc" + std::to_string(i);
      triples_->add(iri, "type", "Doc");
      TermId id = *triples_->dict().lookup(iri);
      features_->set(id, "idx", static_cast<double>(i));
      keywords_->add_document(id, i < 4 ? "alpha topic" : "beta topic");
      std::vector<float> v = {static_cast<float>(i), 0.0f};
      vectors_->add(id, v);
      ids_.push_back(id);
    }
    triples_->add("hub", "links", "doc0");
    triples_->add("hub", "links", "doc1");
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

  std::unique_ptr<graph::TripleStore> triples_;
  std::unique_ptr<store::FeatureStore> features_;
  std::unique_ptr<store::InvertedIndex> keywords_;
  std::unique_ptr<store::VectorStore> vectors_;
  std::vector<TermId> ids_;
};

TEST_F(EdgeFixture, KeywordOnlyQuerySeedsSolutions) {
  IdsEngine eng = make_engine();
  Query q;
  q.keywords.push_back({"d", {"alpha"}, true});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 4u);
}

TEST_F(EdgeFixture, VectorOnlyQuerySeedsSolutions) {
  IdsEngine eng = make_engine();
  Query q;
  VectorClause vc;
  vc.var = "d";
  vc.query = {7.0f, 0.0f};
  vc.k = 2;
  vc.metric = store::Metric::kL2;
  q.vectors.push_back(vc);
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 2u);  // doc7, doc6
}

TEST_F(EdgeFixture, KeywordThenFilterComposes) {
  IdsEngine eng = make_engine();
  Query q;
  q.keywords.push_back({"d", {"beta"}, true});
  q.filters.push_back(Expr::Compare(CmpOp::kGe,
                                    Expr::Feature(Expr::Var("d"), "idx"),
                                    Expr::Constant(6.0)));
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 2u);  // doc6, doc7
}

TEST_F(EdgeFixture, ConstantSubjectPattern) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({term("hub"), term("links"), PatternTerm::Var("x")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 2u);
}

TEST_F(EdgeFixture, CartesianJoinWhenNoSharedVariable) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({term("hub"), term("links"), PatternTerm::Var("x")});
  q.patterns.push_back({PatternTerm::Var("y"), term("type"), term("Doc")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 2u * 8u);  // full cross product
}

// A clause the engine skips leaves no trace: an unbound DISTINCT variable
// charges no operator overhead to a later stage, and a KEYWORD or VECTOR
// clause with no index behind it records no stage and no stage span.
TEST_F(EdgeFixture, SkippedClausesChargeNothingAndRecordNoStage) {
  EngineOptions opts;
  opts.costs.operator_overhead_seconds = 1.0;
  IdsEngine eng = make_engine(opts);
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  Query unbound_distinct = q;
  unbound_distinct.distinct_var = "nope";
  const QueryResult plain = eng.execute(q);
  const QueryResult skipped = eng.execute(unbound_distinct);
  ASSERT_EQ(skipped.stages.size(), plain.stages.size());
  for (std::size_t i = 0; i < plain.stages.size(); ++i) {
    EXPECT_EQ(skipped.stages[i].stage, plain.stages[i].stage);
    EXPECT_EQ(skipped.stages[i].seconds, plain.stages[i].seconds)
        << plain.stages[i].stage;
  }
  EXPECT_EQ(skipped.total_seconds, plain.total_seconds);
  EXPECT_EQ(skipped.solutions.num_rows(), 8u);

  telemetry::QueryLog log(/*capacity=*/1, /*max_spans=*/1u << 16);
  EngineOptions traced;
  traced.topology = runtime::Topology::laptop(kRanks);
  traced.query_log = &log;
  IdsEngine storeless(traced, triples_.get(), features_.get());
  Query modal = q;
  modal.keywords.push_back({"d", {"alpha"}, true});
  VectorClause vc;
  vc.var = "d";
  vc.query = {1.0f, 0.0f};
  vc.k = 2;
  modal.vectors.push_back(vc);
  const QueryResult r = storeless.execute(modal);
  EXPECT_EQ(r.solutions.num_rows(), 8u);  // neither clause restricted ?d
  std::vector<std::string> timed;
  for (const auto& st : r.stages) timed.push_back(st.stage);
  const std::vector<telemetry::QueryRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), 1u);
  std::vector<std::string> traced_stages;
  for (const auto& s : records[0].trace.spans) {
    if (s.category == "stage") traced_stages.push_back(s.name);
  }
  const std::vector<std::string> want = {"scan", "gather"};
  EXPECT_EQ(timed, want);
  EXPECT_EQ(traced_stages, want);
}

TEST_F(EdgeFixture, OrderDescendingAndLimit) {
  IdsEngine eng = make_engine();
  eng.registry().register_static(
      "idx_of", [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        return udf::UdfResult{*ctx.features->get_double(e->id, "idx"),
                              sim::from_micros(1)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  InvokeClause inv;
  inv.udf = "idx_of";
  inv.args = {Expr::Var("d")};
  inv.out_var = "v";
  q.invokes.push_back(inv);
  q.order_by = "v";
  q.order_descending = true;
  q.limit = 3;
  QueryResult r = eng.execute(q);
  ASSERT_EQ(r.solutions.num_rows(), 3u);
  int col = r.solutions.num_var_index("v");
  EXPECT_DOUBLE_EQ(r.solutions.num_at(0, col), 7.0);
  EXPECT_DOUBLE_EQ(r.solutions.num_at(1, col), 6.0);
  EXPECT_DOUBLE_EQ(r.solutions.num_at(2, col), 5.0);
}

TEST_F(EdgeFixture, NullReturningUdfRejectsRows) {
  IdsEngine eng = make_engine();
  eng.registry().register_static(
      "always_null", [](const udf::UdfContext&, std::span<const expr::Value>) {
        return udf::UdfResult{expr::null_value(), sim::from_micros(1)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  q.filters.push_back(Expr::Udf("always_null", {Expr::Var("d")}));
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 0u);  // null is falsy in FILTER position
}

TEST_F(EdgeFixture, UnknownUdfInFilterRejectsEverything) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  q.filters.push_back(Expr::Udf("no.such_udf", {Expr::Var("d")}));
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 0u);
}

TEST_F(EdgeFixture, EmptyMatchFlowsThroughWholePipeline) {
  IdsEngine eng = make_engine();
  Query q;
  // No triple has this shape.
  q.patterns.push_back({PatternTerm::Var("d"), term("links"), term("Doc")});
  q.filters.push_back(Expr::Constant(true));
  q.distinct_var = "d";
  InvokeClause inv;
  inv.udf = "whatever";
  inv.args = {Expr::Var("d")};
  inv.out_var = "v";
  q.invokes.push_back(inv);
  q.order_by = "v";
  q.limit = 5;
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), 0u);
  EXPECT_EQ(r.rows_invoked, 0u);
}

TEST_F(EdgeFixture, MatchAllTriplesPattern) {
  IdsEngine eng = make_engine();
  Query q;
  q.patterns.push_back({PatternTerm::Var("s"), PatternTerm::Var("p"),
                        PatternTerm::Var("o")});
  QueryResult r = eng.execute(q);
  EXPECT_EQ(r.solutions.num_rows(), triples_->total_triples());
}

TEST_F(EdgeFixture, CacheNodeFailureMidWorkloadRecovers) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 8 << 20;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.cache = &cache;
  IdsEngine eng = make_engine(opts);
  // UDFs run on pool threads across ranks — the counter must be atomic.
  std::atomic<int> executions{0};
  eng.registry().register_static(
      "costly", [&executions](const udf::UdfContext& ctx,
                              std::span<const expr::Value> args) {
        ++executions;
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        return udf::UdfResult{*ctx.features->get_double(e->id, "idx"),
                              sim::from_seconds(10)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  InvokeClause inv;
  inv.udf = "costly";
  inv.args = {Expr::Var("d")};
  inv.out_var = "v";
  inv.use_cache = true;
  inv.cache_prefix = "sim/costly";
  q.invokes.push_back(inv);

  QueryResult cold = eng.execute(q);
  EXPECT_EQ(executions, 8);

  // Both cache nodes crash. Authoritative copies live in backing storage,
  // so the next run is hits (from backing, re-populating DRAM) — no
  // recomputation.
  cache.fail_node(0);
  cache.fail_node(1);
  QueryResult after_failure = eng.execute(q);
  EXPECT_EQ(executions, 8);
  EXPECT_EQ(after_failure.cache_hits, 8u);
  int col = after_failure.solutions.num_var_index("v");
  std::multiset<double> vals;
  for (std::size_t row = 0; row < after_failure.solutions.num_rows(); ++row) {
    vals.insert(after_failure.solutions.num_at(row, col));
  }
  EXPECT_EQ(vals.count(0.0), 1u);
  EXPECT_EQ(vals.count(7.0), 1u);
}

TEST_F(EdgeFixture, WriteThroughOffFailureForcesRecompute) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 8 << 20;
  cc.write_through = false;  // volatile cache: failure loses artifacts
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.cache = &cache;
  IdsEngine eng = make_engine(opts);
  std::atomic<int> executions{0};
  eng.registry().register_static(
      "costly2", [&executions](const udf::UdfContext&,
                               std::span<const expr::Value>) {
        ++executions;
        return udf::UdfResult{1.0, sim::from_seconds(10)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  InvokeClause inv;
  inv.udf = "costly2";
  inv.args = {Expr::Var("d")};
  inv.out_var = "v";
  inv.use_cache = true;
  inv.cache_prefix = "volatile/costly2";
  q.invokes.push_back(inv);

  (void)eng.execute(q);
  EXPECT_EQ(executions, 8);
  cache.fail_node(0);
  cache.fail_node(1);
  QueryResult again = eng.execute(q);
  // Total miss falls back to re-executing the simulation — the paper's
  // "last resort on a total miss".
  EXPECT_EQ(executions, 16);
  EXPECT_EQ(again.cache_misses, 8u);
}

TEST_F(EdgeFixture, IvfVectorClauseIsCheaperAndFindsNeighbours) {
  IdsEngine eng = make_engine();
  auto run = [&](int nprobe) {
    Query q;
    q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
    VectorClause vc;
    vc.var = "d";
    vc.query = {7.0f, 0.0f};
    vc.k = 2;
    vc.metric = store::Metric::kL2;
    vc.ivf_nprobe = nprobe;
    vc.ivf_clusters = 4;
    q.vectors.push_back(vc);
    return eng.execute(q);
  };
  QueryResult exact = run(0);
  EXPECT_EQ(exact.solutions.num_rows(), 2u);
  // Probing every cluster is exhaustive: same answer.
  QueryResult full_probe = run(4);
  EXPECT_EQ(full_probe.solutions.num_rows(), exact.solutions.num_rows());
  // A 1-probe search scans less modeled work.
  QueryResult one_probe = run(1);
  EXPECT_LE(one_probe.stage_seconds("vector"),
            exact.stage_seconds("vector"));
}

TEST_F(EdgeFixture, ExplainDescribesThePlan) {
  IdsEngine eng = make_engine();
  eng.registry().register_static(
      "cheap", [](const udf::UdfContext&, std::span<const expr::Value>) {
        return udf::UdfResult{true, sim::from_micros(1)};
      });
  eng.registry().register_static(
      "pricey", [](const udf::UdfContext&, std::span<const expr::Value>) {
        return udf::UdfResult{true, sim::from_seconds(2)};
      });
  Query q;
  q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
  q.patterns.push_back({term("hub"), term("links"), PatternTerm::Var("d")});
  // Written expensive-first.
  q.filters.push_back(Expr::Udf("pricey", {Expr::Var("d")}));
  q.filters.push_back(Expr::Udf("cheap", {Expr::Var("d")}));
  q.distinct_var = "d";
  q.limit = 4;

  std::string before = eng.explain(q);
  EXPECT_NE(before.find("scan"), std::string::npos);
  EXPECT_NE(before.find("join"), std::string::npos);
  EXPECT_NE(before.find("est="), std::string::npos);
  EXPECT_NE(before.find("distinct ?d"), std::string::npos);
  EXPECT_NE(before.find("limit 4"), std::string::npos);
  // No profiles yet: the chain stays as written.
  EXPECT_LT(before.find("pricey"), before.find("cheap"));

  // After a profiled run, explain shows the reordered chain.
  (void)eng.execute(q);
  std::string after = eng.explain(q);
  EXPECT_LT(after.find("cheap"), after.find("pricey"));
  EXPECT_NE(after.find("est_cost"), std::string::npos);
}

TEST_F(EdgeFixture, HeterogeneityMakesSlowRanksSlow) {
  // One rank at 1/10 speed: the same homogeneous-work FILTER slows by
  // roughly the rank's share of rows (sanity of the speed model).
  auto run = [&](runtime::HeteroProfile profile) {
    EngineOptions opts;
    opts.hetero = std::move(profile);
    opts.rebalance = RebalancePolicy::kNone;
    IdsEngine eng = make_engine(opts);
    eng.registry().register_static(
        "work", [](const udf::UdfContext&, std::span<const expr::Value>) {
          return udf::UdfResult{true, sim::from_seconds(1)};
        });
    Query q;
    q.patterns.push_back({PatternTerm::Var("d"), term("type"), term("Doc")});
    q.filters.push_back(Expr::Udf("work", {Expr::Var("d")}));
    return eng.execute(q).stage_seconds("filter");
  };
  double base = run(runtime::HeteroProfile::uniform(kRanks, 1.0));
  double slow = run(runtime::HeteroProfile::groups({{1, 0.1}, {3, 1.0}}));
  EXPECT_GT(slow, base * 2);
}

}  // namespace
}  // namespace ids::core
