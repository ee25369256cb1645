// Tests for expression evaluation, conjunct chains, the UDF registry's
// module cache, a query's resolved UDFs, and the per-rank profile tables.

#include <gtest/gtest.h>

#include "expr/chain.h"
#include "expr/expr.h"
#include "expr/value.h"
#include "store/feature_store.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids {
namespace {

using expr::CmpOp;
using expr::Entity;
using expr::EvalContext;
using expr::Expr;
using expr::Value;

TEST(Value, Truthiness) {
  EXPECT_FALSE(expr::truthy(expr::null_value()));
  EXPECT_TRUE(expr::truthy(Value{true}));
  EXPECT_FALSE(expr::truthy(Value{false}));
  EXPECT_TRUE(expr::truthy(Value{std::int64_t{5}}));
  EXPECT_FALSE(expr::truthy(Value{0.0}));
  EXPECT_TRUE(expr::truthy(Value{std::string("x")}));
  EXPECT_FALSE(expr::truthy(Value{Entity{graph::kInvalidTerm}}));
}

TEST(Value, CompareNumericPromotion) {
  int c = 0;
  ASSERT_TRUE(expr::compare(Value{std::int64_t{2}}, Value{2.5}, &c));
  EXPECT_EQ(c, -1);
  ASSERT_TRUE(expr::compare(Value{3.0}, Value{std::int64_t{3}}, &c));
  EXPECT_EQ(c, 0);
}

TEST(Value, CompareIncompatibleFails) {
  int c = 0;
  EXPECT_FALSE(expr::compare(Value{std::string("a")}, Value{1.0}, &c));
  EXPECT_FALSE(expr::compare(Value{Entity{1}}, Value{1.0}, &c));
}

TEST(Expr, ConstantAndArithmetic) {
  EvalContext ctx;
  auto e = Expr::Arith(expr::ArithOp::kMul,
                       Expr::Arith(expr::ArithOp::kAdd, Expr::Constant(2.0),
                                   Expr::Constant(3.0)),
                       Expr::Constant(4.0));
  Value v = expr::eval(*e, ctx);
  double d = 0;
  ASSERT_TRUE(expr::as_double(v, &d));
  EXPECT_DOUBLE_EQ(d, 20.0);
}

TEST(Expr, DivisionByZeroYieldsNull) {
  EvalContext ctx;
  auto e = Expr::Arith(expr::ArithOp::kDiv, Expr::Constant(1.0),
                       Expr::Constant(0.0));
  EXPECT_TRUE(expr::is_null(expr::eval(*e, ctx)));
}

TEST(Expr, VarResolvesIdAndNumColumns) {
  graph::SolutionTable t({"prot"}, {"score"});
  graph::TermId id = 42;
  double s = 0.75;
  t.append_row({&id, 1}, {&s, 1});

  EvalContext ctx;
  ctx.row = {&t, 0};
  Value pv = expr::eval(*Expr::Var("prot"), ctx);
  auto* e = std::get_if<Entity>(&pv);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, 42u);

  Value sv = expr::eval(*Expr::Var("score"), ctx);
  double d = 0;
  ASSERT_TRUE(expr::as_double(sv, &d));
  EXPECT_DOUBLE_EQ(d, 0.75);

  EXPECT_TRUE(expr::is_null(expr::eval(*Expr::Var("missing"), ctx)));
}

TEST(Expr, FeatureLookup) {
  store::FeatureStore fs(2);
  fs.set(42, "ic50_nm", 100.0);
  graph::SolutionTable t({"cpd"});
  graph::TermId id = 42;
  t.append_row({&id, 1});

  EvalContext ctx;
  ctx.row = {&t, 0};
  ctx.udf_ctx.features = &fs;
  auto e = Expr::Compare(CmpOp::kEq, Expr::Feature(Expr::Var("cpd"), "ic50_nm"),
                         Expr::Constant(100.0));
  EXPECT_TRUE(expr::truthy(expr::eval(*e, ctx)));
}

TEST(Expr, NullPropagatesThroughComparison) {
  EvalContext ctx;
  auto e = Expr::Compare(CmpOp::kLt, Expr::Var("nope"), Expr::Constant(1.0));
  EXPECT_TRUE(expr::is_null(expr::eval(*e, ctx)));  // null -> row rejected
}

TEST(Expr, ShortCircuitSkipsRightCost) {
  udf::UdfRegistry reg;
  int calls = 0;
  reg.register_static("expensive", [&calls](const udf::UdfContext&,
                                            std::span<const Value>) {
    ++calls;
    return udf::UdfResult{true, sim::from_seconds(1.0)};
  });
  udf::QueryUdfs udfs(reg, {"expensive"}, 1, nullptr);

  EvalContext ctx;
  ctx.udfs = &udfs;
  auto e = Expr::And(Expr::Constant(false), Expr::Udf("expensive", {}));
  EXPECT_FALSE(expr::truthy(expr::eval(*e, ctx)));
  EXPECT_EQ(calls, 0);
  EXPECT_LT(ctx.cost, sim::from_seconds(0.5));

  auto e2 = Expr::Or(Expr::Constant(true), Expr::Udf("expensive", {}));
  EXPECT_TRUE(expr::truthy(expr::eval(*e2, ctx)));
  EXPECT_EQ(calls, 0);
}

TEST(Expr, UdfCostScaledBySpeedFactor) {
  udf::UdfRegistry reg;
  reg.register_static("work", [](const udf::UdfContext&,
                                 std::span<const Value>) {
    return udf::UdfResult{1.0, sim::from_seconds(3.0)};
  });
  udf::QueryUdfs udfs(reg, {"work"}, 2, nullptr);

  EvalContext fast;
  fast.udfs = &udfs;
  fast.udf_ctx.rank = 0;
  fast.speed_factor = 3.0;
  expr::eval(*Expr::Udf("work", {}), fast);
  EXPECT_NEAR(sim::to_seconds(fast.cost), 1.0, 0.01);

  EvalContext slow;
  slow.udfs = &udfs;
  slow.udf_ctx.rank = 1;
  slow.speed_factor = 1.0;
  expr::eval(*Expr::Udf("work", {}), slow);
  EXPECT_NEAR(sim::to_seconds(slow.cost), 3.0, 0.01);

  // The tally records each rank's effective cost.
  const udf::ProfileTable& tally = udfs.tally();
  EXPECT_LT(tally.get(0, "work").total_time, tally.get(1, "work").total_time);
}

TEST(Expr, QueryUdfsKeepTheVersionFoundAtResolution) {
  udf::UdfRegistry reg;
  auto version = [](double v) {
    return [v](const udf::UdfContext&, std::span<const Value>) {
      return udf::UdfResult{v, 0};
    };
  };
  ASSERT_TRUE(reg.register_dynamic("mod", "f", version(1.0), 0));
  udf::QueryUdfs udfs(reg, {"mod.f", "missing", "mod.f"}, 1, nullptr);
  ASSERT_TRUE(reg.register_dynamic("mod", "f", version(2.0), 0));

  // One index per distinct name; a name never registered has no version
  // and evaluates to null without touching the tally.
  const udf::ProfileTable& tally = udfs.tally();
  EXPECT_EQ(tally.names(), (std::vector<std::string>{"mod.f", "missing"}));
  EXPECT_EQ(udfs.index_of("elsewhere"), udf::ProfileTable::npos);
  EXPECT_EQ(udfs.info(udfs.index_of("elsewhere")), nullptr);
  EXPECT_EQ(udfs.info(udfs.index_of("missing")), nullptr);
  EvalContext ctx;
  ctx.udfs = &udfs;
  EXPECT_TRUE(expr::is_null(expr::eval(*Expr::Udf("missing", {}), ctx)));

  double d = 0;
  ASSERT_TRUE(expr::as_double(expr::eval(*Expr::Udf("mod.f", {}), ctx), &d));
  EXPECT_DOUBLE_EQ(d, 1.0);
  ASSERT_TRUE(expr::as_double(reg.find("mod.f")->fn({}, {}).value, &d));
  EXPECT_DOUBLE_EQ(d, 2.0);  // the registry itself has moved on
  EXPECT_EQ(tally.get(0, "mod.f").execs, 1u);
  EXPECT_EQ(tally.get(0, "missing").execs, 0u);
}

TEST(Expr, ToStringRendersReadably) {
  auto e = Expr::Compare(CmpOp::kGe, Expr::Udf("sw", {Expr::Var("p")}),
                         Expr::Constant(0.9));
  EXPECT_EQ(e->to_string(), "(sw(?p) >= 0.9)");
}

TEST(Chain, FlattenAndRebuildPreservesSemantics) {
  auto a = Expr::Compare(CmpOp::kGt, Expr::Constant(2.0), Expr::Constant(1.0));
  auto b = Expr::Compare(CmpOp::kLt, Expr::Constant(1.0), Expr::Constant(2.0));
  auto c = Expr::Constant(true);
  auto chain = Expr::And(Expr::And(a, b), c);

  auto conj = expr::flatten_conjuncts(chain);
  ASSERT_EQ(conj.size(), 3u);

  // Any permutation rebuilds to an equivalent expression.
  std::swap(conj[0], conj[2]);
  auto rebuilt = expr::rebuild_chain(conj);
  EvalContext ctx;
  EXPECT_TRUE(expr::truthy(expr::eval(*rebuilt, ctx)));
}

TEST(Chain, CollectsUdfNames) {
  auto e = Expr::And(Expr::Udf("m.f", {}),
                     Expr::Compare(CmpOp::kGt, Expr::Udf("m.g", {}),
                                   Expr::Constant(0.0)));
  auto conj = expr::flatten_conjuncts(e);
  ASSERT_EQ(conj.size(), 2u);
  EXPECT_EQ(conj[0].udfs, (std::vector<std::string>{"m.f"}));
  EXPECT_EQ(conj[1].udfs, (std::vector<std::string>{"m.g"}));
}

TEST(Chain, NonAndIsSingleConjunct) {
  auto e = Expr::Or(Expr::Constant(true), Expr::Constant(false));
  EXPECT_EQ(expr::flatten_conjuncts(e).size(), 1u);
}

TEST(Registry, StaticCannotBeReplaced) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const Value>) {
    return udf::UdfResult{1.0, 0};
  };
  EXPECT_TRUE(reg.register_static("f", fn));
  EXPECT_FALSE(reg.register_static("f", fn));  // §2.3: static once loaded
}

TEST(Registry, DynamicCanBeReplaced) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       0);
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{2.0, 0};
                       },
                       0);
  const udf::UdfInfo* info = reg.find("mod.f");
  ASSERT_NE(info, nullptr);
  udf::UdfContext ctx;
  double d = 0;
  ASSERT_TRUE(expr::as_double(info->fn(ctx, {}).value, &d));
  EXPECT_DOUBLE_EQ(d, 2.0);
}

TEST(Registry, DynamicCannotShadowStatic) {
  udf::UdfRegistry reg;
  ASSERT_TRUE(reg.register_static(
      "mod.f", [](const udf::UdfContext&, std::span<const Value>) {
        return udf::UdfResult{1.0, 0};
      }));
  EXPECT_FALSE(reg.register_dynamic(
      "mod", "f",
      [](const udf::UdfContext&, std::span<const Value>) {
        return udf::UdfResult{2.0, 0};
      },
      0));
  const udf::UdfInfo* info = reg.find("mod.f");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->dynamic);
  udf::UdfContext ctx;
  double d = 0;
  ASSERT_TRUE(expr::as_double(info->fn(ctx, {}).value, &d));
  EXPECT_DOUBLE_EQ(d, 1.0);
}

TEST(Registry, ModuleLoadChargedOncePerRank) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       sim::from_seconds(2.0));
  const udf::UdfInfo* info = reg.find("mod.f");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(reg.charge_module_load(0, *info), sim::from_seconds(2.0));
  EXPECT_EQ(reg.charge_module_load(0, *info), 0u);  // cached
  EXPECT_EQ(reg.charge_module_load(1, *info), sim::from_seconds(2.0));
}

TEST(Registry, ForceReloadChargesAgain) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       sim::from_seconds(1.0));
  const udf::UdfInfo* info = reg.find("mod.f");
  reg.charge_module_load(0, *info);
  reg.force_reload("mod");
  EXPECT_EQ(reg.charge_module_load(0, *info), sim::from_seconds(1.0));
}

TEST(Registry, NamesSorted) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const Value>) {
    return udf::UdfResult{1.0, 0};
  };
  reg.register_static("zeta", fn);
  reg.register_static("alpha", fn);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "zeta"}));
}

/// One finished query's tally: `execs` executions of `name` on `rank`
/// costing `cost` each, `rejects` of them rejecting.
udf::ProfileTable one_query(int num_ranks, int rank, const std::string& name,
                            std::uint64_t execs, sim::Nanos cost,
                            std::uint64_t rejects = 0) {
  udf::ProfileTable tally({name}, num_ranks);
  udf::UdfStats& s = tally.row(rank)[0];
  s.execs = execs;
  s.total_time = cost * static_cast<sim::Nanos>(execs);
  s.rejects = rejects;
  return tally;
}

TEST(Profiler, TracksTheThreePaperStatistics) {
  udf::UdfProfiler prof(2);
  prof.publish(one_query(2, 0, "f", 1, sim::from_seconds(1.0)));
  prof.publish(one_query(2, 0, "f", 1, sim::from_seconds(3.0), 1));

  const udf::UdfStats s = prof.snapshot({"f"}).get(0, "f");
  EXPECT_EQ(s.execs, 2u);                         // (i) execution count
  EXPECT_EQ(s.total_time, sim::from_seconds(4.0));  // (ii) total time
  EXPECT_EQ(s.rejects, 1u);                       // (iii) rejections
  EXPECT_DOUBLE_EQ(s.mean_cost_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(s.rejection_rate(), 0.5);
}

TEST(Profiler, AggregateMergesRanks) {
  udf::UdfProfiler prof(3);
  prof.publish(one_query(3, 0, "f", 1, sim::from_seconds(1.0)));
  prof.publish(one_query(3, 2, "f", 1, sim::from_seconds(2.0)));
  udf::UdfStats agg = prof.aggregate("f");
  EXPECT_EQ(agg.execs, 2u);
  EXPECT_DOUBLE_EQ(agg.mean_cost_seconds(), 1.5);
  EXPECT_EQ(prof.aggregate("never").execs, 0u);
}

TEST(Profiler, PublishAddsNewNamesAndKeepsOldOnes) {
  udf::UdfProfiler prof(2);
  prof.publish(one_query(2, 1, "f", 3, sim::from_seconds(1.0), 1));
  udf::ProfileTable tally({"g", "f"}, 2);
  tally.row(0)[0] = {2, sim::from_seconds(4.0), 2};  // g on rank 0
  tally.row(1)[1] = {1, sim::from_seconds(1.0), 0};  // f on rank 1
  prof.publish(tally);

  const udf::ProfileTable snap = prof.snapshot({"f", "g", "h"});
  EXPECT_EQ(snap.names(), (std::vector<std::string>{"f", "g", "h"}));
  EXPECT_EQ(snap.get(1, "f").execs, 4u);
  EXPECT_EQ(snap.get(1, "f").rejects, 1u);
  EXPECT_EQ(snap.get(0, "f").execs, 0u);
  EXPECT_EQ(snap.get(0, "g").total_time, sim::from_seconds(4.0));
  EXPECT_EQ(snap.aggregate("g").rejects, 2u);
  EXPECT_EQ(snap.aggregate("h").execs, 0u);
  EXPECT_EQ(prof.aggregate("f").execs, 4u);

  prof.clear();
  EXPECT_EQ(prof.aggregate("f").execs, 0u);
}

TEST(ProfileTable, RowWritesReachAggregatesAtSumRanks) {
  udf::ProfileTable t({"f", "g", "f"}, 3);
  ASSERT_EQ(t.names(), (std::vector<std::string>{"f", "g"}));
  ++t.row(0)[1].execs;
  t.row(2)[1].execs += 2;
  t.row(2)[0].rejects = 5;
  EXPECT_EQ(t.aggregate("g").execs, 0u);
  t.sum_ranks();
  EXPECT_EQ(t.aggregate("g").execs, 3u);
  EXPECT_EQ(t.aggregate("f").rejects, 5u);
  EXPECT_EQ(t.get(2, "g").execs, 2u);
}

TEST(Profiler, EstimateFallsBackToAggregate) {
  udf::UdfProfiler prof(2);
  prof.publish(one_query(2, 0, "f", 1, sim::from_seconds(2.0)));
  // Rank 1 has no samples: it borrows the cross-rank aggregate.
  const udf::ProfileTable snap = prof.snapshot({"f", "unknown"});
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "f"), 2.0);
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "unknown"), 0.0);
}

TEST(Profiler, SparseRankEstimateShrinksTowardAggregate) {
  udf::UdfProfiler prof(2);
  // Rank 0 saw one unusually expensive row; rank 1 saw many cheap ones.
  prof.publish(one_query(2, 0, "f", 1, sim::from_seconds(10.0)));
  prof.publish(one_query(2, 1, "f", udf::UdfProfiler::kFullConfidenceExecs,
                         sim::from_seconds(1.0)));
  const udf::ProfileTable snap = prof.snapshot({"f"});
  double agg = snap.aggregate("f").mean_cost_seconds();
  // Rank 0's single sample barely moves it off the aggregate...
  EXPECT_LT(snap.estimated_cost_seconds(0, "f"), agg + 1.0);
  // ...while rank 1's well-sampled mean is trusted in full.
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "f"), 1.0);
}

}  // namespace
}  // namespace ids
