// Oracle property test: the distributed engine must return exactly the
// same solution set as a naive single-threaded reference evaluator, for
// randomized graphs and queries, across shard counts and planner/
// rebalancer configurations.
//
// The reference evaluator is deliberately naive: nested-loop pattern
// matching over the full triple list and per-row expression evaluation.
// If the engine's planner reorders patterns, its joins redistribute rows,
// or its FILTER chains reorder conjuncts, none of that may change the
// answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/engine.h"
#include "graph/triple_store.h"
#include "store/feature_store.h"
#include "store/vector_store.h"

namespace ids::core {
namespace {

using graph::TermId;
using graph::PatternTerm;
using graph::Triple;
using graph::TriplePattern;

using Row = std::map<std::string, TermId>;

bool unify(const PatternTerm& term, TermId value, Row* row) {
  if (!term.is_var) return term.constant == value;
  auto [it, inserted] = row->emplace(term.var, value);
  return inserted || it->second == value;
}

std::vector<Row> reference_match(const std::vector<Triple>& triples,
                                 const std::vector<TriplePattern>& patterns) {
  std::vector<Row> rows = {Row{}};
  for (const auto& p : patterns) {
    std::vector<Row> next;
    for (const Row& row : rows) {
      for (const Triple& t : triples) {
        Row candidate = row;
        if (unify(p.s, t.s, &candidate) && unify(p.p, t.p, &candidate) &&
            unify(p.o, t.o, &candidate)) {
          next.push_back(std::move(candidate));
        }
      }
    }
    rows = std::move(next);
  }
  return rows;
}

bool reference_filter(const Row& row, const std::vector<expr::ExprPtr>& filters,
                      udf::UdfRegistry* registry,
                      const store::FeatureStore* features) {
  // Build a one-row table carrying the bindings.
  std::vector<std::string> vars;
  std::vector<TermId> vals;
  for (const auto& [v, id] : row) {
    vars.push_back(v);
    vals.push_back(id);
  }
  graph::SolutionTable t{vars};
  t.append_row(vals);
  for (const auto& f : filters) {
    expr::EvalContext ctx;
    ctx.row = {&t, 0};
    ctx.registry = registry;
    ctx.udf_ctx.features = features;
    if (!expr::truthy(expr::eval(*f, ctx))) return false;
  }
  return true;
}

/// Canonical representation of a result set for comparison: sorted
/// multiset of value tuples over the given variables.
std::multiset<std::vector<TermId>> canonicalize_rows(
    const std::vector<Row>& rows, const std::vector<std::string>& vars) {
  std::multiset<std::vector<TermId>> out;
  for (const Row& r : rows) {
    std::vector<TermId> tuple;
    for (const auto& v : vars) tuple.push_back(r.at(v));
    out.insert(std::move(tuple));
  }
  return out;
}

std::multiset<std::vector<TermId>> canonicalize_table(
    const graph::SolutionTable& t, const std::vector<std::string>& vars) {
  std::multiset<std::vector<TermId>> out;
  std::vector<int> cols;
  for (const auto& v : vars) cols.push_back(t.id_var_index(v));
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    std::vector<TermId> tuple;
    for (int c : cols) tuple.push_back(t.id_at(row, c));
    out.insert(std::move(tuple));
  }
  return out;
}

struct Config {
  std::uint64_t seed;
  int shards;
  bool reorder;
  RebalancePolicy rebalance;
  bool hetero;
};

class EngineVsReference : public ::testing::TestWithParam<Config> {};

TEST_P(EngineVsReference, RandomGraphsAndQueries) {
  const Config cfg = GetParam();
  Rng rng(cfg.seed);

  // --- Random graph ---------------------------------------------------
  auto store = std::make_unique<graph::TripleStore>(cfg.shards);
  auto features = std::make_unique<store::FeatureStore>(cfg.shards);
  const int n_entities = 24;
  const int n_preds = 3;
  std::vector<Triple> all;
  auto& dict = store->dict();
  std::vector<TermId> entities;
  std::vector<TermId> preds;
  for (int i = 0; i < n_entities; ++i) {
    TermId id = dict.intern("e" + std::to_string(i));
    entities.push_back(id);
    features->set(id, "score", rng.uniform(0.0, 10.0));
  }
  for (int i = 0; i < n_preds; ++i) {
    preds.push_back(dict.intern("p" + std::to_string(i)));
  }
  int n_triples = 40 + static_cast<int>(rng.next_below(80));
  for (int i = 0; i < n_triples; ++i) {
    Triple t{entities[rng.next_below(entities.size())],
             preds[rng.next_below(preds.size())],
             entities[rng.next_below(entities.size())]};
    store->add_ids(t);
    all.push_back(t);
  }
  store->finalize();
  features->freeze();
  std::sort(all.begin(), all.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());

  // --- Engine under the parameterized configuration --------------------
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(cfg.shards);
  opts.reorder_filters = cfg.reorder;
  opts.rebalance = cfg.rebalance;
  if (cfg.hetero) {
    opts.hetero = runtime::HeteroProfile::random(cfg.shards, 0.5, 3.0,
                                                 cfg.seed);
  }
  IdsEngine engine(opts, store.get(), features.get());
  engine.registry().register_static(
      "score_over",
      [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        double threshold = 0;
        expr::as_double(args[1], &threshold);
        auto s = ctx.features->get_double(e->id, "score");
        return udf::UdfResult{s && *s > threshold, sim::from_micros(3)};
      });
  udf::UdfRegistry ref_registry;
  ref_registry.register_static(
      "score_over",
      [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        double threshold = 0;
        expr::as_double(args[1], &threshold);
        auto s = ctx.features->get_double(e->id, "score");
        return udf::UdfResult{s && *s > threshold, 0};
      });

  // --- Random queries ---------------------------------------------------
  for (int trial = 0; trial < 6; ++trial) {
    Query q;
    // Query shapes: chain (?a p ?b . ?b p ?c), star, or single + constants.
    int shape = static_cast<int>(rng.next_below(3));
    TermId p1 = preds[rng.next_below(preds.size())];
    TermId p2 = preds[rng.next_below(preds.size())];
    if (shape == 0) {
      q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(p1),
                            PatternTerm::Var("b")});
      q.patterns.push_back({PatternTerm::Var("b"), PatternTerm::Const(p2),
                            PatternTerm::Var("c")});
    } else if (shape == 1) {
      q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(p1),
                            PatternTerm::Var("b")});
      q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(p2),
                            PatternTerm::Var("c")});
    } else {
      TermId obj = entities[rng.next_below(entities.size())];
      q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(p1),
                            PatternTerm::Const(obj)});
      q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(p2),
                            PatternTerm::Var("b")});
    }
    // Random UDF + feature filters.
    double threshold = rng.uniform(0.0, 10.0);
    q.filters.push_back(expr::Expr::Udf(
        "score_over",
        {expr::Expr::Var("a"), expr::Expr::Constant(threshold)}));
    if (rng.bernoulli(0.5)) {
      q.filters.push_back(expr::Expr::Compare(
          expr::CmpOp::kLe, expr::Expr::Feature(expr::Expr::Var("b"), "score"),
          expr::Expr::Constant(rng.uniform(2.0, 10.0))));
    }

    // Collect variables for comparison.
    std::set<std::string> var_set;
    for (const auto& p : q.patterns) {
      if (p.s.is_var) var_set.insert(p.s.var);
      if (p.o.is_var) var_set.insert(p.o.var);
    }
    std::vector<std::string> vars(var_set.begin(), var_set.end());

    // Reference answer.
    std::vector<Row> matched = reference_match(all, q.patterns);
    std::vector<Row> kept;
    for (const Row& r : matched) {
      if (reference_filter(r, q.filters, &ref_registry, features.get())) {
        kept.push_back(r);
      }
    }
    auto want = canonicalize_rows(kept, vars);

    // Engine answer.
    QueryResult result = engine.execute(q);
    auto got = canonicalize_table(result.solutions, vars);

    EXPECT_EQ(got, want) << "seed=" << cfg.seed << " trial=" << trial
                         << " shape=" << shape << " shards=" << cfg.shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineVsReference,
    ::testing::Values(
        Config{1, 1, true, RebalancePolicy::kThroughput, false},
        Config{2, 4, true, RebalancePolicy::kThroughput, false},
        Config{3, 16, true, RebalancePolicy::kThroughput, true},
        Config{4, 4, false, RebalancePolicy::kNone, false},
        Config{5, 8, false, RebalancePolicy::kCount, true},
        Config{6, 32, true, RebalancePolicy::kCount, false},
        Config{7, 3, true, RebalancePolicy::kThroughput, true},
        Config{8, 64, false, RebalancePolicy::kThroughput, false}));

// ---------------------------------------------------------------------------
// Kernel-equivalence suite: the batch columnar kernels (gather appends, flat
// join index, bulk shuffles) are pure wall-clock optimizations. The modeled
// virtual-clock outputs — stage seconds, row counts, cache hit/miss counts,
// profiler exec counts — are pinned here to the exact values the seed
// (row-at-a-time) implementation produced, so any kernel change that shifts
// modeled semantics fails loudly.
// ---------------------------------------------------------------------------

struct GoldenScenario {
  std::unique_ptr<graph::TripleStore> store;
  std::unique_ptr<store::FeatureStore> features;
  std::vector<TermId> entities;
  std::vector<TermId> preds;
};

GoldenScenario make_golden_scenario(int shards) {
  GoldenScenario s;
  Rng rng(123);
  s.store = std::make_unique<graph::TripleStore>(shards);
  s.features = std::make_unique<store::FeatureStore>(shards);
  auto& dict = s.store->dict();
  for (int i = 0; i < 30; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    TermId id = dict.intern(name);
    s.entities.push_back(id);
    s.features->set(id, "score", rng.uniform(0.0, 10.0));
  }
  for (int i = 0; i < 3; ++i) {
    s.preds.push_back(dict.intern("p" + std::to_string(i)));
  }
  for (int i = 0; i < 150; ++i) {
    s.store->add_ids({s.entities[rng.next_below(s.entities.size())],
                      s.preds[rng.next_below(s.preds.size())],
                      s.entities[rng.next_below(s.entities.size())]});
  }
  s.store->finalize();
  s.features->freeze();
  return s;
}

EngineOptions golden_options(int shards) {
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(shards);
  opts.hetero = runtime::HeteroProfile::random(shards, 0.5, 3.0, 99);
  opts.reorder_filters = true;
  opts.rebalance = RebalancePolicy::kThroughput;
  return opts;
}

void register_golden_udfs(IdsEngine* engine) {
  engine->registry().register_static(
      "score_over",
      [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        double threshold = 0;
        expr::as_double(args[1], &threshold);
        auto s = ctx.features->get_double(e->id, "score");
        return udf::UdfResult{s && *s > threshold, sim::from_micros(3)};
      });
  engine->registry().register_static(
      "sq", [](const udf::UdfContext&, std::span<const expr::Value> args) {
        double x = 0;
        expr::as_double(args[0], &x);
        return udf::UdfResult{x * x, sim::from_micros(250)};
      });
}

void print_golden(const char* label, const QueryResult& r) {
  std::printf("golden[%s]: total=%.17g rows_p=%zu rows_f=%zu hits=%zu "
              "misses=%zu invoked=%zu\n",
              label, r.total_seconds, r.rows_after_patterns,
              r.rows_after_filters, r.cache_hits, r.cache_misses,
              r.rows_invoked);
  for (const auto& st : r.stages) {
    std::printf("golden[%s]:   stage %-12s %.17g\n", label, st.stage.c_str(),
                st.seconds);
  }
}

// Join-heavy query (scan + subject-bound extend + hash join + rebalance +
// filter): pins the shuffle / join / redistribute kernels.
TEST(KernelEquivalence, GoldenJoinFilterModeledResults) {
  auto s = make_golden_scenario(8);
  IdsEngine engine(golden_options(8), s.store.get(), s.features.get());
  register_golden_udfs(&engine);

  Query q;
  q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(s.preds[0]),
                        PatternTerm::Var("b")});
  q.patterns.push_back({PatternTerm::Var("b"), PatternTerm::Const(s.preds[1]),
                        PatternTerm::Var("c")});
  // Subject is a fresh variable and the shared variable ?c sits in object
  // position, so this pattern exercises the hash-join kernel (the previous
  // one exercises the subject-bound extend kernel).
  q.patterns.push_back({PatternTerm::Var("d"), PatternTerm::Const(s.preds[2]),
                        PatternTerm::Var("c")});
  q.filters.push_back(expr::Expr::Udf(
      "score_over", {expr::Expr::Var("a"), expr::Expr::Constant(4.0)}));
  q.filters.push_back(expr::Expr::Compare(
      expr::CmpOp::kLe, expr::Expr::Feature(expr::Expr::Var("b"), "score"),
      expr::Expr::Constant(9.0)));

  QueryResult r = engine.execute(q);

  EXPECT_EQ(r.rows_after_patterns, std::size_t{129});
  EXPECT_EQ(r.rows_after_filters, std::size_t{61});
  EXPECT_EQ(r.total_seconds, 0.000101178);
  ASSERT_EQ(r.stages.size(), std::size_t{6});
  EXPECT_EQ(r.stages[0].stage, "scan");
  EXPECT_EQ(r.stages[0].seconds, 5.0999999999999999e-07);
  EXPECT_EQ(r.stages[1].stage, "join");
  EXPECT_EQ(r.stages[1].seconds, 7.8820000000000001e-06);
  EXPECT_EQ(r.stages[2].stage, "join");
  EXPECT_EQ(r.stages[2].seconds, 1.1188e-05);
  EXPECT_EQ(r.stages[3].stage, "rebalance");
  EXPECT_EQ(r.stages[3].seconds, 4.5020000000000003e-06);
  EXPECT_EQ(r.stages[4].stage, "filter");
  EXPECT_EQ(r.stages[4].seconds, 7.6124000000000005e-05);
  EXPECT_EQ(r.stages[5].stage, "gather");
  EXPECT_EQ(r.stages[5].seconds, 9.7199999999999997e-07);
  if (::testing::Test::HasFailure()) print_golden("join", r);
}

// Cartesian-product query (no shared variable): pins the cross-join kernel.
TEST(KernelEquivalence, GoldenCartesianModeledResults) {
  auto s = make_golden_scenario(4);
  IdsEngine engine(golden_options(4), s.store.get(), s.features.get());
  register_golden_udfs(&engine);

  Query q;
  q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(s.preds[0]),
                        PatternTerm::Const(s.entities[3])});
  q.patterns.push_back({PatternTerm::Var("c"), PatternTerm::Const(s.preds[1]),
                        PatternTerm::Const(s.entities[5])});

  QueryResult r = engine.execute(q);

  EXPECT_EQ(r.rows_after_patterns, std::size_t{2});
  EXPECT_EQ(r.total_seconds, 1.4649999999999999e-06);
  ASSERT_EQ(r.stages.size(), std::size_t{3});
  EXPECT_EQ(r.stages[0].stage, "scan");
  EXPECT_EQ(r.stages[0].seconds, 2.36e-07);
  EXPECT_EQ(r.stages[1].stage, "join");
  EXPECT_EQ(r.stages[1].seconds, 6.2900000000000003e-07);
  EXPECT_EQ(r.stages[2].stage, "gather");
  EXPECT_EQ(r.stages[2].seconds, 5.9999999999999997e-07);
  if (::testing::Test::HasFailure()) print_golden("cartesian", r);
}

// DISTINCT + cached INVOKE + ORDER BY + projection, executed twice so the
// second run exercises the warm-cache path: pins the distinct kernel, the
// invoke batch loop, the cache hit/miss accounting, and the projection.
TEST(KernelEquivalence, GoldenDistinctInvokeModeledResults) {
  auto s = make_golden_scenario(8);
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.serialization_service_seconds = 1e-4;
  cache::CacheManager cache(cc);
  EngineOptions opts = golden_options(8);
  opts.cache = &cache;
  IdsEngine engine(opts, s.store.get(), s.features.get());
  register_golden_udfs(&engine);

  Query q;
  q.patterns.push_back({PatternTerm::Var("a"), PatternTerm::Const(s.preds[0]),
                        PatternTerm::Var("b")});
  q.distinct_var = "b";
  InvokeClause inv;
  inv.udf = "sq";
  inv.out_var = "v";
  inv.args.push_back(expr::Expr::Feature(expr::Expr::Var("b"), "score"));
  inv.use_cache = true;
  inv.cache_prefix = "golden/sq";
  inv.cached_payload_bytes = 64;
  q.invokes.push_back(inv);
  q.order_by = "v";
  q.order_descending = true;
  q.limit = 5;
  q.select = {"b"};

  QueryResult cold = engine.execute(q);
  QueryResult warm = engine.execute(q);

  EXPECT_EQ(cold.rows_after_patterns, std::size_t{45});
  EXPECT_EQ(cold.rows_invoked, std::size_t{23});
  EXPECT_EQ(cold.cache_hits, std::size_t{0});
  EXPECT_EQ(cold.cache_misses, std::size_t{23});
  EXPECT_EQ(cold.total_seconds, 0.013058367);
  ASSERT_EQ(cold.stages.size(), std::size_t{4});
  EXPECT_EQ(cold.stages[0].stage, "scan");
  EXPECT_EQ(cold.stages[0].seconds, 5.0999999999999999e-07);
  EXPECT_EQ(cold.stages[1].stage, "distinct");
  EXPECT_EQ(cold.stages[1].seconds, 9.2380000000000003e-06);
  EXPECT_EQ(cold.stages[2].stage, "invoke:sq");
  EXPECT_EQ(cold.stages[2].seconds, 0.013047701);
  EXPECT_EQ(cold.stages[3].stage, "gather");
  EXPECT_EQ(cold.stages[3].seconds, 9.1800000000000004e-07);

  EXPECT_EQ(warm.rows_invoked, std::size_t{0});
  EXPECT_EQ(warm.cache_hits, std::size_t{23});
  EXPECT_EQ(warm.cache_misses, std::size_t{0});
  EXPECT_EQ(warm.total_seconds, 0.0023106659999999998);
  ASSERT_EQ(warm.stages.size(), std::size_t{4});
  EXPECT_EQ(warm.stages[2].stage, "invoke:sq");
  EXPECT_EQ(warm.stages[2].seconds, 0.0023);

  EXPECT_EQ(engine.profiler().aggregate("sq").execs, std::uint64_t{23});

  // The projected result: 5 distinct ?b ordered by v desc, single id column.
  EXPECT_EQ(warm.solutions.num_rows(), std::size_t{5});
  ASSERT_EQ(warm.solutions.id_vars().size(), std::size_t{1});
  EXPECT_EQ(warm.solutions.id_vars()[0], "b");

  if (::testing::Test::HasFailure()) {
    print_golden("cold", cold);
    print_golden("warm", warm);
    std::printf("golden[profiler]: sq execs=%llu\n",
                static_cast<unsigned long long>(
                    engine.profiler().aggregate("sq").execs));
  }
}

// ---------------------------------------------------------------------------
// Batch-primitive equivalence: each columnar kernel must be observably
// identical to the row-at-a-time loop it replaced. The goldens above pin the
// engine's end-to-end modeled outputs; these pin the primitives directly so
// a kernel bug is localized to one operation instead of a changed stage time.
// ---------------------------------------------------------------------------

using graph::RowIndex;
using graph::RowPartition;
using graph::SolutionTable;

SolutionTable random_table(Rng* rng, std::size_t rows) {
  SolutionTable t{{"a", "b", "c"}, {"x", "y"}};
  for (std::size_t i = 0; i < rows; ++i) {
    TermId ids[3] = {rng->next_u64() % 97, rng->next_u64() % 97,
                     rng->next_u64() % 97};
    double nums[2] = {rng->uniform(-1.0, 1.0), rng->uniform(-1.0, 1.0)};
    t.append_row(ids, nums);
  }
  return t;
}

std::vector<std::vector<TermId>> rows_of(const SolutionTable& t) {
  std::vector<std::vector<TermId>> out(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.id_vars().size(); ++c) {
      out[r].push_back(t.id_at(r, static_cast<int>(c)));
    }
    for (std::size_t c = 0; c < t.num_vars().size(); ++c) {
      // Exact bit pattern: batch moves may not perturb doubles.
      TermId bits;
      double v = t.num_at(r, static_cast<int>(c));
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      out[r].push_back(bits);
    }
  }
  return out;
}

TEST(BatchPrimitives, AppendRowsFromMatchesPerRowLoop) {
  Rng rng(31);
  SolutionTable src = random_table(&rng, 200);
  std::vector<RowIndex> picks;
  for (int i = 0; i < 500; ++i) {
    picks.push_back(static_cast<RowIndex>(rng.next_below(src.num_rows())));
  }

  SolutionTable batch = src.empty_like();
  batch.append_rows_from(src, picks);
  SolutionTable loop = src.empty_like();
  for (RowIndex r : picks) loop.append_row_from(src, r);

  EXPECT_EQ(rows_of(batch), rows_of(loop));
}

TEST(BatchPrimitives, AppendRowRangeFromMatchesPerRowLoop) {
  Rng rng(32);
  SolutionTable src = random_table(&rng, 120);
  SolutionTable batch = src.empty_like();
  batch.append_row_range_from(src, 17, 93);
  SolutionTable loop = src.empty_like();
  for (std::size_t r = 17; r < 93; ++r) loop.append_row_from(src, r);
  EXPECT_EQ(rows_of(batch), rows_of(loop));

  // Empty range is a no-op.
  batch.append_row_range_from(src, 50, 50);
  EXPECT_EQ(batch.num_rows(), std::size_t{76});
}

// `partition` must be the stable CSR partition of `dst` over `parts`
// destinations: it visits exactly the destinations that received rows, in
// ascending order, each with its rows ascending, and places every row once.
void expect_stable_partition(const RowPartition& partition,
                             const std::vector<int>& dst, int parts) {
  ASSERT_EQ(partition.size(), static_cast<std::size_t>(parts));
  std::vector<std::vector<RowIndex>> expected(static_cast<std::size_t>(parts));
  for (std::size_t r = 0; r < dst.size(); ++r) {
    expected[static_cast<std::size_t>(dst[r])].push_back(
        static_cast<RowIndex>(r));
  }
  std::vector<int> non_empty;
  for (int d = 0; d < parts; ++d) {
    if (!expected[static_cast<std::size_t>(d)].empty()) non_empty.push_back(d);
  }
  ASSERT_EQ(std::vector<int>(partition.dsts().begin(), partition.dsts().end()),
            non_empty);
  for (std::size_t i = 0; i < non_empty.size(); ++i) {
    const auto rows = partition.rows(i);
    EXPECT_EQ(std::vector<RowIndex>(rows.begin(), rows.end()),
              expected[static_cast<std::size_t>(non_empty[i])])
        << "destination " << non_empty[i];
  }
}

TEST(BatchPrimitives, PartitionRowsIsAStablePartition) {
  Rng rng(33);
  const int parts = 7;
  std::vector<int> dst;
  for (int i = 0; i < 1000; ++i) {
    dst.push_back(static_cast<int>(rng.next_below(parts)));
  }
  expect_stable_partition(SolutionTable::partition_rows(dst, parts), dst,
                          parts);

  // One destination.
  const std::vector<int> single(50, 0);
  expect_stable_partition(SolutionTable::partition_rows(single, 1), single, 1);

  // Far more destinations than rows (the wide fan-out of a 2048-rank
  // shuffle): only the three receiving destinations are visited.
  const std::vector<int> wide = {1999, 3, 1999};
  const RowPartition w = SolutionTable::partition_rows(wide, 2048);
  EXPECT_EQ(w.dsts().size(), std::size_t{2});
  expect_stable_partition(w, wide, 2048);

  // Empty input: no destination is visited.
  const std::vector<int> none;
  const RowPartition e = SolutionTable::partition_rows(none, 5);
  EXPECT_TRUE(e.dsts().empty());
  expect_stable_partition(e, none, 5);

  // Every row to one destination.
  const std::vector<int> skew(300, 4);
  expect_stable_partition(SolutionTable::partition_rows(skew, 9), skew, 9);

  // A reused partition (as shuffles reuse one across sources) forgets its
  // previous contents, whether the next input is larger or smaller.
  RowPartition reused;
  const std::pair<const std::vector<int>*, int> inputs[] = {
      {&dst, parts}, {&wide, 2048}, {&none, 5}, {&skew, 9}, {&dst, parts}};
  for (const auto& [in, n] : inputs) {
    reused.assign(*in, n);
    expect_stable_partition(reused, *in, n);
  }
}

// The keyed exchange at one rank, an odd rank count and the fig4-wide
// shape (2048 ranks, 4 rows per source). Columns b and c record each row's
// source and position, so the per-row reference below pins placement,
// order and the reported groups exactly.
TEST(BatchPrimitives, ExchangeByKeyRoutesRowsToTheirOwnersInSourceOrder) {
  for (const int p : {1, 3, 2048}) {
    Rng rng(37 + static_cast<std::uint64_t>(p));
    std::vector<SolutionTable> parts;
    for (int src = 0; src < p; ++src) {
      SolutionTable t{{"a", "b", "c"}, {"x"}};
      for (int row = 0; row < 4; ++row) {
        TermId ids[3] = {rng.next_u64(), static_cast<TermId>(src),
                         static_cast<TermId>(row)};
        double x = rng.uniform(-1.0, 1.0);
        t.append_row(ids, {&x, 1});
      }
      parts.push_back(std::move(t));
    }

    std::vector<std::tuple<int, int, std::size_t>> groups;
    const std::vector<SolutionTable> out = graph::exchange_by_key(
        parts, 0, p, [&](int src, int dst, std::size_t rows) {
          groups.emplace_back(src, dst, rows);
        });

    // Row-at-a-time reference: sources ascending, rows ascending, each row
    // appended to its key's owner.
    std::vector<SolutionTable> want(static_cast<std::size_t>(p),
                                    parts[0].empty_like());
    std::vector<std::tuple<int, int, std::size_t>> want_groups;
    for (int src = 0; src < p; ++src) {
      const SolutionTable& t = parts[static_cast<std::size_t>(src)];
      std::map<int, std::size_t> sent;
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        const int dst = ids::shard_of(t.id_at(row, 0), p);
        want[static_cast<std::size_t>(dst)].append_row_from(t, row);
        if (dst != src) ++sent[dst];
      }
      for (const auto& [dst, rows] : sent) {
        want_groups.emplace_back(src, dst, rows);
      }
    }

    ASSERT_EQ(out.size(), static_cast<std::size_t>(p));
    std::size_t moved = 0;
    for (int dst = 0; dst < p; ++dst) {
      const SolutionTable& got = out[static_cast<std::size_t>(dst)];
      for (std::size_t row = 0; row < got.num_rows(); ++row) {
        EXPECT_EQ(ids::shard_of(got.id_at(row, 0), p), dst);
      }
      EXPECT_EQ(rows_of(got), rows_of(want[static_cast<std::size_t>(dst)]))
          << "p " << p << " destination " << dst;
      moved += got.num_rows();
    }
    EXPECT_EQ(moved, static_cast<std::size_t>(p) * 4);
    EXPECT_EQ(groups, want_groups) << "p " << p;
    if (p == 1) {
      EXPECT_TRUE(groups.empty());
    }
  }
}

// The co-location contract: with one shard per rank, the triple, vector and
// feature stores and the row exchange all place an id on the same owner.
TEST(BatchPrimitives, StoresAndExchangeAgreeOnOwners) {
  constexpr int kShards = 7;
  const graph::TripleStore triples(kShards);
  const store::VectorStore vectors(kShards, 4);
  const store::FeatureStore features(kShards);
  Rng rng(38);
  std::vector<SolutionTable> parts(1, SolutionTable{{"id"}});
  for (TermId id = 0; id < 400; ++id) {
    // Dense dictionary-style ids, then arbitrary 64-bit ones.
    const TermId v = id < 200 ? id : rng.next_u64();
    parts[0].append_row({&v, 1});
  }
  const std::vector<SolutionTable> out =
      graph::exchange_by_key(parts, 0, kShards);
  std::size_t seen = 0;
  for (int dst = 0; dst < kShards; ++dst) {
    const SolutionTable& t = out[static_cast<std::size_t>(dst)];
    for (std::size_t row = 0; row < t.num_rows(); ++row) {
      const TermId id = t.id_at(row, 0);
      EXPECT_EQ(triples.shard_of_subject(id), dst) << id;
      EXPECT_EQ(vectors.shard_of(id), dst) << id;
      EXPECT_EQ(features.shard_of(id), dst) << id;
    }
    seen += t.num_rows();
  }
  EXPECT_EQ(seen, parts[0].num_rows());
}

TEST(BatchPrimitives, AppendPrefixFromMatchesWidenedPerRowBuild) {
  Rng rng(34);
  SolutionTable src = random_table(&rng, 80);
  std::vector<RowIndex> picks;
  std::vector<TermId> new_binding;
  for (int i = 0; i < 150; ++i) {
    picks.push_back(static_cast<RowIndex>(rng.next_below(src.num_rows())));
    new_binding.push_back(rng.next_u64() % 97);
  }

  // Batch path, as the join/extend kernels use it: gather the shared prefix,
  // then write the new trailing column directly.
  SolutionTable batch{{"a", "b", "c", "d"}, {"x", "y"}};
  batch.append_prefix_from(src, picks);
  auto& d_col = batch.id_col_mut(3);
  d_col.insert(d_col.end(), new_binding.begin(), new_binding.end());

  // Row-at-a-time reference.
  SolutionTable loop{{"a", "b", "c", "d"}, {"x", "y"}};
  for (std::size_t i = 0; i < picks.size(); ++i) {
    TermId ids[4] = {src.id_at(picks[i], 0), src.id_at(picks[i], 1),
                     src.id_at(picks[i], 2), new_binding[i]};
    double nums[2] = {src.num_at(picks[i], 0), src.num_at(picks[i], 1)};
    loop.append_row(ids, nums);
  }

  EXPECT_EQ(rows_of(batch), rows_of(loop));
}

TEST(BatchPrimitives, FlatGroupIndexMatchesUnorderedMultimap) {
  Rng rng(35);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(rng.next_u64() % 400);
  keys.push_back(0);            // edge keys must be probeable too
  keys.push_back(~0ull);

  FlatGroupIndex index(keys);
  std::unordered_multimap<std::uint64_t, std::uint32_t> mm;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    mm.emplace(keys[i], static_cast<std::uint32_t>(i));
  }

  EXPECT_EQ(index.num_rows(), keys.size());
  for (std::uint64_t probe = 0; probe < 420; ++probe) {
    auto group = index.probe(probe);
    // Ascending insertion order within the group; the hash-join kernel
    // iterates this span *in reverse* to reproduce the seed multimap's
    // newest-first enumeration (see engine.cpp).
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
    auto [lo, hi] = mm.equal_range(probe);
    std::multiset<std::uint32_t> want;
    for (auto it = lo; it != hi; ++it) want.insert(it->second);
    std::multiset<std::uint32_t> got(group.begin(), group.end());
    EXPECT_EQ(got, want) << "key " << probe;
    for (std::uint32_t r : group) EXPECT_EQ(keys[r], probe);
  }
  EXPECT_TRUE(index.probe(12345678).empty());
  EXPECT_EQ(index.probe(~0ull).size(), std::size_t{1});
}

TEST(BatchPrimitives, FlatTermSetMatchesStdSet) {
  Rng rng(36);
  FlatTermSet flat(4);  // tiny initial capacity: exercise grow()
  std::set<std::uint64_t> ref;
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t k = rng.next_u64() % 1500;
    if (i == 100) k = 0;       // the all-zero and all-ones keys are valid
    if (i == 200) k = ~0ull;
    EXPECT_EQ(flat.insert(k), ref.insert(k).second);
  }
  EXPECT_EQ(flat.size(), ref.size());
  for (std::uint64_t k = 0; k < 1600; ++k) {
    EXPECT_EQ(flat.contains(k), ref.count(k) != 0) << "key " << k;
  }
}

TEST(BatchPrimitives, VectorKernelsMatchScalarReference) {
  Rng rng(37);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{127}, std::size_t{128}, std::size_t{513}}) {
    std::vector<float> a(n), b(n);
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());

    double dot_ref = 0.0, l2_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_ref += static_cast<double>(a[i]) * static_cast<double>(b[i]);
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      l2_ref += d * d;
    }

    // The lane-8 kernels associate differently than a serial loop, so
    // compare against the double-precision reference with a float-level
    // tolerance. (Bit-identity *across dispatch levels* is asserted in
    // tests/simd_test.cpp.)
    const double tol = 1e-4 * (1.0 + static_cast<double>(n));
    EXPECT_NEAR(simd::dot(a.data(), b.data(), n), dot_ref, tol) << "n=" << n;
    EXPECT_NEAR(simd::l2sq(a.data(), b.data(), n), l2_ref, tol) << "n=" << n;
  }
}

}  // namespace
}  // namespace ids::core
