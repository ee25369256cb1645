// Kernel microbenchmarks (google-benchmark): the real computational cost
// of every model/substrate kernel on this host. These are wall-clock
// measurements of the actual algorithms (no virtual time), backing the
// per-call magnitudes in §4/§5.1 of the paper: SW <1 ms, pIC50 ~1e-5 s
// (trivially faster here), DTBA per-inference forward pass, docking
// seconds-scale search loops.

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "algo/graph_algorithms.h"
#include "cache/manager.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/planner.h"
#include "datagen/lifesci.h"
#include "expr/chain.h"
#include "graph/solution.h"
#include "graph/triple_store.h"
#include "models/docking.h"
#include "models/dtba.h"
#include "models/molgen.h"
#include "models/pic50.h"
#include "models/smith_waterman.h"
#include "models/structure.h"
#include "store/vector_store.h"
#include "telemetry/profiler.h"
#include "udf/profiler.h"

namespace {

using namespace ids;

/// Pins the SIMD dispatch level for one benchmark's scope (build + timed
/// loop) and restores the previous level on exit. The *Scalar benchmark
/// variants use this so one BENCH_kernels.json recording carries the
/// scalar-vs-dispatched claim directly.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : prev_(simd::active_level()) {
    simd::set_level(level);
  }
  ~ScopedSimdLevel() { simd::set_level(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  simd::Level prev_;
};

void BM_SmithWaterman(benchmark::State& state) {
  Rng rng(1);
  const auto len = static_cast<int>(state.range(0));
  std::string a = datagen::random_protein_sequence(rng, len);
  std::string b = datagen::random_protein_sequence(rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::smith_waterman(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cells"] = static_cast<double>(len) * len;
}
BENCHMARK(BM_SmithWaterman)->Arg(128)->Arg(350)->Arg(1024);

void BM_SmithWatermanScalar(benchmark::State& state) {
  ScopedSimdLevel scoped(simd::Level::kScalar);
  Rng rng(1);
  const auto len = static_cast<int>(state.range(0));
  std::string a = datagen::random_protein_sequence(rng, len);
  std::string b = datagen::random_protein_sequence(rng, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::smith_waterman(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cells"] = static_cast<double>(len) * len;
}
BENCHMARK(BM_SmithWatermanScalar)->Arg(128)->Arg(350)->Arg(1024);

void BM_SwNormalizedSimilarity(benchmark::State& state) {
  Rng rng(2);
  std::string a = datagen::random_protein_sequence(rng, 350);
  std::string b = datagen::mutate_sequence(rng, a, 0.2, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::normalized_similarity(a, b));
  }
}
BENCHMARK(BM_SwNormalizedSimilarity);

void BM_Pic50(benchmark::State& state) {
  double x = 37.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::pic50_from_ic50_nm(x));
  }
}
BENCHMARK(BM_Pic50);

void BM_DtbaPredict(benchmark::State& state) {
  Rng rng(3);
  models::DtbaModel model;
  std::string seq =
      datagen::random_protein_sequence(rng, static_cast<int>(state.range(0)));
  std::string smiles = models::generate_smiles(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(seq, smiles));
  }
}
BENCHMARK(BM_DtbaPredict)->Arg(150)->Arg(350)->Arg(1000);

void BM_StructurePredict(benchmark::State& state) {
  Rng rng(4);
  std::string seq =
      datagen::random_protein_sequence(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::predict_structure(seq));
  }
}
BENCHMARK(BM_StructurePredict)->Arg(150)->Arg(400);

void BM_DockingEnergy(benchmark::State& state) {
  Rng rng(5);
  auto st = models::predict_structure(datagen::random_protein_sequence(rng, 250));
  models::Molecule rec = models::receptor_from_structure(st);
  models::Molecule lig = models::ligand_from_smiles("CCNC(=O)c1ccc1CCOC");
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::interaction_energy(rec, lig));
  }
}
BENCHMARK(BM_DockingEnergy);

void BM_DockingFull(benchmark::State& state) {
  Rng rng(6);
  auto st = models::predict_structure(datagen::random_protein_sequence(rng, 250));
  models::DockingParams p;
  p.exhaustiveness = static_cast<int>(state.range(0));
  models::DockingEngine eng(models::receptor_from_structure(st), p);
  models::Molecule lig = models::ligand_from_smiles("CCNC(=O)c1ccc1CCOCCNCC");
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.dock(lig, seed++));
  }
}
BENCHMARK(BM_DockingFull)->Arg(1)->Arg(8);

void BM_TripleScan(benchmark::State& state) {
  graph::TripleStore store(1);
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    store.add_ids({1 + rng.next_below(5000), 100 + rng.next_below(10),
                   1 + rng.next_below(5000)});
  }
  store.finalize();
  graph::TriplePattern q{graph::PatternTerm::Var("s"),
                         graph::PatternTerm::Const(101),
                         graph::PatternTerm::Var("o")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.shard(0).count(q));
  }
  state.counters["triples"] = 100000;
}
BENCHMARK(BM_TripleScan);

void BM_VectorTopK(benchmark::State& state) {
  store::VectorStore vs(1, 128);
  Rng rng(8);
  for (graph::TermId id = 1; id <= 10000; ++id) {
    std::vector<float> v(128);
    for (auto& x : v) x = static_cast<float>(rng.normal());
    vs.add(id, v);
  }
  std::vector<float> q(128);
  for (auto& x : q) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(vs.topk_shard(0, q, 10, store::Metric::kCosine));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_VectorTopK);

void BM_CachePutGet(benchmark::State& state) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 256ull << 20;
  cache::CacheManager cache(cc);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", std::string(50'000, 'x'));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(clock, 0, "obj"));
  }
}
BENCHMARK(BM_CachePutGet);

// The cost of the live observability plane on an instrumented hot path:
// the same cache-get loop (ProfileScope inside CacheManager::get, tier
// counters on every hit) with the sampling profiler fully off (Arg 0) and
// fully on — scopes collected, sampler thread ticking (Arg 1). tools/
// bench.sh gates the on/off ratio at <5%; the off case is one relaxed
// atomic load per scope, the on case two shadow-stack stores plus a
// 97 Hz sampler that never locks against the mutator on this path.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool profiled = state.range(0) != 0;
  auto& profiler = telemetry::Profiler::global();
  cache::CacheConfig cc;
  cc.dram_capacity_bytes = 256ull << 20;
  cache::CacheManager cache(cc);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", std::string(50'000, 'x'));
  if (profiled) {
    profiler.start();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(clock, 0, "obj"));
  }
  if (profiled) {
    profiler.stop();
    state.counters["profile_samples"] =
        static_cast<double>(profiler.samples_total());
    profiler.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1);

/// "v<i>", built by appending to one string.
std::string vertex_name(std::uint64_t i) {
  std::string name = "v";
  name += std::to_string(i);
  return name;
}

void BM_PageRank(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  graph::TripleStore store(8);
  Rng rng(10);
  for (int i = 0; i < n * 4; ++i) {
    store.add(vertex_name(rng.next_below(n)), "edge",
              vertex_name(rng.next_below(n)));
  }
  store.finalize();
  runtime::Topology topo = runtime::Topology::laptop(8);
  for (auto _ : state) {
    algo::PageRankOptions opts;
    opts.max_iterations = 10;
    benchmark::DoNotOptimize(algo::pagerank(store, topo, graph::kInvalidTerm,
                                            opts));
  }
  state.counters["edges"] = n * 4;
}
BENCHMARK(BM_PageRank)->Arg(500)->Arg(5000);

void BM_ConnectedComponents(benchmark::State& state) {
  graph::TripleStore store(8);
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    store.add(vertex_name(rng.next_below(1000)), "edge",
              vertex_name(rng.next_below(1000)));
  }
  store.finalize();
  runtime::Topology topo = runtime::Topology::laptop(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::connected_components(store, topo));
  }
}
BENCHMARK(BM_ConnectedComponents);

void BM_MutateSequence(benchmark::State& state) {
  Rng rng(9);
  std::string base = datagen::random_protein_sequence(rng, 350);
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::mutate_sequence(rng, base, 0.1, 0.01));
  }
}
BENCHMARK(BM_MutateSequence);

// ---- Old-vs-new kernel comparisons ---------------------------------------
// Each pair benchmarks the pre-batch-kernel implementation (reconstructed
// here as a baseline) against the engine's current kernel on identical
// inputs, so BENCH_kernels.json records the speedup directly.

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Single-accumulator loops, as vector_store.cpp/ivf_index.cpp wrote them
// before the shared 4-way kernels. The serial dependence chain is the
// baseline being measured; DoNotOptimize on the accumulator is not needed
// because the result feeds the benchmark sink.
float dot_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

float l2sq_scalar(const float* a, const float* b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void BM_DotScalar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = random_floats(dim, 21);
  auto b = random_floats(dim, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot_scalar(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DotScalar)->Arg(128)->Arg(512);

void BM_DotKernel(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = random_floats(dim, 21);
  auto b = random_floats(dim, 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DotKernel)->Arg(128)->Arg(512);

void BM_L2Scalar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = random_floats(dim, 23);
  auto b = random_floats(dim, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l2sq_scalar(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_L2Scalar)->Arg(128)->Arg(512);

void BM_L2Kernel(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto a = random_floats(dim, 23);
  auto b = random_floats(dim, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::l2sq(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_L2Kernel)->Arg(128)->Arg(512);

// ---- Batched multi-row scan kernels (ISSUE 7) ---------------------------
// One query against a contiguous row-major candidate block — the
// VectorStore::topk_shard / IvfIndex inner loop. The *Scalar variants pin
// the dispatch level so the recording carries scalar-vs-SIMD directly.

constexpr std::size_t kBatchRows = 4096;

void run_dot_batch(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto rows = random_floats(kBatchRows * dim, 25);
  auto q = random_floats(dim, 26);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    simd::dot_batch(q.data(), rows.data(), kBatchRows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchRows * dim));
}

void BM_DotBatch(benchmark::State& state) { run_dot_batch(state); }
BENCHMARK(BM_DotBatch)->Arg(128)->Arg(512);

void BM_DotBatchScalar(benchmark::State& state) {
  ScopedSimdLevel scoped(simd::Level::kScalar);
  run_dot_batch(state);
}
BENCHMARK(BM_DotBatchScalar)->Arg(128)->Arg(512);

void run_l2_batch(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  auto rows = random_floats(kBatchRows * dim, 27);
  auto q = random_floats(dim, 28);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    simd::l2sq_batch(q.data(), rows.data(), kBatchRows, dim, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatchRows * dim));
}

void BM_L2Batch(benchmark::State& state) { run_l2_batch(state); }
BENCHMARK(BM_L2Batch)->Arg(128)->Arg(512);

void BM_L2BatchScalar(benchmark::State& state) {
  ScopedSimdLevel scoped(simd::Level::kScalar);
  run_l2_batch(state);
}
BENCHMARK(BM_L2BatchScalar)->Arg(128)->Arg(512);

/// A solution table shaped like the engine's mid-query state: three id
/// columns, one numeric column.
graph::SolutionTable make_shuffle_table(std::size_t rows) {
  graph::SolutionTable t{{"a", "b", "c"}, {"score"}};
  Rng rng(31);
  t.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    graph::TermId ids[3] = {rng.next_u64(), rng.next_u64(), rng.next_u64()};
    double num = rng.uniform(0.0, 1.0);
    t.append_row(ids, {&num, 1});
  }
  return t;
}

// Sizes model per-rank table parts: workloads here shard 1e4-1e5 rows over
// 8-256 ranks, so a part is thousands of rows and its columns sit in L2,
// where the per-destination gathers stream. (Far beyond L2 the gather's
// repeated sparse passes over the source column converge with the per-row
// walk; per-part sizes never reach that regime.)
void BM_ShufflePerRow(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr int kParts = 16;
  graph::SolutionTable table = make_shuffle_table(rows);
  for (auto _ : state) {
    std::vector<graph::SolutionTable> out(kParts, table.empty_like());
    for (std::size_t row = 0; row < rows; ++row) {
      const int dst = shard_of(table.id_at(row, 0), kParts);
      out[static_cast<std::size_t>(dst)].append_row_from(table, row);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ShufflePerRow)->Arg(1 << 12)->Arg(1 << 14);

void BM_ShuffleBatch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr int kParts = 16;
  const std::vector<graph::SolutionTable> parts = {make_shuffle_table(rows)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::exchange_by_key(parts, 0, kParts));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ShuffleBatch)->Arg(1 << 12)->Arg(1 << 14);

// The wide fan-out shape of a 2048-rank query (fig4-wide): every rank holds
// only a few rows and hashes them across all 2048 ranks. One iteration is a
// whole exchange (all sources into all destinations, reporting every
// src != dst group as the engine's traffic booking does), so any per-(src,
// dst) bookkeeping shows up as O(p^2) here; Arg = rows per source.
void BM_ShuffleWide(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  constexpr int kRanks = 2048;
  std::vector<graph::SolutionTable> parts;
  for (int r = 0; r < kRanks; ++r) parts.push_back(make_shuffle_table(rows));
  for (auto _ : state) {
    std::size_t sent = 0;
    benchmark::DoNotOptimize(graph::exchange_by_key(
        parts, 0, kRanks,
        [&sent](int, int, std::size_t n) { sent += n; }));
    benchmark::DoNotOptimize(sent);
  }
  state.SetItemsProcessed(state.iterations() * rows * kRanks);
}
BENCHMARK(BM_ShuffleWide)->Arg(4)->Arg(32);

// The FILTER planner of a 2048-rank query on the Fig 4 chain (DTBA, SW
// similarity, pIC50): one profile snapshot, then a conjunct order and a
// single-solution estimate per rank, as apply_filters plans before
// re-balancing. Ranks have 0, a few (below full confidence) or many
// executions, so every branch of the cost shrinkage is exercised.
void BM_PlannerAllRanks(benchmark::State& state) {
  constexpr int kRanks = 2048;
  using expr::CmpOp;
  using expr::Expr;
  const std::vector<expr::ExprPtr> filters = {
      Expr::Compare(
          CmpOp::kGe,
          Expr::Udf("ncnpr.dtba", {Expr::Var("prot"), Expr::Var("cpd")}),
          Expr::Constant(7.4)),
      Expr::Compare(CmpOp::kGe,
                    Expr::Udf("ncnpr.sw_similarity", {Expr::Var("prot")}),
                    Expr::Constant(0.9)),
      Expr::Compare(CmpOp::kGe, Expr::Udf("ncnpr.pic50", {Expr::Var("cpd")}),
                    Expr::Constant(5.0))};
  std::vector<expr::Conjunct> conjuncts;
  for (const auto& f : filters) {
    for (auto& c : expr::flatten_conjuncts(f)) {
      conjuncts.push_back(std::move(c));
    }
  }
  // One published tally with the same random profile as before.
  udf::UdfProfiler profiler(kRanks);
  udf::ProfileTable tally({"ncnpr.dtba", "ncnpr.sw_similarity", "ncnpr.pic50"},
                          kRanks);
  Rng rng(43);
  for (int r = 0; r < kRanks; ++r) {
    for (udf::UdfStats& cell : tally.row(r)) {
      const auto execs = rng.next_below(40);
      for (std::uint64_t i = 0; i < execs; ++i) {
        ++cell.execs;
        cell.total_time += static_cast<sim::Nanos>(1000 + rng.next_below(1000));
        if (rng.next_below(4) == 0) ++cell.rejects;
      }
    }
  }
  profiler.publish(tally);
  for (auto _ : state) {
    const udf::ProfileTable profile =
        core::snapshot_profile(conjuncts, profiler);
    double total = 0.0;
    for (int r = 0; r < kRanks; ++r) {
      auto order = core::order_conjuncts(conjuncts, r, profile);
      total += core::estimate_solution_seconds(conjuncts, order, r, profile);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * kRanks);
}
BENCHMARK(BM_PlannerAllRanks);

/// Build keys with ~4 rows per key (the engine's typical join fan-in) and
/// probe keys drawn from the same domain.
void make_join_keys(std::size_t n, std::vector<std::uint64_t>* build,
                    std::vector<std::uint64_t>* probe) {
  Rng rng(41);
  build->resize(n);
  probe->resize(n);
  const std::uint64_t domain = n / 4 + 1;
  for (auto& k : *build) k = rng.next_below(domain);
  for (auto& k : *probe) k = rng.next_below(domain);
}

void BM_JoinIndexMultimap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> build, probe;
  make_join_keys(n, &build, &probe);
  for (auto _ : state) {
    std::unordered_multimap<std::uint64_t, std::size_t> index;
    index.reserve(n);
    for (std::size_t i = 0; i < n; ++i) index.emplace(build[i], i);
    std::size_t produced = 0;
    for (std::uint64_t key : probe) {
      auto [lo, hi] = index.equal_range(key);
      for (auto it = lo; it != hi; ++it) produced += it->second;
    }
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JoinIndexMultimap)->Arg(1 << 14)->Arg(1 << 17);

void BM_JoinIndexFlat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> build, probe;
  make_join_keys(n, &build, &probe);
  for (auto _ : state) {
    FlatGroupIndex index(build);
    std::size_t produced = 0;
    for (std::uint64_t key : probe) {
      for (std::uint32_t row : index.probe(key)) produced += row;
    }
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JoinIndexFlat)->Arg(1 << 14)->Arg(1 << 17);

// Probe-side only (index built outside the timed loop): the group-scan
// metadata walk is the measured path, at the dispatched vs scalar level.
void run_flat_group_probe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> build, probe;
  make_join_keys(n, &build, &probe);
  FlatGroupIndex index(build);
  for (auto _ : state) {
    std::size_t produced = 0;
    for (std::uint64_t key : probe) {
      for (std::uint32_t row : index.probe(key)) produced += row;
    }
    benchmark::DoNotOptimize(produced);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_FlatGroupProbe(benchmark::State& state) { run_flat_group_probe(state); }
BENCHMARK(BM_FlatGroupProbe)->Arg(1 << 14)->Arg(1 << 17);

void BM_FlatGroupProbeScalar(benchmark::State& state) {
  ScopedSimdLevel scoped(simd::Level::kScalar);
  run_flat_group_probe(state);
}
BENCHMARK(BM_FlatGroupProbeScalar)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

#ifndef IDS_BENCH_BUILD_TYPE
#define IDS_BENCH_BUILD_TYPE "unspecified"
#endif

// Custom main instead of BENCHMARK_MAIN(): stamps provenance (build type,
// SIMD dispatch level) into the JSON context, so a committed
// BENCH_kernels.json can always be traced to the binary that produced it.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("ids_build_type", IDS_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext(
      "ids_simd_level", ids::simd::level_name(ids::simd::active_level()));
  benchmark::AddCustomContext(
      "ids_simd_detected", ids::simd::level_name(ids::simd::detected_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
