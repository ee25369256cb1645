// The three workloads. Each function runs one episode: a fresh set-up,
// a fixed seed-determined query sequence, ingest epochs and, in traced
// episodes, probes that time each layer's public functions directly.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/parser.h"
#include "core/planner.h"
#include "core/rebalancer.h"
#include "core/workflow.h"
#include "expr/chain.h"
#include "harness.h"
#include "models/docking.h"
#include "models/dtba.h"
#include "models/molgen.h"
#include "models/smith_waterman.h"
#include "models/structure.h"
#include "scaling_common.h"
#include "store/ivf_index.h"

namespace perfbench {

namespace {

using namespace ids;

// ---- Shared pieces ---------------------------------------------------------

core::NcnprData build_data(Harness& h, const datagen::LifeSciConfig& cfg,
                           int ranks) {
  return h.timed("datagen:build_ncnpr_data", "datagen.generate_s",
                 [&] { return core::build_ncnpr_data(cfg, ranks); });
}

std::unique_ptr<core::IdsEngine> make_engine(
    Harness& h, core::EngineOptions opts, const core::NcnprData& data,
    const models::DockingParams& docking) {
  ScopedSpan span(h.spans(), "core.engine:construct");
  auto engine = std::make_unique<core::IdsEngine>(
      std::move(opts), data.triples.get(), data.features.get(),
      data.keywords.get(), data.vectors.get());
  core::register_ncnpr_udfs(engine.get(), data, docking);
  return engine;
}

/// Times one execute() call as a core.engine span.
core::QueryResult execute(Harness& h, core::IdsEngine& engine,
                          const core::Query& q) {
  ScopedSpan span(h.spans(), "core.engine:execute");
  return engine.execute(q);
}

/// (compound, energy bit pattern) pairs of a docking result, sorted.
std::vector<std::pair<graph::TermId, std::uint64_t>> energies(
    const core::QueryResult& r) {
  std::vector<std::pair<graph::TermId, std::uint64_t>> out;
  const int cpd = r.solutions.id_var_index("cpd");
  const int energy = r.solutions.num_var_index("energy");
  if (cpd < 0 || energy < 0) return out;
  for (std::size_t row = 0; row < r.solutions.num_rows(); ++row) {
    out.emplace_back(r.solutions.id_at(row, cpd),
                     std::bit_cast<std::uint64_t>(r.solutions.num_at(row, energy)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One ingest epoch: `n` library compounds, each inhibiting one or two of
/// `targets`, go through reopen -> add -> finalize -> freeze.
void ingest_epoch(Harness& h, core::NcnprData& data, std::uint64_t seed,
                  const std::string& tag, std::size_t n,
                  const std::vector<graph::TermId>& targets) {
  h.ingest([&] {
    Rng rng(seed);
    std::vector<std::string> smiles = models::generate_library(n, seed);
    graph::TripleStore& triples = *data.triples;
    triples.reopen();
    data.features->reopen();
    data.keywords->reopen();
    const graph::TermId inhibits =
        triples.dict().intern(datagen::Vocab::kInhibits);
    for (std::size_t i = 0; i < smiles.size(); ++i) {
      const std::string iri = "chembl:CPD-NEW-" + tag + "-" + std::to_string(i);
      const graph::TermId id = triples.dict().intern(iri);
      triples.add(iri, datagen::Vocab::kType, datagen::Vocab::kCompound);
      const int edges = 1 + static_cast<int>(rng.next_below(2));
      for (int e = 0; e < edges; ++e) {
        triples.add_ids({id, inhibits, targets[rng.next_below(targets.size())]});
      }
      data.features->set(id, datagen::Feat::kSmiles, smiles[i]);
      data.features->set(id, datagen::Feat::kIc50Nm,
                         std::pow(10.0, rng.uniform(0.0, 5.0)));
      data.keywords->add_document(id, "compound inhibitor ingested " + smiles[i]);
    }
    h.timed("graph:finalize", "graph.finalize_s", [&] { triples.finalize(); });
    h.timed("store:freeze", "store.freeze_s", [&] {
      data.features->freeze();
      data.keywords->freeze();
    });
  });
}

std::vector<graph::TermId> proteins_of_families(const core::NcnprData& data,
                                                int families) {
  std::vector<graph::TermId> out;
  const auto& ds = data.dataset;
  for (std::size_t i = 0; i < ds.proteins.size(); ++i) {
    if (ds.protein_family[i] < families) out.push_back(ds.proteins[i]);
  }
  return out;
}

/// Probes of the planner, rebalancer, UDF profiler and registry, and the
/// graph partition kernel, on the engine state after the query sequence.
/// `rows` is the workload's post-join row count.
void probe_engine_layers(Harness& h, core::IdsEngine& engine,
                         const core::Query& q, std::size_t rows) {
  const int p = engine.options().topology.num_ranks();
  const udf::UdfProfiler& profiler = engine.profiler();

  std::vector<expr::Conjunct> conjuncts;
  for (const expr::ExprPtr& f : q.filters) {
    for (expr::Conjunct& c : expr::flatten_conjuncts(f)) {
      conjuncts.push_back(std::move(c));
    }
  }
  std::vector<std::vector<std::size_t>> orders(static_cast<std::size_t>(p));
  h.probe("planner.order_conjuncts_s", 1.0, [&] {
    for (int r = 0; r < p; ++r) {
      orders[static_cast<std::size_t>(r)] =
          core::order_conjuncts(conjuncts, r, profiler);
    }
  });
  double estimate = 0.0;
  h.probe("planner.estimate_solution_s", 1.0, [&] {
    for (int r = 0; r < p; ++r) {
      estimate += core::estimate_solution_seconds(
          conjuncts, orders[static_cast<std::size_t>(r)], r, profiler);
    }
  });
  h.note("planner.calls", 2.0 * p);

  // Post-join rows spread over the ranks, each sent to a hashed rank.
  std::vector<std::size_t> counts(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<int>> dsts(static_cast<std::size_t>(p));
  for (std::size_t row = 0; row < rows; ++row) {
    const int dst = static_cast<int>(mix(row, 7) % static_cast<std::uint64_t>(p));
    dsts[row % static_cast<std::size_t>(p)].push_back(dst);
    ++counts[static_cast<std::size_t>(dst)];
  }
  std::size_t routed = 0;
  h.probe("graph.partition_rows_s", 1.0, [&] {
    for (const std::vector<int>& d : dsts) {
      routed += graph::SolutionTable::partition_rows(d, p).size();
    }
  });

  std::vector<double> throughput(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    throughput[static_cast<std::size_t>(r)] =
        0.9 + 0.2 * static_cast<double>(mix(static_cast<std::uint64_t>(r), 9) % 1000) / 1000.0;
  }
  constexpr int kDecideCalls = 16;
  std::size_t moved = 0;
  h.probe("rebalancer.decide_s", kDecideCalls, [&] {
    for (int i = 0; i < kDecideCalls; ++i) {
      moved += core::decide_rebalance(core::RebalancePolicy::kThroughput,
                                      counts, throughput)
                   .targets.size();
    }
  });

  const std::vector<std::string> names = engine.registry().names();
  udf::UdfStats total;
  h.probe("udf.aggregate_s", static_cast<double>(names.size()), [&] {
    for (const std::string& n : names) total.merge(profiler.aggregate(n));
  });
  std::size_t found = 0;
  h.probe("udf.find_s", static_cast<double>(names.size()), [&] {
    for (const std::string& n : names) found += engine.registry().find(n) != nullptr;
  });
  h.check(found == names.size() && routed == static_cast<std::size_t>(p) * p &&
              moved == static_cast<std::size_t>(kDecideCalls) * p &&
              std::isfinite(estimate),
          "layer probe returned an inconsistent answer");
  h.note("udf.execs", static_cast<double>(total.execs));
  h.note("udf.passed", static_cast<double>(total.execs - total.rejects), 0.0);
  h.note("udf.evaluated", static_cast<double>(total.execs), 0.0);
}

/// Probes of the model kernels: Smith-Waterman per comparison, DTBA per
/// call, docking per ligand (on up to four of `ligands`).
void probe_models(Harness& h, const core::NcnprData& data,
                  const std::vector<graph::TermId>& ligands,
                  const models::DockingParams& params) {
  if (!h.traced()) return;
  const store::FeatureStore& features = *data.features;
  std::vector<std::string_view> seqs;
  for (std::size_t i = 0; i < data.dataset.proteins.size() && seqs.size() < 64;
       i += 7) {
    if (auto s = features.get_string(data.dataset.proteins[i],
                                     datagen::Feat::kSequence)) {
      seqs.push_back(*s);
    }
  }
  std::vector<std::string_view> smiles;
  for (std::size_t i = 0; i < data.dataset.compounds.size() && smiles.size() < 64;
       i += 5) {
    if (auto s = features.get_string(data.dataset.compounds[i],
                                     datagen::Feat::kSmiles)) {
      smiles.push_back(*s);
    }
  }
  std::int64_t cells = 0;
  h.probe("models.sw_s", static_cast<double>(seqs.size()), [&] {
    for (std::string_view s : seqs) {
      cells += models::smith_waterman(data.target_sequence, s).cells;
    }
  });
  models::DtbaModel dtba;
  double affinity = 0.0;
  const std::size_t pairs = std::min(seqs.size(), smiles.size());
  h.probe("models.dtba_s", static_cast<double>(pairs), [&] {
    for (std::size_t i = 0; i < pairs; ++i) {
      affinity += dtba.predict(seqs[i], smiles[i]).affinity;
    }
  });
  models::DockingEngine docking(
      models::receptor_from_structure(models::predict_structure(data.target_sequence)),
      params);
  std::vector<std::string_view> dock_smiles;
  for (graph::TermId id : ligands) {
    if (dock_smiles.size() == 4) break;
    if (auto s = features.get_string(id, datagen::Feat::kSmiles)) {
      dock_smiles.push_back(*s);
    }
  }
  std::uint64_t pair_evals = 0;
  h.probe("models.dock_s", static_cast<double>(dock_smiles.size()), [&] {
    for (std::string_view s : dock_smiles) {
      pair_evals += docking.dock_smiles(s, 0).work_units;
    }
  });
  h.note("models.dock_pair_evals", static_cast<double>(pair_evals),
         static_cast<double>(dock_smiles.size()));
  h.check(cells > 0 && std::isfinite(affinity),
          "model probe returned an inconsistent answer");
}

/// Probes of CacheManager::put and ::get with the workload's cache
/// configuration and artifact size, on a cache of its own so the
/// workload's cache state is untouched.
void probe_cache(Harness& h, const cache::CacheConfig& config,
                 std::size_t objects, std::size_t payload_bytes) {
  if (!h.traced()) return;
  cache::CacheManager probe(config);
  sim::VirtualClock clock;
  const std::string payload(payload_bytes, 'v');
  auto key = [](std::size_t i) { return "probe/" + std::to_string(i); };
  h.probe("cache.put_s", static_cast<double>(objects), [&] {
    for (std::size_t i = 0; i < objects; ++i) {
      probe.put(clock, static_cast<int>(i) % config.num_nodes, key(i), payload);
    }
  });
  std::size_t hits = 0;
  h.probe("cache.get_s", static_cast<double>(objects), [&] {
    for (std::size_t i = 0; i < objects; ++i) {
      hits += probe.get(clock, static_cast<int>(i + 1) % config.num_nodes, key(i))
                  .has_value();
    }
  });
  h.check(hits == objects, "cache probe lost an object");
}

// ---- fig4-wide -------------------------------------------------------------

// Fig 4's NCNPR query at 64 Cray EX nodes x 32 = 2048 ranks. At 4096
// ranks one query costs 6-8 s of wall time on a 4-core host (8192: ~55 s
// per warm-up plus query), too slow to repeat within a run; at 2048 ranks
// the rebalance stage already takes most of the wall time.
constexpr int kFig4Nodes = 64;
// Queries after the warm-up; profiles accumulate, so query i's planning
// work depends on i and every episode starts from a fresh engine.
constexpr int kFig4Queries = 5;
// Ingest epochs at the end of a fig4-wide or table2-sweep episode: about
// 10 ms each, so 20 of them give ingest_wall_p50_s enough samples per run
// at little cost.
constexpr int kIngestEpochs = 20;
constexpr std::size_t kIngestCompounds = 1024;

datagen::LifeSciConfig fig4_config(std::uint64_t seed) {
  // bench/scaling_common.h's make_scaling_setup() with the workload seed.
  datagen::LifeSciConfig cfg;
  cfg.num_families = 120;
  cfg.proteins_per_family = 12;
  cfg.num_related_families = 6;
  cfg.compounds_per_family = 60;
  cfg.seq_len_mean = 320;
  cfg.seq_len_jitter = 40;
  cfg.target_min_atoms = 18;
  cfg.target_max_atoms = 24;
  cfg.seed = mix(seed, 4);
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  return cfg;
}

}  // namespace

void fig4_wide_episode(Harness& h) {
  const int ranks = kFig4Nodes * 32;
  const datagen::LifeSciConfig cfg = fig4_config(h.seed());
  std::optional<core::NcnprData> data;
  std::unique_ptr<core::IdsEngine> engine;
  h.setup([&] {
    data = build_data(h, cfg, ranks);
    const double physical_rows =
        static_cast<double>(cfg.num_families * cfg.compounds_per_family) *
        2.0 * cfg.reviewed_fraction;
    engine = make_engine(
        h, bench::scaling_engine_options(kFig4Nodes, 66.0e6 / physical_rows),
        *data, {});
    (void)execute(h, *engine, bench::scaling_query(*data, /*with_docking=*/false));
  });

  const core::Query q = bench::scaling_query(*data, /*with_docking=*/true);
  const core::QueryResult* last = nullptr;
  for (int i = 0; i < kFig4Queries; ++i) {
    last = h.query([&](core::QueryResult* out, std::string*) {
      *out = execute(h, *engine, q);
      return true;
    });
  }

  if (h.traced() && last != nullptr) {
    std::vector<graph::TermId> docked;
    for (const auto& [cpd, e] : energies(*last)) docked.push_back(cpd);
    probe_engine_layers(h, *engine, q, last->rows_after_patterns);
    probe_models(h, *data, docked, {});
  }
  const std::vector<graph::TermId> targets =
      proteins_of_families(*data, cfg.num_related_families);
  for (int e = 0; e < kIngestEpochs; ++e) {
    ingest_epoch(h, *data, mix(h.seed(), 100 + e), "F4E" + std::to_string(e),
                 kIngestCompounds, targets);
  }
}

// ---- table2-sweep ----------------------------------------------------------

namespace {

// bench/bench_table2_cache.cpp's graph, seed included. Table 2's rows are
// defined on this instance: its similarity bands admit ~55 compounds down
// to 0.50, ~120 at 0.40 and ~1000 at 0.20. Other generator seeds move
// whole families across thresholds (the 0.40 row ranges from 45 to 202
// compounds over seeds 1-12), which would make the sweep a different
// workload on every seed.
datagen::LifeSciConfig table2_config() {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 24;
  cfg.num_related_families = 20;
  cfg.proteins_per_family = 10;
  cfg.compounds_per_family = 55;
  cfg.seq_len_mean = 280;
  cfg.seq_len_jitter = 30;
  cfg.seed = 20251116;
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  cfg.related_divergences = {0.455};
  for (int f = 2; f <= 20; ++f) {
    cfg.related_divergences.push_back(0.50 +
                                      0.14 * static_cast<double>(f - 2) / 18.0);
  }
  cfg.offfamily_min_atoms = 36;
  cfg.offfamily_max_atoms = 68;
  cfg.cross_family_edges = 0.0;
  return cfg;
}

cache::CacheConfig table2_cache_config(const runtime::Topology& topo) {
  cache::CacheConfig cc;
  cc.num_nodes = topo.total_nodes();
  cc.dram_capacity_bytes = 512ull << 20;
  cc.ssd_capacity_bytes = 4ull << 30;
  cc.serialization_service_seconds = 0.21;
  return cc;
}

constexpr double kTable2Thresholds[] = {0.99, 0.90, 0.80, 0.70,
                                        0.60, 0.50, 0.40, 0.20};

// Set-ups per episode. One set-up takes ~0.1-0.2 s, so one sample per
// episode left setup_s with two or three noisy samples per run; the
// episode keeps the last set-up's data.
constexpr int kTable2Setups = 3;

}  // namespace

void table2_sweep_episode(Harness& h) {
  const runtime::Topology topo = runtime::Topology::cache_testbed(2, 2);
  models::DockingParams dock_params;
  dock_params.exhaustiveness = 2;
  core::EngineOptions base;
  base.topology = topo;
  base.costs.docking_seconds_per_unit *= 4.0;  // exhaustiveness 2 vs 8

  // The episode seed draws the potency and affinity floors, which Table 2
  // holds near 4.0 (it sweeps only the SW threshold), and the ingested
  // compounds.
  Rng rng(mix(h.seed(), 2));
  const double min_pic50 = rng.uniform(4.0, 4.25);
  const double min_dtba = rng.uniform(4.0, 4.25);
  auto query_for = [&](const core::NcnprData& data, double threshold,
                       bool cached) {
    core::NcnprThresholds t;
    t.min_sw_similarity = threshold;
    t.min_pic50 = min_pic50;
    t.min_dtba = min_dtba;
    return core::make_ncnpr_query(data, t, true, cached);
  };

  const datagen::LifeSciConfig cfg = table2_config();
  std::optional<core::NcnprData> data;
  for (int i = 0; i < kTable2Setups; ++i) {
    h.setup([&] {
      data = build_data(h, cfg, topo.num_ranks());
      auto engine = make_engine(h, base, *data, dock_params);
      (void)execute(h, *engine, query_for(*data, kTable2Thresholds[0], false));
    });
  }

  for (double threshold : kTable2Thresholds) {
    auto uncached_engine = make_engine(h, base, *data, dock_params);
    const core::Query uq = query_for(*data, threshold, false);
    const core::QueryResult* r = h.query([&](core::QueryResult* out, std::string*) {
      *out = execute(h, *uncached_engine, uq);
      return true;
    });
    const auto reference = h.off_clock([&] {
      return r != nullptr ? energies(*r) : decltype(energies(*r)){};
    });

    // Fresh cache per threshold: the first pass populates, the second
    // reads. Docking energies must equal the uncached ones bit for bit.
    cache::CacheManager cache(table2_cache_config(topo));
    core::EngineOptions opts = base;
    opts.cache = &cache;
    auto cached_engine = make_engine(h, opts, *data, dock_params);
    const core::Query cq = query_for(*data, threshold, true);
    for (const char* pass : {"cold", "warm"}) {
      const core::QueryResult* c = h.query([&](core::QueryResult* out, std::string*) {
        *out = execute(h, *cached_engine, cq);
        return true;
      });
      if (c != nullptr) {
        h.check(h.off_clock([&] { return energies(*c) == reference; }),
                std::string("docking energies with the cache (") + pass +
                    " pass) differ from those without it");
      }
    }
    if (h.traced()) {
      h.note("cache.spills", static_cast<double>(cache.stats().spills_to_ssd));
      if (threshold == kTable2Thresholds[std::size(kTable2Thresholds) - 1]) {
        std::vector<graph::TermId> docked;
        for (const auto& [cpd, e] : reference) docked.push_back(cpd);
        probe_engine_layers(h, *cached_engine, cq, r ? r->rows_after_patterns : 0);
        probe_models(h, *data, docked, dock_params);
        probe_cache(h, table2_cache_config(topo), 64,
                    cq.invokes.front().cached_payload_bytes);
      }
    }
  }

  const std::vector<graph::TermId> targets = proteins_of_families(*data, 2);
  for (int e = 0; e < kIngestEpochs; ++e) {
    ingest_epoch(h, *data, mix(h.seed(), 200 + e), "T2E" + std::to_string(e),
                 kIngestCompounds, targets);
  }
}

// ---- whatif-session --------------------------------------------------------

namespace {

// One rank: with many ranks the median session query spends most of its
// wall time waiting in ThreadPool::parallel_for for every helper task to
// be scheduled, and on a shared 4-vCPU host that wait alone moved the
// median by 2-3x from run to run (32 ranks: spread 0.62 over ten seeds).
constexpr int kWhatifRanks = 1;
constexpr int kWhatifIngestEvery = 12;
constexpr std::size_t kWhatifIngestCompounds = 24;

datagen::LifeSciConfig whatif_config(std::uint64_t seed) {
  // About ten times examples/ncnpr_workflow's graph.
  datagen::LifeSciConfig cfg;
  cfg.num_families = 120;
  cfg.proteins_per_family = 30;
  cfg.num_related_families = 6;
  cfg.compounds_per_family = 50;
  cfg.seq_len_mean = 250;
  cfg.seq_len_jitter = 30;
  cfg.seed = mix(seed, 3);
  return cfg;
}

std::string vector_literal(std::span<const float> v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i == 0 ? "" : ", ",
                  static_cast<double>(v[i]));
    out += buf;
  }
  return out + "]";
}

enum class Kind { kPattern, kKeywordAll, kKeywordAny, kVectorExact, kVectorIvf,
                  kNcnpr, kOrderLimit };

struct SessionQuery {
  Kind kind;
  std::string text;
};

/// One episode's query kinds in a seeded order. Every episode runs the
/// same count of each kind (patterns 20%, keyword 20%, vector 25%, NCNPR
/// 25%, ORDER BY 10% of 48), so the mix, and with it the median query,
/// does not drift with the seed.
std::vector<Kind> session_kinds(Rng& rng) {
  static constexpr std::pair<Kind, int> kCounts[] = {
      {Kind::kPattern, 10},    {Kind::kKeywordAll, 5}, {Kind::kKeywordAny, 5},
      {Kind::kVectorExact, 7}, {Kind::kVectorIvf, 5},  {Kind::kNcnpr, 12},
      {Kind::kOrderLimit, 4}};
  std::vector<Kind> kinds;
  for (const auto& [kind, count] : kCounts) kinds.insert(kinds.end(), count, kind);
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.next_below(i)]);
  }
  return kinds;
}

/// A query of `kind` with its parameters drawn from `rng`.
SessionQuery make_query(Kind kind, Rng& rng, const core::NcnprData& data,
                        const datagen::LifeSciConfig& cfg) {
  const auto family = [&] {
    return std::to_string(rng.next_below(static_cast<std::uint64_t>(cfg.num_families)));
  };
  switch (kind) {
    case Kind::kPattern:
      return {kind,
              "SELECT ?cpd ?prot WHERE { ?prot bio:inFamily bio:family/" + family() +
                  " . ?prot up:reviewed \"true\" . ?cpd chembl:inhibits ?prot . }"};
    case Kind::kKeywordAll:
      return {kind,
              "SELECT ?prot WHERE { ?prot rdf:type bio:Protein . } KEYWORD ?prot "
              "MATCHES ALL (\"family\", \"" + family() + "\", \"reviewed\")"};
    case Kind::kKeywordAny:
      return {kind,
              "SELECT ?cpd WHERE { ?cpd rdf:type bio:Compound . } KEYWORD ?cpd "
              "MATCHES ANY (\"" + family() + "\", \"" + family() + "\")"};
    case Kind::kVectorExact:
    case Kind::kVectorIvf: {
      // Near a random protein's embedding: what else looks like this one?
      const auto& prots = data.dataset.proteins;
      const std::span<const float> base =
          data.vectors->get(prots[rng.next_below(prots.size())]);
      std::vector<float> v(base.begin(), base.end());
      for (float& x : v) x *= static_cast<float>(rng.uniform(0.9, 1.1));
      return {kind,
              "SELECT ?prot WHERE { ?prot rdf:type bio:Protein . } VECTOR ?prot "
              "NEAREST 10 COSINE " + vector_literal(v)};
    }
    case Kind::kNcnpr: {
      static constexpr double kSw[] = {0.88, 0.90, 0.92};
      static constexpr double kPic50[] = {4.0, 4.5, 5.0};
      static constexpr double kDtba[] = {6.0, 6.5, 7.0};
      char filter[160];
      std::snprintf(filter, sizeof filter,
                    "FILTER ncnpr.dtba(?prot, ?cpd) >= %.2f && "
                    "ncnpr.sw_similarity(?prot) >= %.2f && ncnpr.pic50(?cpd) >= %.2f",
                    kDtba[rng.next_below(3)], kSw[rng.next_below(3)],
                    kPic50[rng.next_below(3)]);
      return {kind,
              "SELECT ?cpd WHERE { ?prot bio:inFamily bio:family/" +
                  std::to_string(rng.next_below(2)) +
                  " . ?prot up:reviewed \"true\" . ?cpd chembl:inhibits ?prot . } " +
                  filter +
                  " DISTINCT ?cpd INVOKE ncnpr.dock(?cpd) AS ?energy CACHE "
                  "\"vina/P29274\" ORDER BY ?energy LIMIT 10"};
    }
    case Kind::kOrderLimit:
      break;
  }
  return {Kind::kOrderLimit,
          "SELECT ?cpd WHERE { ?prot bio:inFamily bio:family/" + family() +
              " . ?cpd chembl:inhibits ?prot . } INVOKE ncnpr.pic50(?cpd) AS ?p "
              "ORDER BY ?p DESC LIMIT 10"};
}

/// The harness's own exact top-k: every protein scored, best k kept.
bool matches_brute_force(const core::NcnprData& data,
                         const core::VectorClause& vc,
                         const core::QueryResult& r) {
  std::vector<std::pair<float, graph::TermId>> scored;
  for (graph::TermId id : data.dataset.proteins) {
    scored.emplace_back(
        store::VectorStore::similarity(vc.query, data.vectors->get(id), vc.metric),
        id);
  }
  const std::size_t k = std::min(vc.k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  std::set<graph::TermId> expected;
  for (std::size_t i = 0; i < k; ++i) expected.insert(scored[i].second);
  const int col = r.solutions.id_var_index(vc.var);
  if (col < 0) return false;
  const std::vector<graph::TermId>& ids = r.solutions.id_col(col);
  return std::set<graph::TermId>(ids.begin(), ids.end()) == expected;
}

void probe_stores(Harness& h, const core::NcnprData& data,
                  const std::vector<core::Query>& keyword_queries,
                  const std::vector<core::Query>& exact_queries,
                  const std::vector<core::Query>& ivf_queries) {
  std::size_t hits = 0;
  h.probe("store.keyword_search_s", static_cast<double>(keyword_queries.size()), [&] {
    for (const core::Query& q : keyword_queries) {
      const core::KeywordClause& kc = q.keywords.front();
      hits += (kc.conjunctive ? data.keywords->search_and(kc.tokens)
                              : data.keywords->search_or(kc.tokens))
                  .size();
    }
  });
  h.probe("store.vector_topk_s", static_cast<double>(exact_queries.size()), [&] {
    for (const core::Query& q : exact_queries) {
      const core::VectorClause& vc = q.vectors.front();
      hits += data.vectors->topk(vc.query, vc.k, vc.metric).size();
    }
  });
  // One IVF search is what the engine does for one clause: build each
  // shard's index and probe it.
  h.probe("store.ivf_search_s", static_cast<double>(ivf_queries.size()), [&] {
    for (const core::Query& q : ivf_queries) {
      const core::VectorClause& vc = q.vectors.front();
      store::IvfIndex::Params params;
      params.num_clusters = vc.ivf_clusters;
      for (int r = 0; r < data.vectors->num_shards(); ++r) {
        store::IvfIndex index(*data.vectors, r, params);
        hits += index.topk(vc.query, vc.k, vc.metric, vc.ivf_nprobe).size();
      }
    }
  });
  h.check(hits >= exact_queries.size(), "store probe found nothing");
}

}  // namespace

void whatif_session_episode(Harness& h) {
  const datagen::LifeSciConfig cfg = whatif_config(h.seed());
  cache::CacheConfig cc;
  cc.num_nodes = 4;
  cc.dram_capacity_bytes = 64ull << 20;
  cache::CacheManager cache(cc);
  std::optional<core::NcnprData> data;
  std::unique_ptr<core::IdsEngine> engine;
  h.setup([&] {
    data = build_data(h, cfg, kWhatifRanks);
    core::EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kWhatifRanks);
    opts.cache = &cache;
    engine = make_engine(h, opts, *data, {});
    Result<core::Query> warm = core::parse_query(
        "SELECT ?cpd ?prot WHERE { ?prot rdf:type bio:Protein . "
        "?cpd chembl:inhibits ?prot . }",
        &data->triples->dict());
    if (warm.ok()) (void)execute(h, *engine, warm.value());
  });

  Rng rng(mix(h.seed(), 5));
  const std::vector<graph::TermId> targets = proteins_of_families(*data, 2);
  std::vector<core::Query> keyword_queries, exact_queries, ivf_queries;
  std::optional<core::Query> ncnpr_query;
  std::vector<graph::TermId> docked;
  std::size_t ncnpr_rows = 0;
  const std::vector<Kind> kinds = session_kinds(rng);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const SessionQuery sq = make_query(kinds[i], rng, *data, cfg);
    core::Query parsed;
    const core::QueryResult* r = h.query([&](core::QueryResult* out, std::string* error) {
      Result<core::Query> q = h.timed("core.parser:parse_query", "parser.parse_s", [&] {
        return core::parse_query(sq.text, &data->triples->dict());
      });
      if (!q.ok()) {
        *error = "parse error: " + q.status().to_string();
        return false;
      }
      parsed = std::move(q).value();
      if (sq.kind == Kind::kVectorIvf) {
        parsed.vectors.front().ivf_nprobe = 4;
        parsed.vectors.front().ivf_clusters = 8;
      }
      *out = execute(h, *engine, parsed);
      return true;
    });
    if (r != nullptr && sq.kind == Kind::kVectorExact) {
      h.check(h.off_clock([&] {
                return matches_brute_force(*data, parsed.vectors.front(), *r);
              }),
              "exact VECTOR top-k differs from a brute-force scan");
    }
    if (r != nullptr && h.traced()) {
      h.off_clock([&] {
        switch (sq.kind) {
          case Kind::kKeywordAll:
          case Kind::kKeywordAny: keyword_queries.push_back(parsed); break;
          case Kind::kVectorExact: exact_queries.push_back(parsed); break;
          case Kind::kVectorIvf: ivf_queries.push_back(parsed); break;
          case Kind::kNcnpr:
            docked.clear();
            for (const auto& [cpd, e] : energies(*r)) docked.push_back(cpd);
            ncnpr_rows = r->rows_after_patterns;
            ncnpr_query = parsed;
            break;
          default: break;
        }
      });
    }
    if ((i + 1) % kWhatifIngestEvery == 0) {
      ingest_epoch(h, *data, mix(h.seed(), 300 + static_cast<std::uint64_t>(i)),
                   "WI" + std::to_string(i), kWhatifIngestCompounds, targets);
    }
  }

  if (h.traced()) {
    h.note("cache.spills", static_cast<double>(cache.stats().spills_to_ssd));
    probe_stores(h, *data, keyword_queries, exact_queries, ivf_queries);
    if (ncnpr_query) probe_engine_layers(h, *engine, *ncnpr_query, ncnpr_rows);
    probe_models(h, *data, docked, {});
    probe_cache(h, cc, 64, 50'000);
  }
}

}  // namespace perfbench
