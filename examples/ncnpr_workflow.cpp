// The NCNPR drug re-purposing workflow (§4 of the paper), end to end:
//
//   1. find proteins related to the target (the P29274 analogue)
//   2. retrieve its sequence and predicted structure
//   3. assemble candidate compounds that inhibit related proteins
//   4. filter by Smith-Waterman similarity, pIC50 and DTBA prediction
//   5. dock the surviving compounds against the target receptor
//
// Runs the query twice against the global distributed cache to show the
// interactive-iteration story: the second "what-if" (a refined threshold
// over an overlapping candidate set) reuses cached docking outputs.
//
//   $ ./examples/ncnpr_workflow
//
// Telemetry: `--trace out.json` records both executions as a Chrome
// trace_event file (load it at https://ui.perfetto.dev or in
// chrome://tracing); `--metrics out.prom` dumps the process-global
// metrics registry in Prometheus text exposition format.
//
// Live observability: `--serve-obs PORT` starts the in-process HTTP
// exposition server (PORT 0 picks an ephemeral port, printed on stdout)
// with /metrics, /statusz, /tracez and /profilez; `--hold-obs SEC` keeps
// the process alive serving for SEC seconds after the workflow finishes
// so the endpoints can be scraped. `--profile out.folded` runs the
// sampling profiler across both executions and writes collapsed
// flamegraph stacks (feed to flamegraph.pl or speedscope.app).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "core/workflow.h"
#include "models/structure.h"
#include "telemetry/metrics.h"
#include "telemetry/obs_server.h"
#include "telemetry/profiler.h"
#include "telemetry/query_log.h"
#include "telemetry/trace.h"

using namespace ids;

namespace {

void dump_to(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  const char* profile_path = nullptr;
  int obs_port = -1;       // -1 = no obs server; 0 = ephemeral port
  double hold_obs = 0.0;   // seconds to keep serving after the workflow
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-obs") == 0 && i + 1 < argc) {
      obs_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--hold-obs") == 0 && i + 1 < argc) {
      hold_obs = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: ncnpr_workflow [--trace out.json] "
                   "[--metrics out.prom] [--profile out.folded] "
                   "[--serve-obs PORT] [--hold-obs SEC]\n");
      return 2;
    }
  }
  // A laptop-scale slice of the life-sciences graph: 30 protein families
  // (5 related to the target clade), with inhibitor compounds and assays.
  datagen::LifeSciConfig cfg;
  cfg.num_families = 30;
  cfg.proteins_per_family = 12;
  cfg.num_related_families = 5;
  cfg.compounds_per_family = 20;
  cfg.seq_len_mean = 250;
  cfg.seq_len_jitter = 30;
  cfg.seed = 7;

  constexpr int kRanks = 16;
  std::printf("building knowledge graph");
  core::NcnprData data = core::build_ncnpr_data(cfg, kRanks);
  std::printf(": %zu proteins, %zu compounds, %zu triples\n",
              data.dataset.proteins.size(), data.dataset.compounds.size(),
              data.triples->total_triples());

  // Step 2 artifacts: sequence + predicted structure of the target.
  auto structure = models::predict_structure(data.target_sequence);
  std::printf("target %s: %zu residues, predicted structure confidence %.0f\n",
              datagen::Vocab::kTargetProtein, data.target_sequence.size(),
              structure.mean_confidence);

  // The cluster-wide cache (2 compute + 2 memory nodes' worth of tiers).
  cache::CacheConfig cc;
  cc.num_nodes = 4;
  cc.dram_capacity_bytes = 64ull << 20;
  cache::CacheManager cache(cc);

  // The log records span trees only when asked to: the obs server's
  // /tracez needs them, so --serve-obs implies tracing even without a
  // --trace output file.
  constexpr std::size_t kMaxSpans = 1u << 16;
  const bool traced = trace_path != nullptr || obs_port >= 0;
  telemetry::QueryLog query_log(/*capacity=*/8, traced ? kMaxSpans : 0);

  core::EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  opts.query_log = &query_log;

  telemetry::ObsServerOptions obs_opts;
  obs_opts.port = static_cast<std::uint16_t>(obs_port > 0 ? obs_port : 0);
  obs_opts.query_log = &query_log;
#ifdef NDEBUG
  obs_opts.build_type = "Release";
#else
  obs_opts.build_type = "Debug";
#endif
  obs_opts.simd_level = simd::level_name(simd::active_level());
  telemetry::ObsServer obs_server(obs_opts);
  if (obs_port >= 0) {
    Status started = obs_server.start();
    if (!started.ok()) {
      std::fprintf(stderr, "obs server failed to start: %s\n",
                   started.to_string().c_str());
      return 1;
    }
    std::printf("obs server listening on http://127.0.0.1:%u\n",
                static_cast<unsigned>(obs_server.port()));
    // stdout is fully buffered when redirected to a log; flush so a smoke
    // harness can discover the ephemeral port before the queries finish.
    std::fflush(stdout);
  }
  if (profile_path != nullptr) telemetry::Profiler::global().start();

  core::IdsEngine engine(opts, data.triples.get(), data.features.get(),
                         data.keywords.get(), data.vectors.get());
  core::register_ncnpr_udfs(&engine, data);

  auto run = [&](const char* label, double sw, double pic50, double dtba) {
    core::NcnprThresholds t;
    t.min_sw_similarity = sw;
    t.min_pic50 = pic50;
    t.min_dtba = dtba;
    core::Query q = core::make_ncnpr_query(data, t, /*with_docking=*/true,
                                           /*docking_cached=*/true);
    core::QueryResult r = engine.execute(q);
    std::printf("\n%s (sw>=%.2f, pIC50>=%.1f, DTBA>=%.1f)\n", label, sw,
                pic50, dtba);
    std::printf("  %zu candidate pairs -> %zu docked compounds in %.1f "
                "modeled s (cache: %zu hits / %zu misses)\n",
                r.rows_after_filters, r.rows_invoked + r.cache_hits,
                r.total_seconds, r.cache_hits, r.cache_misses);
    int cpd = r.solutions.id_var_index("cpd");
    int energy = r.solutions.num_var_index("energy");
    std::size_t show = std::min<std::size_t>(5, r.solutions.num_rows());
    std::printf("  top %zu binders:\n", show);
    for (std::size_t row = 0; row < show; ++row) {
      std::printf("    %-24s %7.2f kcal/mol\n",
                  data.triples->dict().name(r.solutions.id_at(row, cpd)).c_str(),
                  r.solutions.num_at(row, energy));
    }
    return r.total_seconds;
  };

  // First exploration: strict similarity.
  double cold = run("initial query", 0.90, 4.5, 6.5);

  // The scientist relaxes the potency floor — an overlapping candidate
  // set. Docking outputs come from the cache; only new compounds dock.
  double warm = run("refined what-if", 0.90, 4.0, 6.0);

  std::printf("\niteration speedup from the global cache: %.1fx\n",
              cold / warm);
  std::printf("cache state: %s\n", cache.stats().to_string().c_str());

  if (trace_path != nullptr) {
    // Both executions, one after the other, in one file.
    telemetry::SpanTree trace;
    for (telemetry::QueryRecord& rec : query_log.snapshot()) {
      trace.append(std::move(rec.trace.spans), telemetry::kNoSpan, kMaxSpans);
      trace.dropped += rec.trace.dropped;
    }
    dump_to(trace_path, trace.to_chrome_json());
    std::printf("trace: %zu spans -> %s (open in Perfetto)\n",
                trace.spans.size(), trace_path);
  }
  if (metrics_path != nullptr) {
    dump_to(metrics_path, telemetry::MetricsRegistry::global().to_prometheus());
    std::printf("metrics -> %s\n", metrics_path);
  }
  if (profile_path != nullptr) {
    auto& profiler = telemetry::Profiler::global();
    profiler.stop();
    dump_to(profile_path, profiler.to_folded());
    std::printf("profile: %llu samples -> %s "
                "(flamegraph.pl or speedscope.app)\n",
                static_cast<unsigned long long>(profiler.samples_total()),
                profile_path);
  }
  if (obs_port >= 0 && hold_obs > 0.0) {
    std::printf("holding obs server for %.1f s (curl "
                "http://127.0.0.1:%u/metrics)\n",
                hold_obs, static_cast<unsigned>(obs_server.port()));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(hold_obs));
  }
  if (obs_port >= 0) obs_server.stop();
  return 0;
}
