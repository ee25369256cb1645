// ids_perfbench: wall-clock benchmark of the IDS engine.
//
//   ids_perfbench --workload fig4-wide|table2-sweep|whatif-session
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--goldens DIR] [--record-goldens] [--out DIR]
//                 [--commit SHA] [--allow-non-release]
//
// Runs a fixed number of whole episodes of the workload, sized so that
// they take about --seconds, checks every answer, prints each metric on
// its own line and, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates traced and untraced episodes
// and reports the per-layer metrics. Exits 1 when any operation failed,
// 2 on a usage or provenance error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "harness.h"

#ifndef IDS_PERFBENCH_BUILD_TYPE
#define IDS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string goldens;
  bool record_goldens = false;
  std::string out = ".bench_out";
  std::string commit = "unknown";
  bool allow_non_release = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed next to the value, not part of the JSON
};

int usage() {
  std::fprintf(stderr,
               "usage: ids_perfbench --workload fig4-wide|table2-sweep|"
               "whatif-session [--seed N] [--seconds S] [--trace 0|1] "
               "[--goldens DIR] [--record-goldens] [--out DIR] "
               "[--commit SHA] [--allow-non-release]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--goldens" && has_value) {
      o->goldens = argv[++i];
    } else if (a == "--out" && has_value) {
      o->out = argv[++i];
    } else if (a == "--commit" && has_value) {
      o->commit = argv[++i];
    } else if (a == "--record-goldens") {
      o->record_goldens = true;
    } else if (a == "--allow-non-release") {
      o->allow_non_release = true;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double qps(std::size_t queries, double phase_seconds) {
  return phase_seconds > 0.0 ? static_cast<double>(queries) / phase_seconds : 0.0;
}

// ---- Goldens: "<seed> <episode> <query index> <digest hex>" per line -----

std::string golden_path(const Options& o) {
  return o.goldens + "/" + o.workload + ".txt";
}

/// This seed's golden digests; false when the golden file cannot be read.
bool load_goldens(const Options& o, Harness::Goldens* out) {
  std::ifstream in(golden_path(o));
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::uint64_t seed = 0;
    std::size_t episode = 0;
    std::size_t index = 0;
    std::string hex;
    if (ls >> seed >> episode >> index >> hex && seed == o.seed) {
      (*out)[{episode, index}] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return true;
}

/// Replaces the golden file's lines for this seed with this run's digests.
bool record_goldens(const Options& o,
                    const std::vector<std::vector<std::uint64_t>>& digests) {
  std::vector<std::string> kept;
  {
    std::ifstream in(golden_path(o));
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::uint64_t seed = 0;
      if (ls >> seed && seed != o.seed) kept.push_back(line);
    }
  }
  std::ofstream out(golden_path(o), std::ios::trunc);
  for (const std::string& line : kept) out << line << "\n";
  char buf[64];
  for (std::size_t e = 0; e < digests.size(); ++e) {
    for (std::size_t i = 0; i < digests[e].size(); ++i) {
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(digests[e][i]));
      out << o.seed << " " << e << " " << i << " " << buf << "\n";
    }
  }
  return static_cast<bool>(out);
}

// ---- Metrics ---------------------------------------------------------------

std::vector<Metric> end_to_end(const Harness& h) {
  std::vector<double> lat = h.query_seconds();
  std::sort(lat.begin(), lat.end());
  const std::size_t n = lat.size();
  // The highest percentile with at least ten samples beyond it.
  double tail = n > 0 ? lat.back() : 0.0;
  char tail_note[96];
  if (n >= 11) {
    tail = lat[n - 11];
    std::snprintf(tail_note, sizeof tail_note, "p%.1f of %zu queries",
                  100.0 * static_cast<double>(n - 10) / static_cast<double>(n), n);
  } else {
    std::snprintf(tail_note, sizeof tail_note,
                  "max of %zu queries (fewer than 11)", n);
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  char p50_note[48];
  std::snprintf(p50_note, sizeof p50_note, "of %zu queries", n);
  char setup_note[48];
  std::snprintf(setup_note, sizeof setup_note, "median of %zu set-ups",
                h.setup_seconds().size());
  char ingest_note[48];
  std::snprintf(ingest_note, sizeof ingest_note, "median of %zu epochs",
                h.ingest_seconds().size());
  return {
      {"query_wall_p50_s", median(lat), "s", p50_note},
      {"query_wall_tail_s", tail, "s", tail_note},
      {"queries_per_s", qps(n, h.query_phase_seconds()), "1/s",
       "per second of the query phases; one closed-loop client"},
      {"ingest_wall_p50_s", median(h.ingest_seconds()), "s", ingest_note},
      {"setup_s", median(h.setup_seconds()), "s", setup_note},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB", ""},
  };
}

const char* const kStages[] = {"scan",   "join",   "rebalance", "filter",
                               "distinct", "invoke", "gather",  "keyword",
                               "vector"};

// Layer metrics as accumulated by the harness: a mean per call, or (when
// per_query) a total divided by the traced queries.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool per_query;
};
const LayerMetric kLayerMetrics[] = {
    {"engine.execute_s", "s", false},
    {"planner.order_conjuncts_s", "s", false},
    {"planner.estimate_solution_s", "s", false},
    {"planner.calls", "count", false},
    {"rebalancer.decide_s", "s", false},
    {"udf.aggregate_s", "s", false},
    {"udf.find_s", "s", false},
    {"udf.execs", "count", false},
    {"graph.partition_rows_s", "s", false},
    {"graph.finalize_s", "s", false},
    {"runtime.rows_partitioned", "count", true},
    {"runtime.rows_gathered", "count", true},
    {"models.dock_s", "s", false},
    {"models.dock_calls", "count", true},
    {"models.dock_pair_evals", "count", false},
    {"models.sw_s", "s", false},
    {"models.dtba_s", "s", false},
    {"cache.get_s", "s", false},
    {"cache.put_s", "s", false},
    {"cache.spills", "count", false},
    {"cache.bytes_read.local_dram", "bytes", true},
    {"cache.bytes_read.local_ssd", "bytes", true},
    {"cache.bytes_read.remote_dram", "bytes", true},
    {"cache.bytes_read.remote_ssd", "bytes", true},
    {"cache.bytes_read.backing", "bytes", true},
    {"store.keyword_search_s", "s", false},
    {"store.vector_topk_s", "s", false},
    {"store.ivf_search_s", "s", false},
    {"store.freeze_s", "s", false},
    {"parser.parse_s", "s", false},
    {"datagen.generate_s", "s", false},
};

const char* const kLayers[] = {"bench",      "datagen",       "core.engine",
                               "core.parser", "core.planner", "core.rebalancer",
                               "udf",        "graph",         "models",
                               "cache",      "store"};

std::vector<Metric> per_layer(const Harness& h, const SpanRecorder& spans) {
  const auto& acc = h.layer();
  auto get = [&](const std::string& name) {
    auto it = acc.find(name);
    return it == acc.end() ? Acc{} : it->second;
  };
  std::vector<Metric> out;
  const double queries = get("engine.queries").sum;
  const double execute = get("engine.execute_s").mean();
  for (const char* stage : kStages) {
    const std::string base = std::string("engine.") + stage;
    const double wall = queries > 0 ? get(base + ".wall_s").sum / queries : 0.0;
    const double modeled =
        queries > 0 ? get(base + ".modeled_s").sum / queries : 0.0;
    char note[64];
    std::snprintf(note, sizeof note, "%5.1f%% of execute wall; modeled %.4g s",
                  execute > 0 ? 100.0 * wall / execute : 0.0, modeled);
    out.push_back({base + ".wall_s", wall, "s", note});
    out.push_back({base + ".modeled_s", modeled, "s", ""});
  }
  for (const LayerMetric& m : kLayerMetrics) {
    const Acc a = get(m.name);
    const double value =
        m.per_query ? (queries > 0 ? a.sum / queries : 0.0) : a.mean();
    out.push_back({m.name, value, m.unit, m.per_query ? "per query" : "per call"});
  }
  const Acc passed = get("udf.passed");
  const Acc evaluated = get("udf.evaluated");
  out.push_back({"udf.pass_ratio",
                 evaluated.sum > 0 ? passed.sum / evaluated.sum : 0.0, "ratio",
                 "rows passing / rows evaluated, all profiled UDFs"});
  const Acc hits = get("cache.hits");
  const Acc lookups = get("cache.lookups");
  out.push_back({"cache.hit_ratio", lookups.sum > 0 ? hits.sum / lookups.sum : 0.0,
                 "ratio", "INVOKE cache hits / lookups"});

  const double qps_traced =
      qps(h.traced_query_seconds().size(), h.traced_query_phase_seconds());
  const double qps_untraced =
      qps(h.query_seconds().size(), h.query_phase_seconds());
  out.push_back({"telemetry.trace_overhead_ratio",
                 qps_untraced > 0 ? qps_traced / qps_untraced : 0.0, "ratio",
                 "traced queries_per_s / untraced queries_per_s"});

  const std::map<std::string, double> self = spans.self_seconds_by_layer();
  const double episodes = h.traced_episodes() > 0 ? h.traced_episodes() : 1;
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    out.push_back({std::string("self.") + layer + "_s",
                   it == self.end() ? 0.0 : it->second / episodes, "s",
                   "self time per traced episode"});
  }
  return out;
}

void print_json(const Harness& h, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              h.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(h.attempted()),
              static_cast<unsigned long long>(h.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!parse_args(argc, argv, &o)) return usage();

  // A run does a fixed number of episodes for its --seconds, one per
  // `episode_s`, so its query count, its tail percentile and the goldens
  // it is checked against do not depend on the speed of the host. On the
  // 4-vCPU host this was written on, an episode took between about 0.5
  // and 1.4 times `episode_s` as the host's speed varied.
  struct Workload {
    const char* name;
    void (*episode)(Harness&);
    double episode_s;
  };
  static const Workload kWorkloads[] = {
      {"fig4-wide", fig4_wide_episode, 10.0},
      {"table2-sweep", table2_sweep_episode, 10.0},
      {"whatif-session", whatif_session_episode, 1.5},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage();
  const int episodes = std::max(
      o.trace ? 2 : 1, static_cast<int>(std::lround(o.seconds / workload->episode_s)));

  // Provenance: timings from anything but an optimized build are noise.
  const std::string build_type = IDS_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && !o.allow_non_release) {
    std::fprintf(stderr,
                 "error: built as '%s', not Release; pass --allow-non-release "
                 "to run anyway\n",
                 build_type.c_str());
    return 2;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t pool = ids::ThreadPool::global().size();
  if (nproc < 1 || pool > static_cast<std::size_t>(nproc)) {
    std::fprintf(stderr, "error: engine thread pool has %zu threads, nproc %ld\n",
                 pool, nproc);
    return 2;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d build_type=%s "
              "simd=%s nproc=%ld pool=%zu commit=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, build_type.c_str(),
              ids::simd::level_name(ids::simd::active_level()), nproc, pool,
              o.commit.c_str());

  SpanRecorder spans;
  Harness h(o.seed, &spans);
  // A traced run alternates traced and untraced episodes so the tracing
  // overhead is measured in-run.
  const Clock::time_point t0 = Clock::now();
  for (int e = 0; e < episodes; ++e) {
    const double start = seconds_since(t0);
    h.begin_episode(o.trace && e % 2 == 0);
    workload->episode(h);
    h.end_episode();
    std::printf("# episode %d%s: %.3f s, set-up %.4f s, %zu queries\n", e,
                o.trace && e % 2 == 0 ? " (traced)" : "",
                seconds_since(t0) - start, h.setup_seconds().back(),
                h.digests().back().size());
  }
  const double elapsed = seconds_since(t0);

  if (o.record_goldens) {
    if (o.goldens.empty() || !record_goldens(o, h.digests())) {
      std::fprintf(stderr, "error: could not write goldens under '%s'\n",
                   o.goldens.c_str());
      return 2;
    }
  }
  Harness::Goldens golden;
  if (!o.goldens.empty()) {
    if (load_goldens(o, &golden)) {
      h.check_digests(golden);
    } else {
      h.fail_run("cannot read golden file " + golden_path(o));
    }
  }

  std::printf("# %d episodes in %.2f s; %zu golden digests for this seed\n",
              h.episodes(), elapsed, golden.size());
  for (const std::string& f : h.failures()) std::printf("# FAILED %s\n", f.c_str());
  std::printf("failed_ops_ratio %.6g (%llu of %llu)\n",
              h.attempted() > 0 ? static_cast<double>(h.failed()) /
                                      static_cast<double>(h.attempted())
                                : 0.0,
              static_cast<unsigned long long>(h.failed()),
              static_cast<unsigned long long>(h.attempted()));

  const std::vector<Metric> metrics = o.trace ? per_layer(h, spans) : end_to_end(h);
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  if (o.trace) {
    const std::string path =
        o.out + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    if (spans.write_chrome_json(path)) {
      std::printf("# %zu spans -> %s\n", spans.spans().size(), path.c_str());
    }
  }
  std::fflush(stdout);
  print_json(h, metrics);
  return h.failed() == 0 ? 0 : 1;
}
