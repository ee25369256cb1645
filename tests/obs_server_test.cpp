// Observability-server tests, in two layers:
//
//   * handle(target) — the socketless routing table, driven directly so
//     every endpoint's content is pinned without a network in the loop
//     (including the Prometheus exposition golden: the HTTP body must be
//     byte-identical to MetricsRegistry::to_prometheus()).
//   * a real loopback scrape — raw BSD-socket GETs against the server's
//     ephemeral port, including scrapes racing live engine queries on
//     multiple threads (the concurrency contract: handlers only read
//     thread-safe snapshots, so a scrape mid-query is always coherent).
//
// Sockets are banned in src/ outside src/telemetry/ (tools/lint.sh rule
// 12) but tests are transport clients, so the includes below are legal.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/manager.h"
#include "core/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/obs_server.h"
#include "telemetry/query_log.h"
#include "telemetry/trace.h"

namespace ids::telemetry {
namespace {

using core::EngineOptions;
using core::IdsEngine;
using core::Query;
using graph::PatternTerm;

// ---- Loopback HTTP client ------------------------------------------------

/// One blocking GET against 127.0.0.1:port; returns the raw response
/// (status line, headers, body) or "" on any socket error.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return "";
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return response;
}

/// Body of a raw HTTP response (everything after the blank line).
std::string_view body_of(std::string_view response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string_view::npos ? std::string_view{}
                                       : response.substr(sep + 4);
}

// ---- Socketless routing --------------------------------------------------

TEST(ObsServerHandle, MetricsBodyIsTheRegistryExpositionExactly) {
  MetricsRegistry reg;
  reg.counter("ids_t_total", {{"cache", "c0"}})->inc(3);
  reg.gauge("ids_t_depth")->set(2.5);

  ObsServerOptions opts;
  opts.metrics = &reg;
  ObsServer server(opts);

  // Golden: the endpoint adds nothing and reorders nothing — scrape
  // stability is the registry's deterministic exposition, verbatim.
  EXPECT_EQ(server.handle("/metrics"),
            "# TYPE ids_t_depth gauge\n"
            "ids_t_depth 2.5\n"
            "# TYPE ids_t_total counter\n"
            "ids_t_total{cache=\"c0\"} 3\n");
  EXPECT_EQ(server.handle("/metrics"), reg.to_prometheus());
}

TEST(ObsServerHandle, StatuszCarriesBuildInfoAndQueryAccounts) {
  MetricsRegistry reg;
  QueryLog log;
  QueryRecord record;
  record.account.modeled_seconds = 2.0;
  record.account.wall_seconds = 0.5;
  log.push(std::move(record));

  ObsServerOptions opts;
  opts.metrics = &reg;
  opts.query_log = &log;
  opts.build_type = "Release";
  opts.simd_level = "avx2";
  ObsServer server(opts);

  const std::string body = server.handle("/statusz");
  EXPECT_NE(body.find("\"build_type\":\"Release\""), std::string::npos);
  EXPECT_NE(body.find("\"simd_level\":\"avx2\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(body.find("\"queries\":{\"total\":1,\"recent\":[{\"sequence\":1"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"divergence_seconds\":-1.5"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":{"), std::string::npos);
}

TEST(ObsServerHandle, StatuszWithoutLogDegradesGracefully) {
  MetricsRegistry reg;
  ObsServerOptions opts;
  opts.metrics = &reg;
  ObsServer server(opts);
  EXPECT_NE(server.handle("/statusz").find(
                "\"queries\":{\"total\":0,\"recent\":[]}"),
            std::string::npos);
  EXPECT_NE(server.handle("/tracez").find("no query log attached"),
            std::string::npos);
}

TEST(ObsServerHandle, TracezRendersLogInBothFormats) {
  MetricsRegistry reg;
  QueryLog log;
  SpanTree trace;
  trace.append({{"query", "query", 1, kNoSpan, -1, 0, 1000, 0, 0, {}}},
               kNoSpan, 16);
  log.push({QueryResourceAccount{}, std::move(trace)});

  ObsServerOptions opts;
  opts.metrics = &reg;
  opts.query_log = &log;
  ObsServer server(opts);

  EXPECT_NE(server.handle("/tracez").find("trace #1"), std::string::npos);
  EXPECT_NE(server.handle("/tracez?fmt=json").find("\"traceEvents\":["),
            std::string::npos);
}

TEST(ObsServerHandle, UnknownPathIs404) {
  MetricsRegistry reg;
  ObsServerOptions opts;
  opts.metrics = &reg;
  ObsServer server(opts);
  EXPECT_NE(server.handle("/nope").find("not found: /nope"),
            std::string::npos);
  EXPECT_NE(server.handle("/").find("ids observability plane"),
            std::string::npos);
}

// ---- Loopback transport --------------------------------------------------

TEST(ObsServerSocket, ServesMetricsOverLoopbackWithHttpFraming) {
  MetricsRegistry reg;
  reg.counter("ids_t_total")->inc(7);

  ObsServerOptions opts;
  opts.metrics = &reg;
  ObsServer server(opts);
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.port(), 0);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find(
                "Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(body_of(response), reg.to_prometheus());

  const std::string missing = http_get(server.port(), "/bogus");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(ObsServerSocket, StartIsRestartableAndReportsBindFailure) {
  MetricsRegistry reg;
  ObsServerOptions opts;
  opts.metrics = &reg;
  ObsServer a(opts);
  ASSERT_TRUE(a.start().ok());

  // A second server on the same (now busy) port must fail cleanly.
  ObsServerOptions busy = opts;
  busy.port = a.port();
  ObsServer b(busy);
  EXPECT_FALSE(b.start().ok());

  a.stop();
  ASSERT_TRUE(a.start().ok());  // restart after stop
  EXPECT_NE(http_get(a.port(), "/metrics").find("HTTP/1.1 200 OK"),
            std::string::npos);
  a.stop();

  ObsServerOptions bad = opts;
  bad.bind_address = "not-an-address";
  ObsServer c(bad);
  EXPECT_FALSE(c.start().ok());
}

// ---- Scrapes racing live queries -----------------------------------------

/// Tiny graph shared by all engines: 12 people in a friendship ring.
struct SharedGraph {
  static constexpr int kRanks = 4;

  SharedGraph() {
    triples = std::make_unique<graph::TripleStore>(kRanks);
    features = std::make_unique<store::FeatureStore>(kRanks);
    auto& d = triples->dict();
    for (int i = 0; i < 12; ++i) {
      std::string person = "person" + std::to_string(i);
      triples->add(person, "type", "Person");
      features->set(*d.lookup(person), "age", static_cast<double>(20 + i));
    }
    for (int i = 0; i < 12; ++i) {
      triples->add("person" + std::to_string(i), "knows",
                   "person" + std::to_string((i + 1) % 12));
    }
    triples->finalize();
    features->freeze();
  }

  PatternTerm term(const char* iri) const {
    return PatternTerm::Const(*triples->dict().lookup(iri));
  }

  Query query() const {
    Query q;
    q.patterns.push_back({PatternTerm::Var("x"), term("type"),
                          term("Person")});
    q.patterns.push_back(
        {PatternTerm::Var("x"), term("knows"), PatternTerm::Var("y")});
    return q;
  }

  std::unique_ptr<graph::TripleStore> triples;
  std::unique_ptr<store::FeatureStore> features;
};

/// Sequence of the newest account in a /statusz body; 0 when none.
std::uint64_t newest_statusz_sequence(const std::string& statusz) {
  const std::string marker = "\"recent\":[{\"sequence\":";
  const std::size_t at = statusz.find(marker);
  if (at == std::string::npos) return 0;
  return std::stoull(statusz.substr(at + marker.size()));
}

TEST(ObsServerSocket, ScrapesStayCoherentDuringConcurrentQueries) {
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 6;
  constexpr std::uint64_t kQueries =
      static_cast<std::uint64_t>(kThreads) * kQueriesPerThread;

  SharedGraph graph;
  MetricsRegistry reg;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cache::CacheManager cache(cc);
  QueryLog log(/*capacity=*/kQueries);  // retains every query of the run

  ObsServerOptions opts;
  opts.metrics = &reg;
  opts.query_log = &log;
  ObsServer server(opts);
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();

  // kThreads engines, each with its own tracer, execute queries into the
  // shared cache/registry/log while the main thread scrapes over loopback
  // the whole time.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&graph, &cache, &reg, &log] {
      Tracer tracer(/*max_spans=*/1u << 12, &reg);
      EngineOptions eo;
      eo.topology = runtime::Topology::laptop(SharedGraph::kRanks);
      eo.cache = &cache;
      eo.metrics = &reg;
      eo.tracer = &tracer;
      eo.query_log = &log;
      IdsEngine engine(eo, graph.triples.get(), graph.features.get());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        core::QueryResult r = engine.execute(graph.query());
        EXPECT_GT(r.account.wall_seconds, 0.0);
        EXPECT_GT(r.account.sequence, 0u);
      }
    });
  }

  int scrapes = 0;
  while (log.total_pushed() < kQueries) {
    const std::string metrics = http_get(port, "/metrics");
    ASSERT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
    const std::string statusz = http_get(port, "/statusz");
    ASSERT_NE(statusz.find("\"queries\":{\"total\":"), std::string::npos);
    const std::string tracez = http_get(port, "/tracez");
    ASSERT_NE(tracez.find("HTTP/1.1 200 OK"), std::string::npos);
    // The newest account /statusz showed is on /tracez under its own
    // number (the log retains every record, so a later scrape has it).
    const std::uint64_t newest = newest_statusz_sequence(statusz);
    if (newest > 0) {
      std::string header = "=== trace #";
      header += std::to_string(newest);
      header += " ===";
      EXPECT_NE(tracez.find(header), std::string::npos)
          << "statusz sequence " << newest << " missing from /tracez";
    }
    ++scrapes;
  }
  for (auto& w : workers) w.join();
  EXPECT_GT(scrapes, 0);

  // One log, one numbering: the records run 1..N with no gap, and each
  // record's span tree is its own query's. The stage spans match the
  // record's account.stages by name and order, and on wall time exactly
  // (both come from the same stamps, and wall time differs per query).
  const std::vector<QueryRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), kQueries);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& record = records[i];
    EXPECT_EQ(record.account.sequence, i + 1);
    EXPECT_EQ(record.trace.dropped, 0u);
    std::vector<const Span*> stage_spans;
    for (const Span& s : record.trace.spans) {
      if (s.category == "stage") stage_spans.push_back(&s);
    }
    const auto& stages = record.account.stages;
    ASSERT_FALSE(stages.empty());
    ASSERT_EQ(stage_spans.size(), stages.size()) << "record " << i + 1;
    for (std::size_t j = 0; j < stages.size(); ++j) {
      EXPECT_EQ(stage_spans[j]->name, stages[j].stage);
      EXPECT_EQ(static_cast<double>(stage_spans[j]->wall_end_ns -
                                    stage_spans[j]->wall_start_ns) *
                    1e-9,
                stages[j].wall_seconds)
          << "record " << i + 1 << " stage " << stages[j].stage;
    }
  }
  const std::string final_scrape = http_get(port, "/metrics");
  EXPECT_NE(final_scrape.find("ids_engine_queries_total 24"),
            std::string::npos)
      << final_scrape;
  server.stop();

  // With the server down, connections are refused — no zombie listener.
  EXPECT_EQ(http_get(port, "/metrics"), "");
}

}  // namespace
}  // namespace ids::telemetry
