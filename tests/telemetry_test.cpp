// Telemetry tests: metrics registry (series identity, bucket edges,
// Prometheus/JSON exposition goldens, concurrency under TSan), the query
// tracer (span tree, cap, Chrome trace_event schema), and the engine
// integration contract — per-stage trace spans must match
// QueryResult::stages exactly, on the same integer-nanosecond clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/manager.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "telemetry/metrics.h"
#include "telemetry/query_log.h"
#include "telemetry/trace.h"

namespace ids::telemetry {
namespace {

using core::EngineOptions;
using core::IdsEngine;
using core::Query;
using core::QueryResult;
using expr::Expr;
using graph::PatternTerm;
using graph::TermId;

// ---- Minimal JSON syntax validator --------------------------------------
// Recursive descent over the full JSON grammar; used to check that both
// exporters emit well-formed documents without depending on a JSON lib.

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

// ---- MetricsRegistry -----------------------------------------------------

TEST(Metrics, SameSeriesReturnsSamePointer) {
  MetricsRegistry reg;
  Counter* a = reg.counter("ids_t_total", {{"k", "v"}});
  Counter* b = reg.counter("ids_t_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  a->inc();
  a->inc(4);
  EXPECT_EQ(b->value(), 5u);
  EXPECT_NE(reg.counter("ids_t_total", {{"k", "w"}}), a);
  EXPECT_NE(reg.counter("ids_t_total"), a);
}

TEST(Metrics, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  Counter* a = reg.counter("ids_t_total", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.counter("ids_t_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge* g = reg.gauge("ids_t_depth");
  g->set(2.5);
  g->add(1.0);
  EXPECT_DOUBLE_EQ(g->value(), 3.5);
  g->add(-4.0);
  EXPECT_DOUBLE_EQ(g->value(), -0.5);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0, 4.0};
  Histogram* h = reg.histogram("ids_t_seconds", bounds);
  for (double x : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h->observe(x);
  std::vector<std::uint64_t> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // 0.5 and exactly-1.0: le is inclusive
  EXPECT_EQ(counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);      // 4.0
  EXPECT_EQ(counts[3], 1u);      // 5.0 -> +Inf
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 14.0);
}

TEST(Metrics, HistogramQuantileInterpolatesAndHitsBucketEdgesExactly) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0, 4.0};
  Histogram* h = reg.histogram("ids_t_seconds", bounds);
  EXPECT_TRUE(std::isnan(h->quantile(0.5)));  // empty histogram

  // One observation per bucket (including +Inf): counts [1,1,1,1].
  for (double x : {0.5, 1.5, 3.0, 10.0}) h->observe(x);

  // Quantiles that exhaust a bucket land exactly on its upper edge —
  // no accumulated float error at the boundaries.
  EXPECT_DOUBLE_EQ(h->quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.75), 4.0);
  // Inside a bucket, linear interpolation: the 0.375-quantile sits
  // halfway through bucket (1, 2].
  EXPECT_DOUBLE_EQ(h->quantile(0.375), 1.5);
  // q=0 resolves to the first bucket's lower edge (0 for positive
  // bounds); q=1 inside +Inf clamps to the largest finite bound.
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 4.0);
  // Out-of-range q clamps instead of extrapolating.
  EXPECT_DOUBLE_EQ(h->quantile(-3.0), h->quantile(0.0));
  EXPECT_DOUBLE_EQ(h->quantile(7.0), h->quantile(1.0));

  // The member and the free function agree on the same snapshot.
  std::vector<std::uint64_t> counts = h->bucket_counts();
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.375),
                   h->quantile(0.375));
}

TEST(Metrics, HistogramQuantileOverflowAndNegativeEdges) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0};
  Histogram* h = reg.histogram("ids_t_seconds", bounds);
  h->observe(50.0);  // only the +Inf bucket is populated
  // Best available estimate: clamp to the largest finite bound.
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 2.0);

  // A first bucket with a negative upper edge uses that edge (not 0) as
  // its lower bound, so the estimate never overshoots the data.
  const double neg_bounds[] = {-2.0, 2.0};
  Histogram* n = reg.histogram("ids_t_delta", neg_bounds);
  n->observe(-3.0);
  EXPECT_DOUBLE_EQ(n->quantile(0.0), -2.0);
  EXPECT_DOUBLE_EQ(n->quantile(1.0), -2.0);
}

TEST(Metrics, JsonSnapshotCarriesQuantiles) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0, 4.0};
  Histogram* h = reg.histogram("ids_t_seconds", bounds);
  std::string empty_json = reg.to_json();
  // Empty histogram: quantiles are NaN, so the keys are omitted and the
  // document stays valid JSON.
  EXPECT_EQ(empty_json.find("\"p50\""), std::string::npos);
  EXPECT_TRUE(JsonValidator(empty_json).valid()) << empty_json;

  for (double x : {0.5, 1.5, 3.0, 10.0}) h->observe(x);
  std::string json = reg.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // Derived from the same snapshot as the buckets: p50 exhausts bucket
  // (1,2], p95/p99 fall in +Inf and clamp to the largest finite bound.
  EXPECT_NE(json.find(",\"p50\":2,\"p95\":4,\"p99\":4"), std::string::npos)
      << json;
}

TEST(Metrics, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("ids_t_total", {{"cache", "c0"}})->inc(3);
  reg.gauge("ids_t_depth")->set(2.5);
  const double bounds[] = {0.1, 1.0};
  Histogram* h = reg.histogram("ids_t_seconds", bounds);
  // Dyadic values: the sum is exact in binary, so the golden is stable.
  h->observe(0.0625);
  h->observe(0.5);
  h->observe(5.0);
  EXPECT_EQ(reg.to_prometheus(),
            "# TYPE ids_t_depth gauge\n"
            "ids_t_depth 2.5\n"
            "# TYPE ids_t_seconds histogram\n"
            "ids_t_seconds_bucket{le=\"0.1\"} 1\n"
            "ids_t_seconds_bucket{le=\"1\"} 2\n"
            "ids_t_seconds_bucket{le=\"+Inf\"} 3\n"
            "ids_t_seconds_sum 5.5625\n"
            "ids_t_seconds_count 3\n"
            "# TYPE ids_t_total counter\n"
            "ids_t_total{cache=\"c0\"} 3\n");
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("ids_t_total", {{"k", "a\"b\\c\nd"}})->inc();
  EXPECT_EQ(reg.to_prometheus(),
            "# TYPE ids_t_total counter\n"
            "ids_t_total{k=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(Metrics, JsonExportIsValidAndCarriesValues) {
  MetricsRegistry reg;
  reg.counter("ids_t_total")->inc(2);
  reg.gauge("ids_t_depth")->set(1.5);
  const double bounds[] = {1.0};
  reg.histogram("ids_t_seconds", bounds)->observe(0.5);
  std::string json = reg.to_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"name\":\"ids_t_total\",\"labels\":{},\"value\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"le\":\"1\",\"count\":1}"), std::string::npos);
}

TEST(Metrics, FormatDoubleRoundTrips) {
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(2.5e-6), "2.5e-06");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
}

TEST(Metrics, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Resolve inside the thread: registration itself must be safe too.
      Counter* c = reg.counter("ids_t_total");
      Histogram* h =
          reg.histogram("ids_t_seconds", latency_seconds_buckets());
      Gauge* g = reg.gauge("ids_t_depth");
      for (int i = 0; i < kIters; ++i) {
        c->inc();
        h->observe(1e-4);
        g->add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kIters;
  EXPECT_EQ(reg.counter("ids_t_total")->value(), total);
  EXPECT_EQ(
      reg.histogram("ids_t_seconds", latency_seconds_buckets())->count(),
      total);
  EXPECT_DOUBLE_EQ(reg.gauge("ids_t_depth")->value(),
                   static_cast<double>(total));
}

TEST(Metrics, CacheTierCountersOnPrivateRegistry) {
  MetricsRegistry reg;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cc.name = "t";
  cache::CacheManager cache(cc);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", std::string(100, 'a'));
  ASSERT_TRUE(cache.get(clock, 0, "obj").has_value());
  EXPECT_EQ(reg.counter("ids_cache_hits_total",
                        {{"cache", "t"}, {"tier", "local_dram"}})
                ->value(),
            1u);
  EXPECT_EQ(reg.counter("ids_cache_puts_total", {{"cache", "t"}})->value(),
            1u);
  EXPECT_EQ(reg.counter("ids_cache_misses_total", {{"cache", "t"}})->value(),
            0u);
}

// ---- Tracer --------------------------------------------------------------

TEST(Trace, SpanTreeAndAttrs) {
  Tracer tracer;
  SpanId root = tracer.begin_span("query", "query", kNoSpan, -1, 0);
  ASSERT_NE(root, kNoSpan);
  SpanId child = tracer.begin_span("scan", "stage", root, -1, 10);
  tracer.add_attr(child, "rows", std::uint64_t{42});
  tracer.add_attr(child, "note", std::string_view("hi"));
  tracer.end_span(child, 30);
  tracer.end_span(root, 40);

  std::vector<Span> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].virt_duration(), 40u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].virt_start, 10u);
  EXPECT_EQ(spans[1].virt_duration(), 20u);
  ASSERT_EQ(spans[1].attrs.size(), 2u);
  EXPECT_EQ(spans[1].attrs[0].first, "rows");
  EXPECT_EQ(spans[1].attrs[0].second, "42");
  EXPECT_LE(spans[1].wall_start_ns, spans[1].wall_end_ns);
}

TEST(Trace, CapDropsExcessSpansAndNoSpanIsInert) {
  Tracer tracer(/*max_spans=*/2);
  EXPECT_NE(tracer.begin_span("a", "x", kNoSpan, -1, 0), kNoSpan);
  EXPECT_NE(tracer.begin_span("b", "x", kNoSpan, -1, 0), kNoSpan);
  EXPECT_EQ(tracer.begin_span("c", "x", kNoSpan, -1, 0), kNoSpan);
  EXPECT_EQ(tracer.begin_span("d", "x", kNoSpan, -1, 0), kNoSpan);
  tracer.end_span(kNoSpan, 5);                     // no-op
  tracer.add_attr(kNoSpan, "k", std::uint64_t{1});  // no-op
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_NE(tracer.to_chrome_json().find("\"dropped_spans\":2"),
            std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, ChromeJsonIsValidJson) {
  Tracer tracer;
  SpanId q = tracer.begin_span("query", "query", kNoSpan, -1, 0);
  SpanId s = tracer.begin_span("scan", "stage", q, -1, 0);
  SpanId r = tracer.begin_span("scan", "rank", s, 2, 0);
  tracer.add_attr(r, "matches", std::uint64_t{7});
  tracer.end_span(r, 1500);
  tracer.end_span(s, 2000);
  tracer.end_span(q, 2000);

  std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Rank 2 maps to tid 3; the engine timeline is tid 0.
  EXPECT_NE(json.find("\"tid\":3,\"args\":{\"name\":\"rank 2\"}"),
            std::string::npos);
  // Modeled times become microseconds with 3 decimals, exactly.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"modeled_ns\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"matches\":\"7\""), std::string::npos);
}

TEST(Trace, TextReportTreeAndCategorySummary) {
  Tracer tracer;
  SpanId q = tracer.begin_span("query", "query", kNoSpan, -1, 0);
  SpanId s = tracer.begin_span("filter", "stage", q, -1, 0);
  tracer.end_span(s, sim::from_seconds(1.5));
  tracer.end_span(q, sim::from_seconds(1.5));
  std::string report = tracer.to_text_report();
  EXPECT_NE(report.find("trace: 2 spans"), std::string::npos) << report;
  EXPECT_NE(report.find("query"), std::string::npos);
  EXPECT_NE(report.find("  filter"), std::string::npos);  // indented child
  EXPECT_NE(report.find("by category (modeled seconds):"), std::string::npos);
  EXPECT_NE(report.find("n=1"), std::string::npos);  // RunningStats summary
}

TEST(Trace, DroppedSpansFlowIntoMetricsCounter) {
  MetricsRegistry reg;
  Tracer tracer(/*max_spans=*/2, &reg);
  Counter* dropped = reg.counter("ids_trace_dropped_spans_total");
  EXPECT_EQ(dropped->value(), 0u);
  for (int i = 0; i < 5; ++i) {
    tracer.begin_span("s", "stage", kNoSpan, -1, 0);
  }
  // 2 spans fit, 3 are dropped — the tracer's own count and the exported
  // counter agree exactly.
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(dropped->value(), 3u);
  // clear() resets the tracer but not the monotonic counter.
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(dropped->value(), 3u);
}

// ---- Query resource accounts ---------------------------------------------

TEST(QueryStats, AccountJsonGolden) {
  QueryResourceAccount a;
  a.sequence = 3;
  a.modeled_seconds = 2.5;
  a.wall_seconds = 0.5;
  a.rows_gathered = 24;
  a.rows_partitioned = 124;
  a.udf_invocations = 7;
  a.peak_solution_bytes = 4096;
  a.cache_bytes_written = 2048;
  a.cache_misses = 2;
  a.tiers.push_back({"local_dram", 1024, 5});
  a.tiers.push_back({"remote_dram", 512, 1});
  a.stages.push_back({"scan", 1.0, 0.25});
  a.stages.push_back({"gather", 1.5, 0.25});
  EXPECT_EQ(
      a.to_json(),
      "{\"sequence\":3,\"modeled_seconds\":2.5,\"wall_seconds\":0.5,"
      "\"divergence_seconds\":-2,\"rows_gathered\":24,"
      "\"rows_partitioned\":124,\"udf_invocations\":7,"
      "\"peak_solution_bytes\":4096,\"cache_bytes_written\":2048,"
      "\"cache_misses\":2,\"tiers\":["
      "{\"tier\":\"local_dram\",\"bytes_in\":1024,\"hits\":5},"
      "{\"tier\":\"remote_dram\",\"bytes_in\":512,\"hits\":1}],"
      "\"stages\":["
      "{\"stage\":\"scan\",\"modeled_seconds\":1,\"wall_seconds\":0.25,"
      "\"divergence_seconds\":-0.75},"
      "{\"stage\":\"gather\",\"modeled_seconds\":1.5,\"wall_seconds\":0.25,"
      "\"divergence_seconds\":-1.25}]}");
  EXPECT_TRUE(JsonValidator(a.to_json()).valid());
}

// ---- Query log -------------------------------------------------------------

TEST(QueryLog, RetainsNewestRecordsUnderOneSequence) {
  QueryLog log(/*capacity=*/3);
  // Empty log: every rendering is well formed and says so.
  EXPECT_EQ(log.snapshot().size(), 0u);
  EXPECT_EQ(log.accounts_json(), "{\"total\":0,\"recent\":[]}");
  EXPECT_NE(log.traces_text().find("0 of 0 completed queries"),
            std::string::npos);
  EXPECT_TRUE(JsonValidator(log.newest_trace_json()).valid());

  MetricsRegistry reg;
  for (int i = 0; i < 5; ++i) {
    Tracer tracer(/*max_spans=*/16, &reg);
    SpanId root = tracer.begin_span("query", "query", kNoSpan, -1, 0);
    tracer.add_attr(root, "n", static_cast<std::uint64_t>(i));
    tracer.end_span(root, 1000 * (i + 1));
    QueryRecord record;
    record.account.rows_gathered = static_cast<std::uint64_t>(i);
    record.spans = tracer.snapshot();
    record.dropped = tracer.dropped();
    EXPECT_EQ(log.push(std::move(record)), static_cast<std::uint64_t>(i + 1));
  }

  EXPECT_EQ(log.total_pushed(), 5u);
  std::vector<QueryRecord> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 3u);  // oldest two fell out
  EXPECT_EQ(kept[0].account.sequence, 3u);
  EXPECT_EQ(kept[0].account.rows_gathered, 2u);
  EXPECT_EQ(kept[2].account.sequence, 5u);
  ASSERT_EQ(kept[2].spans.size(), 1u);
  EXPECT_EQ(kept[2].spans[0].virt_end, 5000u);

  // /statusz JSON is newest-first under the total count.
  const std::string json = log.accounts_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  const std::size_t newest_account = json.find("\"sequence\":5");
  const std::size_t oldest_account = json.find("\"sequence\":3");
  ASSERT_NE(newest_account, std::string::npos) << json;
  ASSERT_NE(oldest_account, std::string::npos) << json;
  EXPECT_LT(newest_account, oldest_account);
  EXPECT_EQ(json.find("\"sequence\":2"), std::string::npos);
  EXPECT_NE(json.find("\"total\":5"), std::string::npos);

  // /tracez text is newest-first with one header per record, numbered
  // like the accounts.
  const std::string report = log.traces_text();
  EXPECT_NE(report.find("3 of 5 completed queries retained (capacity 3)"),
            std::string::npos)
      << report;
  const std::size_t newest_trace = report.find("trace #5");
  const std::size_t oldest_trace = report.find("trace #3");
  ASSERT_NE(newest_trace, std::string::npos) << report;
  ASSERT_NE(oldest_trace, std::string::npos) << report;
  EXPECT_LT(newest_trace, oldest_trace);
  EXPECT_EQ(report.find("trace #2"), std::string::npos);

  // Chrome export renders the newest record's trace.
  const std::string chrome = log.newest_trace_json();
  EXPECT_TRUE(JsonValidator(chrome).valid()) << chrome;
  EXPECT_NE(chrome.find("\"n\":\"4\""), std::string::npos) << chrome;

  // An untraced query still takes the next number on both endpoints.
  EXPECT_EQ(log.push(QueryRecord{}), 6u);
  EXPECT_NE(log.accounts_json().find("\"recent\":[{\"sequence\":6"),
            std::string::npos);
  const std::string untraced = log.traces_text();
  EXPECT_NE(untraced.find("=== trace #6 ===\nuntraced"), std::string::npos)
      << untraced;
  EXPECT_NE(untraced.find("trace #5"), std::string::npos);
  EXPECT_EQ(log.newest_trace_json().find("\"cat\":"), std::string::npos);
}

// ---- Engine integration --------------------------------------------------

/// Tiny graph fixture mirroring tests/engine_test.cpp: 10 people with an
/// age feature and a friendship ring, sharded over 4 ranks.
class TelemetryEngineFixture : public ::testing::Test {
 protected:
  static constexpr int kRanks = 4;

  void SetUp() override {
    triples_ = std::make_unique<graph::TripleStore>(kRanks);
    features_ = std::make_unique<store::FeatureStore>(kRanks);
    auto& d = triples_->dict();
    for (int i = 0; i < 10; ++i) {
      std::string person = "person" + std::to_string(i);
      triples_->add(person, "type", "Person");
      features_->set(*d.lookup(person), "age", static_cast<double>(20 + i));
    }
    for (int i = 0; i < 10; ++i) {
      triples_->add("person" + std::to_string(i), "knows",
                    "person" + std::to_string((i + 1) % 10));
    }
    triples_->finalize();
    features_->freeze();
  }

  PatternTerm term(const char* iri) {
    return PatternTerm::Const(*triples_->dict().lookup(iri));
  }

  /// Scan + hash join + UDF filter + distinct + cached invoke + gather:
  /// every stage kind the tracer knows about.
  Query full_query() {
    Query q;
    q.patterns.push_back(
        {PatternTerm::Var("x"), term("type"), term("Person")});
    q.patterns.push_back(
        {PatternTerm::Var("y"), term("knows"), PatternTerm::Var("x")});
    q.filters.push_back(Expr::Udf("coarse", {Expr::Var("x")}));
    q.distinct_var = "x";
    core::InvokeClause inv;
    inv.udf = "score";
    inv.args = {Expr::Var("x")};
    inv.out_var = "s";
    inv.use_cache = true;
    inv.cache_prefix = "score";
    q.invokes.push_back(inv);
    return q;
  }

  void register_udfs(IdsEngine* eng) {
    eng->registry().register_static(
        "coarse", [](const udf::UdfContext& ctx,
                     std::span<const expr::Value> args) {
          const auto* e = std::get_if<expr::Entity>(&args[0]);
          auto age = ctx.features->get_double(e->id, "age");
          return udf::UdfResult{age && *age >= 22.0, sim::from_millis(2)};
        });
    eng->registry().register_static(
        "score", [](const udf::UdfContext& ctx,
                    std::span<const expr::Value> args) {
          const auto* e = std::get_if<expr::Entity>(&args[0]);
          auto age = ctx.features->get_double(e->id, "age");
          return udf::UdfResult{age ? *age * 2 : 0.0, sim::from_seconds(3)};
        });
  }

  std::unique_ptr<graph::TripleStore> triples_;
  std::unique_ptr<store::FeatureStore> features_;
};

TEST_F(TelemetryEngineFixture, StageSpansMatchQueryResultExactly) {
  Tracer tracer;
  MetricsRegistry reg;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  opts.tracer = &tracer;
  opts.metrics = &reg;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);

  QueryResult r = eng.execute(full_query());
  ASSERT_GT(r.stages.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::vector<Span> spans = tracer.snapshot();
  std::vector<Span> stage_spans;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.category == "stage") stage_spans.push_back(s);
    if (s.category == "query") root = &s;
  }
  ASSERT_NE(root, nullptr);

  // One stage span per StageTiming, same names, same order, and the
  // modeled duration converts to the *identical* double. The wall range is
  // the account's too, stamp for stamp, so the trace and the account agree
  // on where host time went.
  ASSERT_EQ(stage_spans.size(), r.stages.size());
  ASSERT_EQ(r.account.stages.size(), r.stages.size());
  sim::Nanos cursor = 0;
  sim::Nanos total = 0;
  for (std::size_t i = 0; i < stage_spans.size(); ++i) {
    EXPECT_EQ(stage_spans[i].name, r.stages[i].stage);
    EXPECT_EQ(sim::to_seconds(stage_spans[i].virt_duration()),
              r.stages[i].seconds)
        << "stage " << r.stages[i].stage;
    EXPECT_EQ(static_cast<double>(stage_spans[i].wall_end_ns -
                                  stage_spans[i].wall_start_ns) *
                  1e-9,
              r.account.stages[i].wall_seconds)
        << "stage " << r.stages[i].stage;
    if (i > 0) {
      // Stages tile the query's wall timeline too.
      EXPECT_EQ(stage_spans[i].wall_start_ns, stage_spans[i - 1].wall_end_ns);
    }
    EXPECT_EQ(stage_spans[i].parent, root->id);
    // Stages tile the query's modeled timeline with no gaps.
    EXPECT_EQ(stage_spans[i].virt_start, cursor);
    cursor = stage_spans[i].virt_end;
    total += stage_spans[i].virt_duration();
  }
  EXPECT_EQ(root->virt_start, 0u);
  EXPECT_EQ(root->virt_end, cursor);
  EXPECT_EQ(root->virt_duration(), total);
  EXPECT_EQ(sim::to_seconds(cursor), r.total_seconds);

  // The stage list contains the expected pipeline for full_query().
  std::vector<std::string> names;
  names.reserve(r.stages.size());
  for (const auto& st : r.stages) names.push_back(st.stage);
  EXPECT_EQ(names,
            (std::vector<std::string>{"scan", "join", "rebalance", "filter",
                                      "distinct", "invoke:score", "gather"}));

  // Per-rank operator spans hang off stage spans; per-call spans hang off
  // the invoke span of the same rank. Row attrs add up to the result's
  // row counts. A fresh tracer's span ids are 1-based recording indices.
  const Span no_span;
  auto parent_of = [&](const Span& s) -> const Span& {
    if (s.parent < 1 || s.parent > spans.size()) {
      ADD_FAILURE() << s.name << " has no recorded parent";
      return no_span;
    }
    return spans[s.parent - 1];
  };
  auto attr = [](const Span& s, std::string_view key) -> std::string {
    for (const auto& [k, v] : s.attrs) {
      if (k == key) return v;
    }
    ADD_FAILURE() << s.name << " lacks attr " << key;
    return "0";
  };
  std::vector<std::string> rank_ops;
  std::uint64_t filter_rows_kept = 0;
  bool saw_cache_call = false;
  bool saw_udf_call = false;
  for (const Span& s : spans) {
    if (s.category == "rank") {
      EXPECT_GE(s.rank, 0);
      EXPECT_EQ(parent_of(s).category, "stage") << s.name;
      if (std::find(rank_ops.begin(), rank_ops.end(), s.name) ==
          rank_ops.end()) {
        rank_ops.push_back(s.name);
      }
      if (s.name == "filter") {
        filter_rows_kept += std::stoull(attr(s, "rows_kept"));
      }
      if (s.name == "scan" || s.name == "join:build") attr(s, "matches");
      if (s.name == "join:probe") attr(s, "produced");
    }
    if (s.category == "cache" || s.category == "udf") {
      const Span& parent = parent_of(s);
      EXPECT_EQ(parent.category, "rank") << s.name;
      EXPECT_EQ(parent.name, "invoke") << s.name;
      EXPECT_EQ(parent.rank, s.rank) << s.name;
      (s.category == "cache" ? saw_cache_call : saw_udf_call) = true;
    }
  }
  EXPECT_EQ(rank_ops,
            (std::vector<std::string>{"scan", "join:build", "join:probe",
                                      "filter", "distinct", "invoke"}));
  EXPECT_EQ(filter_rows_kept, r.rows_after_filters);
  EXPECT_TRUE(saw_cache_call);
  EXPECT_TRUE(saw_udf_call);

  // The Chrome export of a real query is valid JSON.
  EXPECT_TRUE(JsonValidator(tracer.to_chrome_json()).valid());

  // The query is the cache's only client here, so its own hit/miss tally
  // equals the cache's registry counters exactly.
  cache::CacheStats cs = cache.stats();
  EXPECT_EQ(r.cache_hits, cs.total_hits());
  EXPECT_EQ(r.cache_misses, cs.misses);

  // The UDF latency histogram reached the engine's private registry.
  EXPECT_EQ(reg.histogram("ids_udf_exec_seconds", latency_seconds_buckets(),
                          {{"udf", "score"}})
                ->count(),
            r.rows_invoked);
  EXPECT_EQ(reg.counter("ids_engine_queries_total")->value(), 1u);
}

TEST_F(TelemetryEngineFixture, CappedTracerCountsEachDroppedSpanOnce) {
  auto run = [this](Tracer* tracer) {
    MetricsRegistry reg;
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.tracer = tracer;
    opts.metrics = &reg;
    IdsEngine eng(opts, triples_.get(), features_.get());
    register_udfs(&eng);
    Query q = full_query();
    q.invokes[0].use_cache = false;  // no cache configured in this engine
    eng.execute(q);
  };
  Tracer uncapped;
  run(&uncapped);
  const std::uint64_t n = uncapped.size();
  ASSERT_GT(n, 1u);
  EXPECT_EQ(uncapped.dropped(), 0u);

  // A cap of one keeps the root span; every other span of the same query
  // is dropped, and counted, exactly once.
  MetricsRegistry reg;
  Tracer capped(1, &reg);
  run(&capped);
  EXPECT_EQ(capped.size(), 1u);
  EXPECT_EQ(capped.dropped(), n - 1);
  EXPECT_EQ(reg.counter("ids_trace_dropped_spans_total")->value(), n - 1);
}

TEST_F(TelemetryEngineFixture, SpanListIsAFunctionOfTheQuery) {
  // Two fresh engines run the same traced query: the span lists agree in
  // ids, parents, names, ranks, modeled ranges and attrs. Only the wall
  // stamps (and the root's wall-derived divergence) may differ. Under a
  // cap the same spans are kept and dropped.
  auto run = [this](std::size_t max_spans) {
    MetricsRegistry reg;
    Tracer tracer(max_spans, &reg);
    cache::CacheConfig cc;
    cc.num_nodes = 2;
    cc.metrics = &reg;
    cache::CacheManager cache(cc);
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.tracer = &tracer;
    opts.metrics = &reg;
    IdsEngine eng(opts, triples_.get(), features_.get());
    register_udfs(&eng);
    eng.execute(full_query());
    std::vector<std::string> lines;
    for (const Span& s : tracer.snapshot()) {
      std::string line = std::to_string(s.id) + " " +
                         std::to_string(s.parent) + " " + s.name + " " +
                         s.category + " " + std::to_string(s.rank) + " " +
                         std::to_string(s.virt_start) + ".." +
                         std::to_string(s.virt_end);
      for (const auto& [k, v] : s.attrs) {
        if (k != "divergence_seconds") line += " " + k + "=" + v;
      }
      lines.push_back(line);
    }
    lines.push_back("dropped " + std::to_string(tracer.dropped()));
    return lines;
  };
  for (std::size_t cap : {std::size_t{1} << 16, std::size_t{20}}) {
    const std::vector<std::string> first = run(cap);
    EXPECT_EQ(run(cap), first) << "cap " << cap;
    EXPECT_EQ(run(cap), first) << "cap " << cap;
  }
  EXPECT_EQ(run(20).size(), 21u);  // 20 spans and the dropped line
}

TEST_F(TelemetryEngineFixture, ResourceAccountMatchesQueryResult) {
  Tracer tracer;
  MetricsRegistry reg;
  QueryLog log;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  opts.tracer = &tracer;
  opts.metrics = &reg;
  opts.query_log = &log;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);

  QueryResult r = eng.execute(full_query());
  const QueryResourceAccount& a = r.account;

  // The account mirrors the QueryResult's own counters exactly.
  EXPECT_EQ(a.sequence, 1u);
  EXPECT_EQ(a.modeled_seconds, r.total_seconds);
  EXPECT_EQ(a.udf_invocations, static_cast<std::uint64_t>(r.rows_invoked));
  EXPECT_EQ(a.cache_misses, static_cast<std::uint64_t>(r.cache_misses));
  EXPECT_EQ(a.rows_gathered, r.solutions.num_rows());
  EXPECT_GT(a.rows_partitioned, 0u);   // rows crossed ranks in the join
  EXPECT_GT(a.peak_solution_bytes, 0u);
  EXPECT_GT(a.wall_seconds, 0.0);
  EXPECT_EQ(a.divergence_seconds(), a.wall_seconds - a.modeled_seconds);

  // Per-stage accounting lines up 1:1 with StageTiming on the modeled
  // clock, and every stage carries a wall measurement.
  ASSERT_EQ(a.stages.size(), r.stages.size());
  double stage_modeled = 0.0;
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].stage, r.stages[i].stage);
    EXPECT_EQ(a.stages[i].modeled_seconds, r.stages[i].seconds);
    EXPECT_GE(a.stages[i].wall_seconds, 0.0);
    stage_modeled += a.stages[i].modeled_seconds;
  }
  EXPECT_NEAR(stage_modeled, a.modeled_seconds, 1e-9);

  // Tier byte accounting: hits sum to the result's hit count, and every
  // reported tier actually served bytes.
  std::uint64_t tier_hits = 0;
  for (const auto& t : a.tiers) {
    EXPECT_GT(t.bytes_in + t.hits, 0u);
    tier_hits += t.hits;
  }
  EXPECT_EQ(tier_hits, static_cast<std::uint64_t>(r.cache_hits));

  // The query was logged once: one record holding the account and the
  // span tree, with the root span carrying the account attrs for /tracez.
  const std::vector<QueryRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].account.sequence, 1u);
  EXPECT_EQ(records[0].account.rows_partitioned, a.rows_partitioned);
  const std::vector<Span>& spans = records[0].spans;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.category == "query") root = &s;
  }
  ASSERT_NE(root, nullptr);
  bool saw_partitioned = false;
  bool saw_divergence = false;
  for (const auto& [key, value] : root->attrs) {
    if (key == "rows_partitioned") {
      saw_partitioned = true;
      EXPECT_EQ(value, std::to_string(a.rows_partitioned));
    }
    if (key == "divergence_seconds") saw_divergence = true;
  }
  EXPECT_TRUE(saw_partitioned);
  EXPECT_TRUE(saw_divergence);

  // The ids_query_* instruments saw the same numbers.
  EXPECT_EQ(reg.counter("ids_query_rows_gathered_total")->value(),
            a.rows_gathered);
  EXPECT_EQ(reg.counter("ids_query_udf_invocations_total")->value(),
            a.udf_invocations);
  EXPECT_EQ(reg.histogram("ids_query_modeled_seconds",
                          latency_seconds_buckets())
                ->count(),
            1u);

  // A second query advances the sequence; the account is per-execution.
  QueryResult r2 = eng.execute(full_query());
  EXPECT_EQ(r2.account.sequence, 2u);
  ASSERT_EQ(r2.account.stages.size(), r2.stages.size());
  EXPECT_EQ(log.total_pushed(), 2u);
}

TEST_F(TelemetryEngineFixture, ExplainAndTraceAgreeOnStages) {
  Tracer tracer;
  MetricsRegistry reg;
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.tracer = &tracer;
  opts.metrics = &reg;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);

  Query q = full_query();
  q.invokes[0].use_cache = false;  // no cache configured in this engine
  std::string plan = eng.explain(q);
  QueryResult r = eng.execute(q);

  // Every operator the plan lists shows up as a traced stage, and vice
  // versa: scan, join, filter chain, distinct, invoke.
  EXPECT_NE(plan.find("scan"), std::string::npos);
  EXPECT_NE(plan.find("join"), std::string::npos);
  EXPECT_NE(plan.find("filter chain"), std::string::npos);
  EXPECT_NE(plan.find("distinct ?x"), std::string::npos);
  EXPECT_NE(plan.find("invoke score"), std::string::npos);

  std::vector<std::string> traced;
  for (const Span& s : tracer.snapshot()) {
    if (s.category == "stage") traced.push_back(s.name);
  }
  std::vector<std::string> timed;
  timed.reserve(r.stages.size());
  for (const auto& st : r.stages) timed.push_back(st.stage);
  EXPECT_EQ(traced, timed);
  for (std::string_view want :
       {"scan", "join", "filter", "distinct", "invoke:score"}) {
    EXPECT_NE(std::find(traced.begin(), traced.end(), want), traced.end())
        << "missing stage " << want;
  }

  // The text report covers the stages too (with the stats.h summary).
  std::string report = tracer.to_text_report();
  EXPECT_NE(report.find("invoke:score"), std::string::npos);
  EXPECT_NE(report.find("n="), std::string::npos);
}

TEST_F(TelemetryEngineFixture, UntracedRunRecordsNothingButSameResult) {
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  MetricsRegistry reg;
  opts.metrics = &reg;

  Tracer tracer;
  EngineOptions traced_opts = opts;
  traced_opts.tracer = &tracer;

  Query q = full_query();
  q.invokes[0].use_cache = false;

  IdsEngine plain(opts, triples_.get(), features_.get());
  register_udfs(&plain);
  QueryResult a = plain.execute(q);

  IdsEngine traced(traced_opts, triples_.get(), features_.get());
  register_udfs(&traced);
  QueryResult b = traced.execute(q);

  // Tracing must not perturb the modeled result.
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].stage, b.stages[i].stage);
    EXPECT_EQ(a.stages[i].seconds, b.stages[i].seconds);
  }
  EXPECT_GT(tracer.size(), 0u);
}

TEST(ThreadPoolMetrics, TasksFlowIntoGlobalRegistry) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::uint64_t before = reg.counter("ids_threadpool_tasks_total")->value();
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GT(reg.counter("ids_threadpool_tasks_total")->value(), before);
  EXPECT_GT(
      reg.histogram("ids_threadpool_task_run_seconds",
                    latency_seconds_buckets())
          ->count(),
      0u);
}

}  // namespace
}  // namespace ids::telemetry
