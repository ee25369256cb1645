// Telemetry tests: metrics registry (series identity, bucket edges,
// Prometheus/JSON exposition goldens, concurrency under TSan), span trees
// (cap, Chrome trace_event schema), the query log, and the engine
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

// ---- Span trees -------------------------------------------------------------

/// A span of an append() batch: `id` is its 1-based position in the batch.
Span batch_span(std::string name, std::string category, SpanId id,
                SpanId parent, int rank, sim::Nanos start, sim::Nanos end) {
  return {std::move(name), std::move(category), id, parent, rank, start, end,
          0, 0, {}};
}

TEST(Trace, SpanTreeAndAttrs) {
  SpanTree tree;
  const SpanId root =
      tree.append({batch_span("query", "query", 1, kNoSpan, -1, 0, 40)},
                  kNoSpan, 16);
  ASSERT_EQ(root, 1u);
  // A batch's own ids and parents are renumbered; kNoSpan means `parent`.
  const SpanId child =
      tree.append({batch_span("scan", "stage", 1, kNoSpan, -1, 10, 30),
                   batch_span("scan", "rank", 2, 1, 0, 10, 25)},
                  root, 16);
  ASSERT_EQ(child, 2u);
  tree.find(child)->attrs.emplace_back("rows", "42");
  EXPECT_EQ(tree.find(kNoSpan), nullptr);
  EXPECT_EQ(tree.find(4), nullptr);

  const std::vector<Span>& spans = tree.spans;
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[0].virt_duration(), 40u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].virt_start, 10u);
  EXPECT_EQ(spans[1].virt_duration(), 20u);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].first, "rows");
  EXPECT_EQ(spans[1].attrs[0].second, "42");
  EXPECT_EQ(spans[2].id, 3u);
  EXPECT_EQ(spans[2].parent, child);

  // Appended whole to another tree, a second copy lands after the first as
  // one block; its root stays a root and its parents move with it.
  SpanTree twice;
  twice.append(tree.spans, kNoSpan, 16);
  twice.append(tree.spans, kNoSpan, 16);
  const std::vector<Span>& both = twice.spans;
  ASSERT_EQ(both.size(), 6u);
  EXPECT_EQ(both[3].id, 4u);
  EXPECT_EQ(both[3].parent, kNoSpan);
  EXPECT_EQ(both[4].parent, 4u);
  EXPECT_EQ(both[5].parent, 5u);
}

TEST(Trace, CapDropsEachExcessSpanOnce) {
  SpanTree tree;
  EXPECT_EQ(tree.append({batch_span("a", "x", 1, kNoSpan, -1, 0, 0)},
                        kNoSpan, 2),
            1u);
  // Past the cap a batch's tail is dropped and counted.
  EXPECT_EQ(tree.append({batch_span("b", "x", 1, kNoSpan, -1, 0, 0),
                         batch_span("c", "x", 2, 1, -1, 0, 0)},
                        kNoSpan, 2),
            2u);
  EXPECT_EQ(tree.append({batch_span("d", "x", 1, kNoSpan, -1, 0, 0)},
                        kNoSpan, 2),
            kNoSpan);
  ASSERT_EQ(tree.spans.size(), 2u);
  EXPECT_EQ(tree.spans[1].name, "b");
  EXPECT_EQ(tree.dropped, 2u);
  // Both exports report the drops.
  EXPECT_NE(tree.to_chrome_json().find("\"dropped_spans\":2"),
            std::string::npos);
  EXPECT_NE(tree.to_text_report().find("trace: 2 spans (2 dropped)"),
            std::string::npos);
}

TEST(Trace, ChromeJsonIsValidJson) {
  SpanTree tree;
  tree.append({batch_span("query", "query", 1, kNoSpan, -1, 0, 2000),
               batch_span("scan", "stage", 2, 1, -1, 0, 2000),
               batch_span("scan", "rank", 3, 2, 2, 0, 1500)},
              kNoSpan, 16);
  tree.find(3)->attrs.emplace_back("matches", "7");

  const std::string json = tree.to_chrome_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Rank 2 maps to tid 3; the engine timeline is tid 0.
  EXPECT_NE(json.find("\"tid\":3,\"args\":{\"name\":\"rank 2\"}"),
            std::string::npos);
  // Modeled times become microseconds with 3 decimals, exactly.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"modeled_ns\":1500"), std::string::npos);
  EXPECT_NE(json.find("\"matches\":\"7\""), std::string::npos);
  // /tracez?fmt=json renders a record's tree the same way.
  QueryLog log;
  log.push({QueryResourceAccount{}, tree});
  EXPECT_EQ(log.newest_trace_json(), json);
}

TEST(Trace, TextReportTreeAndCategorySummary) {
  SpanTree tree;
  tree.append({batch_span("query", "query", 1, kNoSpan, -1, 0,
                          sim::from_seconds(1.5)),
               batch_span("filter", "stage", 2, 1, -1, 0,
                          sim::from_seconds(1.5))},
              kNoSpan, 16);
  const std::string report = tree.to_text_report();
  EXPECT_NE(report.find("trace: 2 spans"), std::string::npos) << report;
  EXPECT_NE(report.find("query"), std::string::npos);
  EXPECT_NE(report.find("  filter"), std::string::npos);  // indented child
  EXPECT_NE(report.find("by category (modeled seconds):"), std::string::npos);
  EXPECT_NE(report.find("n=1"), std::string::npos);  // RunningStats summary
  // /tracez shows a record's tree the same way, under its header.
  QueryLog log;
  log.push({QueryResourceAccount{}, tree});
  EXPECT_NE(log.traces_text().find("=== trace #1 ===\n" + report),
            std::string::npos);
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

  for (int i = 0; i < 5; ++i) {
    QueryRecord record;
    record.account.rows_gathered = static_cast<std::uint64_t>(i);
    record.trace.append(
        {batch_span("query", "query", 1, kNoSpan, -1, 0, 1000 * (i + 1))},
        kNoSpan, 16);
    record.trace.find(1)->attrs.emplace_back("n", std::to_string(i));
    EXPECT_EQ(log.push(std::move(record)), static_cast<std::uint64_t>(i + 1));
  }

  EXPECT_EQ(log.total_pushed(), 5u);
  std::vector<QueryRecord> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 3u);  // oldest two fell out
  EXPECT_EQ(kept[0].account.sequence, 3u);
  EXPECT_EQ(kept[0].account.rows_gathered, 2u);
  EXPECT_EQ(kept[2].account.sequence, 5u);
  ASSERT_EQ(kept[2].trace.spans.size(), 1u);
  EXPECT_EQ(kept[2].trace.spans[0].virt_end, 5000u);

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

/// A log that traces its queries, uncapped for these small queries.
constexpr std::size_t kTraceAll = 1u << 16;

/// The span tree of the newest record in `log`.
SpanTree newest_trace(const QueryLog& log) {
  return log.snapshot().back().trace;
}

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
  /// every stage kind a trace records.
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

  /// What a fixed query sequence leaves in the UDF profile, on a fresh
  /// engine with a two-node cache and a private registry: full_query()
  /// twice (the second INVOKE is served from the cache), then a FILTER
  /// query whose two UDF conjuncts both reject rows. `exposition` holds
  /// the ids_udf_* non-empty bucket lines, _count lines and rejects
  /// counters (not _sum: its rounding depends on the order ranks observe
  /// in); `plan` is explain() of the FILTER query, whose conjunct order,
  /// est_cost and reject_rate come from the published profile.
  struct UdfProfileEffects {
    std::string exposition;
    std::string plan;
  };

  UdfProfileEffects udf_profile_effects() {
    MetricsRegistry reg;
    cache::CacheConfig cc;
    cc.num_nodes = 2;
    cc.metrics = &reg;
    cache::CacheManager cache(cc);
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.metrics = &reg;
    IdsEngine eng(opts, triples_.get(), features_.get());
    register_udfs(&eng);
    eng.execute(full_query());
    eng.execute(full_query());

    Query filter;
    filter.patterns.push_back(
        {PatternTerm::Var("x"), term("type"), term("Person")});
    // score = 2 * age keeps ages 28 and 29; coarse keeps ages >= 22.
    filter.filters.push_back(
        Expr::And(Expr::Compare(expr::CmpOp::kGt,
                                Expr::Udf("score", {Expr::Var("x")}),
                                Expr::Constant(55.0)),
                  Expr::Udf("coarse", {Expr::Var("x")})));
    eng.execute(filter);

    UdfProfileEffects out;
    const std::string prom = reg.to_prometheus();
    std::size_t pos = 0;
    while (pos < prom.size()) {
      const std::size_t end = prom.find('\n', pos);
      const std::string line = prom.substr(pos, end - pos);
      pos = end == std::string::npos ? prom.size() : end + 1;
      if (line.rfind("ids_udf_", 0) != 0) continue;
      if (line.find("_sum{") != std::string::npos) continue;
      if (line.find("_bucket{") != std::string::npos &&
          line.ends_with("} 0")) {
        continue;  // empty buckets below the first observation
      }
      out.exposition += line + "\n";
    }
    out.plan = eng.explain(filter);
    return out;
  }

  std::unique_ptr<graph::TripleStore> triples_;
  std::unique_ptr<store::FeatureStore> features_;
};

TEST_F(TelemetryEngineFixture, StageSpansMatchQueryResultExactly) {
  QueryLog log(/*capacity=*/8, kTraceAll);
  MetricsRegistry reg;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  opts.query_log = &log;
  opts.metrics = &reg;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);

  QueryResult r = eng.execute(full_query());
  ASSERT_GT(r.stages.size(), 0u);
  const SpanTree trace = newest_trace(log);
  EXPECT_EQ(trace.dropped, 0u);

  const std::vector<Span>& spans = trace.spans;
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
  // row counts. A record's span ids are 1-based recording indices.
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
  EXPECT_TRUE(JsonValidator(log.newest_trace_json()).valid());

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

/// One line per span (id, parent, name, category, rank, modeled range and
/// attrs) and a last line with the dropped count: everything a span tree
/// records except what depends on the host (wall stamps, the root's
/// wall-derived divergence, the SIMD level).
std::string span_lines(const SpanTree& tree) {
  std::string out;
  for (const Span& s : tree.spans) {
    out += std::to_string(s.id) + " " + std::to_string(s.parent) + " " +
           s.name + " " + s.category + " " + std::to_string(s.rank) + " " +
           std::to_string(s.virt_start) + ".." + std::to_string(s.virt_end);
    for (const auto& [k, v] : s.attrs) {
      if (k != "divergence_seconds" && k != "simd_level") {
        out += " " + k + "=" + v;
      }
    }
    out += "\n";
  }
  out += "dropped " + std::to_string(tree.dropped) + "\n";
  return out;
}

/// full_query()'s span tree on a fresh engine with a two-node cache, as
/// span_lines() renders it. A change to what the engine traces, or to
/// the order it traces it in, shows up here; an intended one re-records
/// the golden from this test's failure output and says so in CHANGES.md.
constexpr std::string_view kFullQuerySpans = R"(1 0 query query -1 0..6014111762 rows=8 cache_hits=0 cache_misses=8 rows_partitioned=9 udf_invocations=8 peak_solution_bytes=192
2 1 scan stage -1 0..350
3 2 scan rank 0 0..350 matches=6
4 2 scan rank 1 0..335 matches=3
5 2 scan rank 2 0..320 matches=0
6 2 scan rank 3 0..325 matches=1
7 1 join stage -1 350..1660
8 7 join:build rank 0 350..700 matches=6
9 7 join:probe rank 0 1300..1660 produced=6
10 7 join:build rank 1 350..685 matches=3
11 7 join:probe rank 1 1300..1480 produced=3
12 7 join:build rank 2 350..670 matches=0
13 7 join:probe rank 2 1300..1300 produced=0
14 7 join:build rank 3 350..675 matches=1
15 7 join:probe rank 3 1300..1360 produced=1
16 1 rebalance stage -1 1660..5860 policy=throughput triggered=1 throughput_based=0 speed_ratio=1
17 1 filter stage -1 5860..6006010 reorder=on distinct_orders=1 rank0_order=0
18 17 filter rank 0 5860..6006010 rows_in=3 rows_kept=2
19 17 filter rank 1 5860..6006010 rows_in=3 rows_kept=2
20 17 filter rank 2 5860..4005960 rows_in=2 rows_kept=2
21 17 filter rank 3 5860..4005960 rows_in=2 rows_kept=2
22 1 distinct stage -1 6006010..6011510
23 22 distinct rank 0 6007810..6007910 rows_in=5 rows_kept=5
24 22 distinct rank 1 6007810..6007850 rows_in=2 rows_kept=2
25 22 distinct rank 2 6007810..6007810 rows_in=0 rows_kept=0
26 22 distinct rank 3 6007810..6007830 rows_in=1 rows_kept=1
27 1 invoke:score stage -1 6011510..6014111158
28 27 invoke rank 0 6011510..6014103950
29 28 cache.get cache 0 6011535..6011535 hit=0
30 28 score udf 0 6011535..3006011535
31 28 cache.put cache 0 3006011535..3010054126
32 28 cache.get cache 0 3010054151..3010057755 hit=0
33 28 score udf 0 3010057755..6010057755
34 28 cache.put cache 0 6010057755..6014103950
35 27 invoke rank 1 6011510..6014111158
36 35 cache.get cache 1 6011535..6015139 hit=0
37 35 score udf 1 6015139..3006015139
38 35 cache.put cache 1 3006015139..3010061334
39 35 cache.get cache 1 3010061359..3010064963 hit=0
40 35 score udf 1 3010064963..6010064963
41 35 cache.put cache 1 6010064963..6014111158
42 27 invoke rank 2 6011510..6014103950
43 42 cache.get cache 2 6011535..6011535 hit=0
44 42 score udf 2 6011535..3006011535
45 42 cache.put cache 2 3006011535..3010054126
46 42 cache.get cache 2 3010054151..3010057755 hit=0
47 42 score udf 2 3010057755..6010057755
48 42 cache.put cache 2 6010057755..6014103950
49 27 invoke rank 3 6011510..6014096742
50 49 cache.get cache 3 6011535..6011535 hit=0
51 49 score udf 3 6011535..3006011535
52 49 cache.put cache 3 3006011535..3010054126
53 49 cache.get cache 3 3010054151..3010054151 hit=0
54 49 score udf 3 3010054151..6010054151
55 49 cache.put cache 3 6010054151..6014096742
56 1 gather stage -1 6014111158..6014111762
dropped 0
)";

TEST_F(TelemetryEngineFixture, SpanListMatchesGolden) {
  // A fresh engine runs the traced query: the span list matches the
  // golden in ids, parents, names, ranks, modeled ranges and attrs, every
  // run. Under a cap the same prefix is kept and the rest counted, once in
  // the record and once in the engine's registry.
  auto run = [this](std::size_t max_spans) {
    MetricsRegistry reg;
    QueryLog log(/*capacity=*/8, max_spans);
    cache::CacheConfig cc;
    cc.num_nodes = 2;
    cc.metrics = &reg;
    cache::CacheManager cache(cc);
    EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.query_log = &log;
    opts.metrics = &reg;
    IdsEngine eng(opts, triples_.get(), features_.get());
    register_udfs(&eng);
    eng.execute(full_query());
    const SpanTree trace = newest_trace(log);
    EXPECT_EQ(reg.counter("ids_trace_dropped_spans_total")->value(),
              trace.dropped);
    return span_lines(trace);
  };
  const std::string uncapped(kFullQuerySpans);
  EXPECT_EQ(run(kTraceAll), uncapped);
  EXPECT_EQ(run(kTraceAll), uncapped);

  // The first 20 span lines of the golden, and the other 36 dropped.
  std::size_t end = 0;
  for (int line = 0; line < 20; ++line) end = uncapped.find('\n', end) + 1;
  const std::string capped = uncapped.substr(0, end) + "dropped 36\n";
  EXPECT_EQ(run(20), capped);
  EXPECT_EQ(run(20), capped);
}

constexpr std::string_view kUdfProfileExposition = R"(ids_udf_exec_seconds_bucket{udf="coarse",le="0.0025"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.005"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.01"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.025"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.05"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.1"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.25"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="0.5"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="1"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="2.5"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="5"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="1e+01"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="25"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="5e+01"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="1e+02"} 30
ids_udf_exec_seconds_bucket{udf="coarse",le="+Inf"} 30
ids_udf_exec_seconds_count{udf="coarse"} 30
ids_udf_exec_seconds_bucket{udf="score",le="5"} 16
ids_udf_exec_seconds_bucket{udf="score",le="1e+01"} 16
ids_udf_exec_seconds_bucket{udf="score",le="25"} 16
ids_udf_exec_seconds_bucket{udf="score",le="5e+01"} 16
ids_udf_exec_seconds_bucket{udf="score",le="1e+02"} 16
ids_udf_exec_seconds_bucket{udf="score",le="+Inf"} 16
ids_udf_exec_seconds_count{udf="score"} 16
ids_udf_rejects_total{udf="coarse"} 6
ids_udf_rejects_total{udf="score"} 6
)";

constexpr std::string_view kUdfProfilePlan = R"(plan (1 nodes x 4 ranks):
  1. scan { ?x type Person } est=10 rows
  filter chain (rank 0 order, 1 distinct order(s) across ranks):
    coarse(?x)                                       est_cost=0.002s reject_rate=0.20
    (score(?x) > 55)                                 est_cost=3s reject_rate=0.38
)";

TEST_F(TelemetryEngineFixture, UdfProfileExpositionMatchesGolden) {
  EXPECT_EQ(udf_profile_effects().exposition, kUdfProfileExposition);
}

TEST_F(TelemetryEngineFixture, ExplainAfterProfileMatchesGolden) {
  EXPECT_EQ(udf_profile_effects().plan, kUdfProfilePlan);
}

TEST_F(TelemetryEngineFixture, CappedLogKeepsEachQuerysOwnTree) {
  // One engine, one log whose span cap is below one query's span count,
  // two identical queries. Each record holds its own query's first 12
  // spans and its own drop count, and the engine's counter counts each
  // span the cap dropped exactly once.
  Query q = full_query();
  q.invokes[0].use_cache = false;  // no cache configured in this engine
  MetricsRegistry reg;
  QueryLog log(/*capacity=*/8, /*max_spans=*/12);
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.metrics = &reg;
  opts.query_log = &log;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);
  eng.execute(q);
  eng.execute(q);

  QueryLog solo_log(/*capacity=*/8, kTraceAll);
  opts.query_log = &solo_log;
  IdsEngine solo_eng(opts, triples_.get(), features_.get());
  register_udfs(&solo_eng);
  solo_eng.execute(q);
  const SpanTree solo = newest_trace(solo_log);
  const std::uint64_t n = solo.spans.size();
  ASSERT_GT(n, 12u);

  const std::vector<QueryRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace.spans.size(), 12u);
  EXPECT_EQ(records[0].trace.dropped, n - 12);
  EXPECT_EQ(span_lines(records[1].trace), span_lines(records[0].trace));
  SpanTree solo_prefix = solo;
  solo_prefix.spans.resize(12);
  solo_prefix.dropped = n - 12;
  EXPECT_EQ(span_lines(records[0].trace), span_lines(solo_prefix));
  EXPECT_EQ(log.traces_text().find("untraced"), std::string::npos);

  EXPECT_EQ(reg.counter("ids_trace_dropped_spans_total")->value(),
            2 * (n - 12));
}

TEST_F(TelemetryEngineFixture, EnginesSharingOneLogPublishSoloTrees) {
  // Several engines share one log and run at once. Every record equals
  // the solo run.
  Query q = full_query();
  q.invokes[0].use_cache = false;  // no cache configured in these engines
  MetricsRegistry reg;
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.metrics = &reg;

  QueryLog solo_log(/*capacity=*/8, kTraceAll);
  opts.query_log = &solo_log;
  IdsEngine solo(opts, triples_.get(), features_.get());
  register_udfs(&solo);
  solo.execute(q);
  const std::string solo_lines = span_lines(newest_trace(solo_log));

  constexpr int kEngines = 4;
  constexpr int kQueriesPerEngine = 3;
  QueryLog log(/*capacity=*/kEngines * kQueriesPerEngine, kTraceAll);
  opts.query_log = &log;
  std::vector<std::thread> workers;
  workers.reserve(kEngines);
  for (int e = 0; e < kEngines; ++e) {
    workers.emplace_back([this, &opts, &q] {
      IdsEngine eng(opts, triples_.get(), features_.get());
      register_udfs(&eng);
      for (int i = 0; i < kQueriesPerEngine; ++i) eng.execute(q);
    });
  }
  for (auto& w : workers) w.join();

  const std::vector<QueryRecord> records = log.snapshot();
  ASSERT_EQ(records.size(), std::size_t{kEngines * kQueriesPerEngine});
  for (const QueryRecord& record : records) {
    EXPECT_EQ(span_lines(record.trace), solo_lines)
        << "record " << record.account.sequence;
  }
}

TEST_F(TelemetryEngineFixture, StatuszJsonEscapesStageNames) {
  // A UDF name is user text: INVOKE makes it part of the stage name, and
  // the account JSON /statusz serves must stay valid around it.
  MetricsRegistry reg;
  QueryLog log;
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.metrics = &reg;
  opts.query_log = &log;
  IdsEngine eng(opts, triples_.get(), features_.get());
  register_udfs(&eng);
  eng.registry().register_static(
      "say\"hi", [](const udf::UdfContext&, std::span<const expr::Value>) {
        return udf::UdfResult{1.0, sim::from_millis(1)};
      });
  Query q = full_query();
  q.invokes[0].udf = "say\"hi";
  q.invokes[0].use_cache = false;  // no cache configured in this engine
  const QueryResult r = eng.execute(q);
  EXPECT_EQ(r.stages.back().stage, "gather");
  const std::string json = log.accounts_json();
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find(R"("stage":"invoke:say\"hi")"), std::string::npos)
      << json;
}

TEST_F(TelemetryEngineFixture, ResourceAccountMatchesQueryResult) {
  MetricsRegistry reg;
  QueryLog log(/*capacity=*/8, kTraceAll);
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.metrics = &reg;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
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
  const std::vector<Span>& spans = records[0].trace.spans;
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
  QueryLog log(/*capacity=*/8, kTraceAll);
  MetricsRegistry reg;
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.query_log = &log;
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
  for (const Span& s : newest_trace(log).spans) {
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
  std::string report = log.traces_text();
  EXPECT_NE(report.find("invoke:score"), std::string::npos);
  EXPECT_NE(report.find("n="), std::string::npos);
}

TEST_F(TelemetryEngineFixture, UntracedRunRecordsNothingButSameResult) {
  EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  MetricsRegistry reg;
  opts.metrics = &reg;

  QueryLog log(/*capacity=*/8, kTraceAll);
  EngineOptions traced_opts = opts;
  traced_opts.query_log = &log;
  QueryLog untraced_log;  // max_spans 0: accounts only
  opts.query_log = &untraced_log;

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
  EXPECT_GT(newest_trace(log).spans.size(), 0u);
  EXPECT_TRUE(newest_trace(untraced_log).spans.empty());
  EXPECT_EQ(newest_trace(untraced_log).dropped, 0u);
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
