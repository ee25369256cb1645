#pragma once

// Process-wide metrics registry: the single sink every subsystem reports
// into (ISSUE 4 tentpole).
//
// Three instrument kinds, modeled on the Prometheus data model:
//
//   Counter   — monotonically increasing uint64 (events, bytes).
//   Gauge     — settable double (queue depth, resident entries).
//   Histogram — fixed ascending bucket bounds with Prometheus "le"
//               semantics: observe(x) lands in the first bucket whose
//               upper bound is >= x, or the implicit +Inf overflow
//               bucket. Exposition emits *cumulative* bucket counts.
//
// Instruments are identified by (name, label set). Names follow the
// repo convention `ids_<subsystem>_<name>[_unit][_total]`, e.g.
// `ids_cache_misses_total{cache="cache0"}`. Lookup returns a stable
// pointer that stays valid for the registry's lifetime, so hot paths
// resolve an instrument once and then touch only atomics.
//
// One ids::Mutex guards the registry's series map. Lookups happen once
// per instrument owner, query or UDF, never per row, so they do not
// contend; reads on the hot path (inc/observe/set) are lock-free.
//
// Exporters:
//   to_prometheus() — text exposition format (# TYPE lines, _bucket/
//                     _sum/_count for histograms), deterministic order.
//   to_json()       — machine-readable snapshot for tools and tests.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace ids::telemetry {

/// Key/value labels attached to an instrument. Canonicalized (sorted by
/// key) on registration, so `{{"a","1"},{"b","2"}}` and the reverse order
/// name the same instrument.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count. All operations are lock-free.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, bytes resident). Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency/size distribution. Bounds are upper edges in
/// ascending order; an implicit +Inf bucket catches the overflow. Bucket
/// membership uses Prometheus' inclusive-upper-bound rule: x lands in the
/// first bucket with bound >= x.
class Histogram {
 public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double x);

  /// Per-bucket (non-cumulative) counts, one per bound plus the +Inf slot.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Quantile estimate (q in [0,1], clamped) with Prometheus
  /// histogram_quantile semantics: find the bucket holding the q-th
  /// observation and interpolate linearly within it. See
  /// histogram_quantile() for the edge cases.
  double quantile(double q) const;

  std::span<const double> bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Quantile estimate from a histogram snapshot: `bucket_counts` are the
/// per-bucket (non-cumulative) counts, one per bound plus the trailing
/// +Inf slot. Linear interpolation within the owning bucket, with the
/// first bucket's lower edge taken as 0 (or its own upper edge when that
/// is negative), matching Prometheus' histogram_quantile. Observations
/// landing exactly on a bucket edge report that edge exactly. Returns NaN
/// for an empty histogram; a quantile inside the +Inf overflow bucket
/// clamps to the largest finite bound (the best available estimate).
double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> bucket_counts,
                          double q);

/// Default bucket edges for modeled/wall latencies in seconds: 1us .. 100s
/// in decade steps with 1-2.5-5 subdivision — wide enough for both cache
/// hits (~us) and docking runs (~tens of seconds).
std::span<const double> latency_seconds_buckets();

/// Instrument registry. One `global()` instance serves the
/// whole process; tests construct private registries for goldens.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Never destroyed (function-local static),
  /// so instrument pointers cached in long-lived objects stay valid.
  static MetricsRegistry& global();

  /// Find-or-create. The returned pointer is stable for the registry's
  /// lifetime. Re-registering an existing (name, labels) pair with a
  /// different instrument kind (or different histogram bounds) aborts via
  /// IDS_CHECK — one name, one meaning.
  Counter* counter(std::string_view name, LabelSet labels = {});
  Gauge* gauge(std::string_view name, LabelSet labels = {});
  Histogram* histogram(std::string_view name, std::span<const double> bounds,
                       LabelSet labels = {});

  /// Prometheus text exposition, families sorted by name, series sorted by
  /// label string within a family.
  std::string to_prometheus() const;

  /// JSON snapshot: {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string to_json() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    std::string name;
    LabelSet labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series* find_or_create(std::string_view name, LabelSet labels, Kind kind,
                        std::span<const double> bounds);

  /// Stable flattened snapshot used by both exporters.
  struct Sample;
  std::vector<Sample> snapshot_sorted() const;

  mutable Mutex mutex_;
  // Keyed by name|label=value|...
  std::map<std::string, Series> series_ IDS_GUARDED_BY(mutex_);
};

/// Renders `v` with the shortest decimal digits that round-trip to the
/// same double — deterministic and golden-test friendly. Exposed for the
/// trace exporter and tests.
std::string format_double(double v);

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped. Every JSON exporter in telemetry/ uses it.
std::string escape_json(std::string_view s);

}  // namespace ids::telemetry
