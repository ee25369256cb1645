#include "telemetry/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace ids::telemetry {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

/// Escapes a label value for the exposition format: backslash, quote, and
/// newline are the only characters Prometheus requires escaping.
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Renders `{k1="v1",k2="v2"}` (empty string for no labels). `extra` lets
/// histogram exposition append the `le` label to an existing series.
std::string render_labels(const LabelSet& labels, const std::string& extra_key,
                          const std::string& extra_value) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_label_value(v) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_json_labels(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += escape_json(k);
    out += "\":\"";
    out += escape_json(v);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    IDS_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly ascending";
  }
}

void Histogram::observe(double x) {
  IDS_DCHECK(!std::isnan(x));
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double histogram_quantile(std::span<const double> bounds,
                          std::span<const std::uint64_t> bucket_counts,
                          double q) {
  IDS_CHECK(bucket_counts.size() == bounds.size() + 1)
      << "bucket_counts must carry one slot per bound plus +Inf";
  std::uint64_t total = 0;
  for (std::uint64_t c : bucket_counts) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  // Continuous rank of the target observation. q = 0 resolves to the
  // lower edge of the first non-empty bucket, q = 1 to the upper edge of
  // the last.
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      if (i == bounds.size()) break;  // +Inf bucket: clamp below
      const double upper = bounds[i];
      const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
      double frac = (target - cumulative) / in_bucket;
      if (frac < 0.0) frac = 0.0;
      return lower + (upper - lower) * frac;
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : bounds.back();
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  return histogram_quantile(bounds_, counts, q);
}

std::span<const double> latency_seconds_buckets() {
  static const double kBounds[] = {1e-6,  2.5e-6, 5e-6,  1e-5,  2.5e-5, 5e-5,
                                   1e-4,  2.5e-4, 5e-4,  1e-3,  2.5e-3, 5e-3,
                                   1e-2,  2.5e-2, 5e-2,  1e-1,  2.5e-1, 5e-1,
                                   1.0,   2.5,    5.0,   10.0,  25.0,   50.0,
                                   100.0};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrument pointers cached by long-lived singletons
  // (ThreadPool::global()) must outlive every static destructor.
  static MetricsRegistry* const kGlobal = new MetricsRegistry();
  return *kGlobal;
}

MetricsRegistry::Entry* MetricsRegistry::find_or_create(
    std::string_view name, LabelSet labels, Kind kind,
    std::span<const double> bounds) {
  IDS_CHECK(valid_metric_name(name)) << "bad metric name: " << name;
  std::sort(labels.begin(), labels.end());
  std::string key(name);
  for (const auto& [k, v] : labels) {
    IDS_CHECK(valid_metric_name(k)) << "bad label name: " << k;
    key += '|';
    key += k;
    key += '=';
    key += v;
  }
  Shard& shard = shards_[std::hash<std::string>{}(key) % kNumShards];
  MutexLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    Entry entry;
    entry.name = std::string(name);
    entry.labels = std::move(labels);
    entry.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<Histogram>(bounds);
        break;
    }
    it = shard.entries.emplace(std::move(key), std::move(entry)).first;
  } else {
    IDS_CHECK(it->second.kind == kind)
        << "metric " << name << " re-registered as a different kind";
    if (kind == Kind::kHistogram) {
      const auto existing = it->second.histogram->bounds();
      IDS_CHECK(existing.size() == bounds.size() &&
                std::equal(existing.begin(), existing.end(), bounds.begin()))
          << "histogram " << name << " re-registered with different bounds";
    }
  }
  return &it->second;
}

Counter* MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  return find_or_create(name, std::move(labels), Kind::kCounter, {})
      ->counter.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, LabelSet labels) {
  return find_or_create(name, std::move(labels), Kind::kGauge, {})
      ->gauge.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds,
                                      LabelSet labels) {
  return find_or_create(name, std::move(labels), Kind::kHistogram, bounds)
      ->histogram.get();
}

struct MetricsRegistry::Sample {
  std::string name;
  LabelSet labels;
  std::string label_str;  // sort tiebreak within a family
  Kind kind;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;  // non-cumulative
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
};

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot_sorted() const {
  std::vector<Sample> out;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& [key, entry] : shard.entries) {
      Sample s;
      s.name = entry.name;
      s.labels = entry.labels;
      s.label_str = render_labels(entry.labels, "", "");
      s.kind = entry.kind;
      switch (entry.kind) {
        case Kind::kCounter:
          s.counter_value = entry.counter->value();
          break;
        case Kind::kGauge:
          s.gauge_value = entry.gauge->value();
          break;
        case Kind::kHistogram: {
          const auto b = entry.histogram->bounds();
          s.bounds.assign(b.begin(), b.end());
          s.bucket_counts = entry.histogram->bucket_counts();
          s.hist_count = entry.histogram->count();
          s.hist_sum = entry.histogram->sum();
          break;
        }
      }
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.label_str < b.label_str;
  });
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream os;
  std::string prev_name;
  for (const Sample& s : snapshot_sorted()) {
    if (s.name != prev_name) {
      const char* type = s.kind == Kind::kCounter   ? "counter"
                         : s.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
      os << "# TYPE " << s.name << " " << type << "\n";
      prev_name = s.name;
    }
    switch (s.kind) {
      case Kind::kCounter:
        os << s.name << s.label_str << " " << s.counter_value << "\n";
        break;
      case Kind::kGauge:
        os << s.name << s.label_str << " " << format_double(s.gauge_value)
           << "\n";
        break;
      case Kind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
          cumulative += s.bucket_counts[i];
          const std::string le =
              i < s.bounds.size() ? format_double(s.bounds[i]) : "+Inf";
          os << s.name << "_bucket" << render_labels(s.labels, "le", le) << " "
             << cumulative << "\n";
        }
        os << s.name << "_sum" << s.label_str << " " << format_double(s.hist_sum)
           << "\n";
        os << s.name << "_count" << s.label_str << " " << s.hist_count << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  const std::vector<Sample> samples = snapshot_sorted();
  std::ostringstream os;
  auto emit_kind = [&](Kind kind, const char* array_name) {
    os << "\"" << array_name << "\":[";
    bool first = true;
    for (const Sample& s : samples) {
      if (s.kind != kind) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << escape_json(s.name)
         << "\",\"labels\":" << render_json_labels(s.labels);
      switch (kind) {
        case Kind::kCounter:
          os << ",\"value\":" << s.counter_value;
          break;
        case Kind::kGauge:
          os << ",\"value\":" << format_double(s.gauge_value);
          break;
        case Kind::kHistogram: {
          os << ",\"buckets\":[";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
            cumulative += s.bucket_counts[i];
            if (i) os << ",";
            os << "{\"le\":\""
               << (i < s.bounds.size() ? format_double(s.bounds[i]) : "+Inf")
               << "\",\"count\":" << cumulative << "}";
          }
          os << "],\"sum\":" << format_double(s.hist_sum)
             << ",\"count\":" << s.hist_count;
          // Quantile convenience for scrapers (/statusz, dashboards).
          // Derived from this snapshot's buckets so the three agree with
          // each other; omitted while the histogram is empty or boundless
          // (the estimate would be NaN, which is not valid JSON).
          const double p50 =
              histogram_quantile(s.bounds, s.bucket_counts, 0.50);
          if (!std::isnan(p50)) {
            os << ",\"p50\":" << format_double(p50) << ",\"p95\":"
               << format_double(histogram_quantile(s.bounds, s.bucket_counts,
                                                   0.95))
               << ",\"p99\":"
               << format_double(histogram_quantile(s.bounds, s.bucket_counts,
                                                   0.99));
          }
          break;
        }
      }
      os << "}";
    }
    os << "]";
  };
  os << "{";
  emit_kind(Kind::kCounter, "counters");
  os << ",";
  emit_kind(Kind::kGauge, "gauges");
  os << ",";
  emit_kind(Kind::kHistogram, "histograms");
  os << "}";
  return os.str();
}

}  // namespace ids::telemetry
