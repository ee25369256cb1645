#pragma once

// Streaming statistics: RunningStats summarizes each span category in the
// trace text report (telemetry::SpanTree::to_text_report); SampleSet
// answers percentile queries over a small stored sample.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace ids {

/// Accumulates count/min/max/mean/variance without storing samples.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    // Welford's online algorithm.
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  void merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    double delta = other.mean_ - mean_;
    std::size_t total = n_ + other.n_;
    m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                           static_cast<double>(other.n_) /
                           static_cast<double>(total);
    mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(total);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ = total;
  }

  std::size_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// One-line summary (`n=5 mean=1.2 min=0.5 max=2 sd=0.6`) for text
  /// reports — telemetry::SpanTree::to_text_report() builds on this.
  std::string to_string() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "n=%zu mean=%.6g min=%.6g max=%.6g sd=%.6g",
                  n_, mean(), min(), max(), stddev());
    return buf;
  }

 private:
  std::size_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Stores samples to answer percentile queries; for small sample sets
/// (per-bench, per-query) where memory is irrelevant.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }

  /// p in [0, 1]; linearly interpolated percentile. Returns 0 when empty.
  /// Sorts the sample buffer lazily on first query and memoizes — the
  /// mutation is invisible to callers (answers are identical), which is
  /// why a const overload below can exist alongside it.
  double percentile(double p) {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    return percentile_sorted(samples_, p);
  }

  /// Const-correct overload for callers holding a `const SampleSet&`.
  /// When the lazy-sorted cache is stale this sorts a copy: O(n log n)
  /// per call with no memoization, so prefer the non-const overload on
  /// repeated queries.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    if (sorted_) return percentile_sorted(samples_, p);
    std::vector<double> copy(samples_);
    std::sort(copy.begin(), copy.end());
    return percentile_sorted(copy, p);
  }

  double median() { return percentile(0.5); }
  double median() const { return percentile(0.5); }

 private:
  static double percentile_sorted(const std::vector<double>& sorted,
                                  double p) {
    double rank = p * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace ids
