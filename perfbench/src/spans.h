#pragma once

// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside the engine is instrumented. A
// span's name is "<layer>:<operation>", so self time can be rolled up per
// layer. Spans are kept in memory and written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     // index into the recorder's span list; -1 = root
  std::uint64_t query = 0;  // 0 = not part of a query
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double now() const { return seconds_since(epoch_); }

  /// Opens a span as a child of the innermost open span; `query` 0
  /// inherits the parent's query id. Returns -1 (and records nothing)
  /// while disabled.
  int open(std::string name, std::uint64_t query) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (query == 0 && parent >= 0) {
      query = spans_[static_cast<std::size_t>(parent)].query;
    }
    spans_.push_back({std::move(name), now(), 0.0, parent, query});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records a finished span whose interval the caller already knows.
  void add(std::string name, double start, double end, int parent,
           std::uint64_t query) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start, end, parent, query});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the part of its
  /// interval covered by its children (children never overlap: the
  /// harness is a single closed-loop client).
  std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const double lo = s.start > p.start ? s.start : p.start;
      const double hi = s.end < p.end ? s.end : p.end;
      if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double self = (s.end - s.start) - covered[i];
      out[s.name.substr(0, s.name.find(':'))] += self > 0.0 ? self : 0.0;
    }
    return out;
  }

  /// Chrome trace_event JSON (complete events; load in Perfetto).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"query\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent,
                   static_cast<unsigned long long>(s.query));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t query = 0)
      : rec_(rec), id_(rec.open(std::move(name), query)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
