#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/stats.h"
#include "telemetry/metrics.h"

namespace ids::telemetry {

namespace {

/// Microseconds with nanosecond resolution kept as three decimals, so the
/// trace timeline is exact for integer-nanosecond modeled times.
std::string micros_str(sim::Nanos ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanId SpanTree::append(std::vector<Span> batch, SpanId parent,
                        std::size_t cap) {
  const auto base = static_cast<SpanId>(spans.size());
  const std::size_t room = cap > spans.size() ? cap - spans.size() : 0;
  if (batch.size() > room) {
    dropped += batch.size() - room;
    batch.resize(room);
  }
  for (Span& span : batch) {
    span.id += base;
    span.parent = span.parent == kNoSpan ? parent : span.parent + base;
    spans.push_back(std::move(span));
  }
  return batch.empty() ? kNoSpan : base + 1;
}

Span* SpanTree::find(SpanId id) {
  if (id == kNoSpan || id > spans.size()) return nullptr;
  return &spans[id - 1];
}

std::string SpanTree::to_chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  // Metadata events: process name + one named thread per timeline seen.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"ids-engine (modeled time)\"}}";
  std::vector<int> ranks;
  bool engine_timeline = false;
  for (const Span& s : spans) {
    if (s.rank < 0) {
      engine_timeline = true;
    } else if (std::find(ranks.begin(), ranks.end(), s.rank) == ranks.end()) {
      ranks.push_back(s.rank);
    }
  }
  std::sort(ranks.begin(), ranks.end());
  if (engine_timeline) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
          "\"args\":{\"name\":\"engine\"}}";
  }
  for (int r : ranks) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << (r + 1) << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  for (const Span& s : spans) {
    const sim::Nanos end = std::max(s.virt_end, s.virt_start);
    os << ",\n{\"name\":\"" << escape_json(s.name) << "\",\"cat\":\""
       << escape_json(s.category) << "\",\"ph\":\"X\",\"ts\":"
       << micros_str(s.virt_start) << ",\"dur\":"
       << micros_str(end - s.virt_start) << ",\"pid\":0,\"tid\":"
       << (s.rank + 1) << ",\"args\":{\"span_id\":" << s.id
       << ",\"parent_id\":" << s.parent << ",\"modeled_ns\":"
       << (end - s.virt_start) << ",\"wall_ns\":"
       << (s.wall_end_ns >= s.wall_start_ns ? s.wall_end_ns - s.wall_start_ns
                                            : 0);
    for (const auto& [k, v] : s.attrs) {
      os << ",\"" << escape_json(k) << "\":\"" << escape_json(v) << "\"";
    }
    os << "}}";
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
     << dropped << "}}\n";
  return os.str();
}

std::string SpanTree::to_text_report() const {
  // Children lists in recording order; parent id < child id always holds.
  std::vector<std::vector<std::size_t>> children(spans.size() + 1);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanId p = spans[i].parent;
    if (p == kNoSpan || p > spans.size()) {
      roots.push_back(i);
    } else {
      children[p].push_back(i);
    }
  }
  std::ostringstream os;
  os << "trace: " << spans.size() << " spans";
  if (dropped > 0) os << " (" << dropped << " dropped)";
  os << "\n";
  std::map<std::string, RunningStats> by_category;
  // Explicit stack instead of recursion: traces can be 4+ levels deep but
  // also 64k spans wide.
  std::vector<std::pair<std::size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [i, depth] = stack.back();
    stack.pop_back();
    const Span& s = spans[i];
    by_category[s.category].add(sim::to_seconds(s.virt_duration()));
    std::string label(static_cast<std::size_t>(depth) * 2, ' ');
    label += s.name;
    if (s.rank >= 0) label += " [rank " + std::to_string(s.rank) + "]";
    char line[160];
    std::snprintf(line, sizeof(line), "%-48s modeled %12.6fs  wall %10.3fms",
                  label.c_str(), sim::to_seconds(s.virt_duration()),
                  static_cast<double>(s.wall_end_ns >= s.wall_start_ns
                                          ? s.wall_end_ns - s.wall_start_ns
                                          : 0) /
                      1e6);
    os << line;
    if (!s.attrs.empty()) {
      os << "  [";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        if (a) os << " ";
        os << s.attrs[a].first << "=" << s.attrs[a].second;
      }
      os << "]";
    }
    os << "\n";
    const auto& kids = children[i + 1];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  os << "by category (modeled seconds):\n";
  for (const auto& [category, stats] : by_category) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-10s %s\n", category.c_str(),
                  stats.to_string().c_str());
    os << line;
  }
  return os.str();
}

}  // namespace ids::telemetry
