#include "telemetry/query_log.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"  // escape_json, format_double

namespace ids::telemetry {

std::string QueryResourceAccount::to_json() const {
  std::ostringstream os;
  os << "{\"sequence\":" << sequence
     << ",\"modeled_seconds\":" << format_double(modeled_seconds)
     << ",\"wall_seconds\":" << format_double(wall_seconds)
     << ",\"divergence_seconds\":" << format_double(divergence_seconds())
     << ",\"rows_gathered\":" << rows_gathered
     << ",\"rows_partitioned\":" << rows_partitioned
     << ",\"udf_invocations\":" << udf_invocations
     << ",\"peak_solution_bytes\":" << peak_solution_bytes
     << ",\"cache_bytes_written\":" << cache_bytes_written
     << ",\"cache_misses\":" << cache_misses << ",\"tiers\":[";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"tier\":\"" << escape_json(tiers[i].tier) << "\",\"bytes_in\":"
       << tiers[i].bytes_in << ",\"hits\":" << tiers[i].hits << '}';
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"stage\":\"" << escape_json(stages[i].stage)
       << "\",\"modeled_seconds\":" << format_double(stages[i].modeled_seconds)
       << ",\"wall_seconds\":" << format_double(stages[i].wall_seconds)
       << ",\"divergence_seconds\":"
       << format_double(stages[i].divergence_seconds()) << '}';
  }
  os << "]}";
  return os.str();
}

QueryLog::QueryLog(std::size_t capacity, std::size_t max_spans)
    : capacity_(capacity), max_spans_(max_spans) {
  IDS_CHECK(capacity_ > 0) << "QueryLog capacity must be positive";
}

std::uint64_t QueryLog::push(QueryRecord record) {
  MutexLock lock(mutex_);
  const std::uint64_t sequence = ++total_pushed_;
  record.account.sequence = sequence;
  entries_.push_back(std::move(record));
  if (entries_.size() > capacity_) entries_.erase(entries_.begin());
  return sequence;
}

std::vector<QueryRecord> QueryLog::snapshot() const {
  MutexLock lock(mutex_);
  return entries_;
}

std::uint64_t QueryLog::total_pushed() const {
  MutexLock lock(mutex_);
  return total_pushed_;
}

std::string QueryLog::accounts_json() const {
  // Copy only the accounts: the span trees can be large and /statusz
  // never renders them.
  std::vector<QueryResourceAccount> accounts;
  std::uint64_t total = 0;
  {
    MutexLock lock(mutex_);
    accounts.reserve(entries_.size());
    for (const QueryRecord& r : entries_) accounts.push_back(r.account);
    total = total_pushed_;
  }
  std::ostringstream os;
  os << "{\"total\":" << total << ",\"recent\":[";
  for (std::size_t i = accounts.size(); i-- > 0;) {
    if (i + 1 != accounts.size()) os << ',';
    os << accounts[i].to_json();
  }
  os << "]}";
  return os.str();
}

std::string QueryLog::traces_text() const {
  std::vector<QueryRecord> entries;
  std::uint64_t total = 0;
  {
    MutexLock lock(mutex_);
    entries = entries_;
    total = total_pushed_;
  }
  std::ostringstream os;
  os << "tracez: " << entries.size() << " of " << total
     << " completed queries retained (capacity " << capacity_ << ")\n";
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    os << "\n=== trace #" << it->account.sequence << " ===\n";
    if (it->trace.spans.empty() && it->trace.dropped == 0) {
      os << "untraced (tracing off)\n";
    } else {
      os << it->trace.to_text_report();
    }
  }
  return os.str();
}

std::string QueryLog::newest_trace_json() const {
  // Copy the tree under the lock and render it after, so a scrape of a
  // large trace never holds up an engine's push.
  SpanTree newest;
  {
    MutexLock lock(mutex_);
    if (!entries_.empty()) newest = entries_.back().trace;
  }
  return newest.to_chrome_json();
}

}  // namespace ids::telemetry
