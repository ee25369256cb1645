#include "udf/profiler.h"

#include <algorithm>

#include "common/check.h"

namespace ids::udf {

namespace {
const UdfStats kNoStats{};
}  // namespace

ProfileTable::ProfileTable(const std::vector<std::string>& names,
                           int num_ranks)
    : num_ranks_(num_ranks) {
  for (const std::string& n : names) {
    if (index_of(n) == npos) names_.push_back(n);
  }
  per_rank_.resize(static_cast<std::size_t>(num_ranks) * names_.size());
  aggregate_.resize(names_.size());
}

std::size_t ProfileTable::index_of(std::string_view name) const {
  auto it = std::find(names_.begin(), names_.end(), name);
  return it == names_.end() ? npos
                            : static_cast<std::size_t>(it - names_.begin());
}

const UdfStats& ProfileTable::get(int rank, std::string_view name) const {
  const std::size_t i = index_of(name);
  if (i == npos) return kNoStats;
  return per_rank_[static_cast<std::size_t>(rank) * names_.size() + i];
}

const UdfStats& ProfileTable::aggregate(std::string_view name) const {
  const std::size_t i = index_of(name);
  return i == npos ? kNoStats : aggregate_[i];
}

double ProfileTable::estimated_cost_seconds(int rank,
                                            std::string_view name) const {
  const double agg_mean = aggregate(name).mean_cost_seconds();
  const UdfStats& s = get(rank, name);
  if (s.execs == 0) return agg_mean;
  const double w =
      std::min(1.0, static_cast<double>(s.execs) /
                        static_cast<double>(UdfProfiler::kFullConfidenceExecs));
  return (1.0 - w) * agg_mean + w * s.mean_cost_seconds();
}

std::span<UdfStats> ProfileTable::row(int rank) {
  return std::span<UdfStats>(per_rank_)
      .subspan(static_cast<std::size_t>(rank) * names_.size(), names_.size());
}

void ProfileTable::sum_ranks() {
  std::fill(aggregate_.begin(), aggregate_.end(), UdfStats{});
  for (std::size_t c = 0; c < per_rank_.size(); ++c) {
    aggregate_[c % names_.size()].merge(per_rank_[c]);
  }
}

void ProfileTable::add(const ProfileTable& other) {
  IDS_CHECK(other.num_ranks_ == num_ranks_) << "rank counts differ";
  if (std::any_of(other.names_.begin(), other.names_.end(),
                  [&](const std::string& n) { return index_of(n) == npos; })) {
    std::vector<std::string> all = names_;
    all.insert(all.end(), other.names_.begin(), other.names_.end());
    *this = select(all);
  }
  const std::size_t u = names_.size();
  const std::size_t v = other.names_.size();
  for (std::size_t k = 0; k < v; ++k) {
    const std::size_t i = index_of(other.names_[k]);
    for (std::size_t r = 0; r < static_cast<std::size_t>(num_ranks_); ++r) {
      per_rank_[r * u + i].merge(other.per_rank_[r * v + k]);
      aggregate_[i].merge(other.per_rank_[r * v + k]);
    }
  }
}

ProfileTable ProfileTable::select(const std::vector<std::string>& names) const {
  ProfileTable out(names, num_ranks_);
  const std::size_t u = out.names_.size();
  for (std::size_t k = 0; k < u; ++k) {
    const std::size_t i = index_of(out.names_[k]);
    if (i == npos) continue;
    out.aggregate_[k] = aggregate_[i];
    for (std::size_t r = 0; r < static_cast<std::size_t>(num_ranks_); ++r) {
      out.per_rank_[r * u + k] = per_rank_[r * names_.size() + i];
    }
  }
  return out;
}

void UdfProfiler::publish(const ProfileTable& tally) {
  MutexLock lock(mutex_);
  table_.add(tally);
}

ProfileTable UdfProfiler::snapshot(const std::vector<std::string>& names) const {
  MutexLock lock(mutex_);
  return table_.select(names);
}

UdfStats UdfProfiler::aggregate(std::string_view name) const {
  MutexLock lock(mutex_);
  return table_.aggregate(name);
}

void UdfProfiler::clear() {
  MutexLock lock(mutex_);
  table_ = ProfileTable({}, num_ranks_);
}

}  // namespace ids::udf
