#include "udf/profiler.h"

#include <algorithm>

#include "common/check.h"

namespace ids::udf {

std::size_t ProfileSnapshot::index_of(std::string_view name) const {
  auto it = std::find(names_.begin(), names_.end(), name);
  IDS_CHECK(it != names_.end()) << "UDF " << name << " is not in the snapshot";
  return static_cast<std::size_t>(it - names_.begin());
}

double ProfileSnapshot::estimated_cost_seconds(int rank,
                                               std::string_view name) const {
  const double agg_mean = aggregate(name).mean_cost_seconds();
  const UdfStats& s = get(rank, name);
  if (s.execs == 0) return agg_mean;
  const double w =
      std::min(1.0, static_cast<double>(s.execs) /
                        static_cast<double>(UdfProfiler::kFullConfidenceExecs));
  return (1.0 - w) * agg_mean + w * s.mean_cost_seconds();
}

ProfileSnapshot UdfProfiler::snapshot(
    const std::vector<std::string>& names) const {
  ProfileSnapshot snap;
  for (const std::string& n : names) {
    if (std::find(snap.names_.begin(), snap.names_.end(), n) ==
        snap.names_.end()) {
      snap.names_.push_back(n);
    }
  }
  const std::size_t u = snap.names_.size();
  snap.per_rank_.resize(per_rank_.size() * u);
  snap.aggregate_.resize(u);
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    Shard& shard = per_rank_[r];
    MutexLock lock(shard.mutex);
    for (std::size_t i = 0; i < u; ++i) {
      auto it = shard.stats.find(snap.names_[i]);
      if (it == shard.stats.end()) continue;
      snap.per_rank_[r * u + i] = it->second;
      snap.aggregate_[i].merge(it->second);
    }
  }
  return snap;
}

}  // namespace ids::udf
