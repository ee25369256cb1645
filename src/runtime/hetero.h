#pragma once

// Per-rank performance heterogeneity.
//
// Section 2.4.2 of the paper motivates throughput-based solution
// re-balancing with ranks whose UDF throughput differs because of "node
// hardware and differences in the sub-graph within each rank's data shard".
// A HeteroProfile injects exactly that: a relative speed multiplier per
// rank (1.0 = nominal). Modeled compute time for a rank divides by its
// speed factor.

#include <cstdint>
#include <utility>
#include <vector>

namespace ids::runtime {

class HeteroProfile {
 public:
  HeteroProfile() = default;
  explicit HeteroProfile(std::vector<double> speed) : speed_(std::move(speed)) {}

  /// All ranks identical at speed `s`.
  static HeteroProfile uniform(int num_ranks, double s = 1.0);

  /// Blocks of ranks with distinct speeds, e.g. the paper's worked example
  /// {500 ranks @1x, 300 @2x, 100 @3x}.
  static HeteroProfile groups(const std::vector<std::pair<int, double>>& blocks);

  /// Speeds drawn uniformly in [lo, hi], deterministic in `seed`.
  static HeteroProfile random(int num_ranks, double lo, double hi,
                              std::uint64_t seed);

  int num_ranks() const { return static_cast<int>(speed_.size()); }

  /// Relative speed of `rank`; 1.0 if the profile is empty (homogeneous).
  /// Unchecked: IdsEngine's constructor requires a non-empty profile to
  /// cover every rank of its topology, with every speed above 0.
  double at(int rank) const {
    if (speed_.empty()) return 1.0;
    return speed_[static_cast<std::size_t>(rank)];
  }

  double min_speed() const;
  double max_speed() const;

  const std::vector<double>& speeds() const { return speed_; }

 private:
  std::vector<double> speed_;
};

}  // namespace ids::runtime
