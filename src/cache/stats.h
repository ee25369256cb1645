#pragma once

// Cache instrumentation: where did reads get served, what moved where.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ids::cache {

/// The five tiers a read can be served from, in read order (cheapest
/// first); see the read path in manager.h.
enum class ReadTier : std::uint8_t {
  kLocalDram, kLocalSsd, kRemoteDram, kRemoteSsd, kBacking
};
inline constexpr std::size_t kNumReadTiers = 5;

/// Tier names, indexed by ReadTier: the `tier` label of the ids_cache_*
/// series, the keys of CacheStats::to_string() and of a query account's
/// tiers.
inline constexpr std::array<std::string_view, kNumReadTiers> kReadTierNames = {
    "local_dram", "local_ssd", "remote_dram", "remote_ssd", "backing"};

/// One value per read tier, indexed by ReadTier.
template <typename T>
struct PerTier {
  std::array<T, kNumReadTiers> n{};

  T& operator[](ReadTier t) { return n[static_cast<std::size_t>(t)]; }
  const T& operator[](ReadTier t) const {
    return n[static_cast<std::size_t>(t)];
  }
};

struct CacheStats {
  // Read path, by serving tier (backing = the persistent backing store).
  PerTier<std::uint64_t> hits;
  std::uint64_t misses = 0;  // not even in backing: caller recomputes

  // Write / movement path.
  std::uint64_t puts = 0;
  std::uint64_t spills_to_ssd = 0;  // DRAM eviction demoted a copy to SSD
  std::uint64_t ssd_drops = 0;      // SSD eviction dropped a cached copy
  std::uint64_t promotions = 0;     // remote hit copied object to local DRAM

  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  /// Read-path payload bytes by serving tier (they sum to bytes_read).
  PerTier<std::uint64_t> read_bytes;

  /// Counts one read served from `tier`.
  void count_hit(ReadTier tier, std::uint64_t bytes) {
    ++hits[tier];
    bytes_read += bytes;
    read_bytes[tier] += bytes;
  }

  std::uint64_t total_hits() const {
    std::uint64_t total = 0;
    for (std::uint64_t h : hits.n) total += h;
    return total;
  }

  /// Field-wise sum, e.g. of per-rank tallies.
  CacheStats& operator+=(const CacheStats& o);

  /// Field-wise difference against an earlier snapshot of the same
  /// monotonic counters. CacheManager::stats() is implemented as
  /// `live_counters.since(baseline)` — the live counters come from the
  /// telemetry registry and never reset, so reset_stats() just moves the
  /// baseline.
  CacheStats since(const CacheStats& baseline) const;

  std::string to_string() const;
};

}  // namespace ids::cache
