#include "cache/stats.h"

#include <sstream>

namespace ids::cache {

namespace {

/// Applies `op(a_field, b_field)` to every counter of the two stats.
template <typename Op>
void zip(CacheStats& a, const CacheStats& b, Op op) {
  for (std::size_t i = 0; i < kNumReadTiers; ++i) {
    op(a.hits.n[i], b.hits.n[i]);
    op(a.read_bytes.n[i], b.read_bytes.n[i]);
  }
  for (auto field : {&CacheStats::misses, &CacheStats::puts,
                     &CacheStats::spills_to_ssd, &CacheStats::ssd_drops,
                     &CacheStats::promotions, &CacheStats::bytes_read,
                     &CacheStats::bytes_written}) {
    op(a.*field, b.*field);
  }
}

}  // namespace

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  zip(*this, o, [](std::uint64_t& x, std::uint64_t y) { x += y; });
  return *this;
}

CacheStats CacheStats::since(const CacheStats& baseline) const {
  CacheStats d = *this;
  zip(d, baseline, [](std::uint64_t& x, std::uint64_t y) { x -= y; });
  return d;
}

std::string CacheStats::to_string() const {
  std::ostringstream os;
  os << "hits{";
  for (std::size_t i = 0; i < kNumReadTiers; ++i) {
    os << (i > 0 ? " " : "") << kReadTierNames[i] << "=" << hits.n[i];
  }
  os << "} misses=" << misses << " puts=" << puts
     << " spills=" << spills_to_ssd << " ssd_drops=" << ssd_drops
     << " promotions=" << promotions << " bytes{r=" << bytes_read
     << " w=" << bytes_written << "}";
  return os.str();
}

}  // namespace ids::cache
