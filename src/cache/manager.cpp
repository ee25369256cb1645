#include "cache/manager.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/profiler.h"

namespace ids::cache {

namespace {

/// The tier a copy at `loc` is read from by a reader on `reader`.
ReadTier read_tier(const Location& loc, int reader) {
  const bool local = loc.node == reader;
  if (loc.tier == TierKind::kDram) {
    return local ? ReadTier::kLocalDram : ReadTier::kRemoteDram;
  }
  return local ? ReadTier::kLocalSsd : ReadTier::kRemoteSsd;
}

/// Modeled transfer time of a `size`-byte read served from `tier`. A DRAM
/// read by get() is charged by the FAM layer itself.
sim::Nanos read_cost(const sim::FabricParams& f, ReadTier tier,
                     std::uint64_t size) {
  switch (tier) {
    case ReadTier::kLocalDram: return f.intra_node.transfer_cost(size);
    case ReadTier::kLocalSsd: return f.local_ssd.transfer_cost(size);
    case ReadTier::kRemoteDram: return f.inter_node.transfer_cost(size);
    case ReadTier::kRemoteSsd:
      return f.local_ssd.transfer_cost(size) + f.inter_node.transfer_cost(size);
    case ReadTier::kBacking: break;
  }
  return f.backing_store.transfer_cost(size);
}

/// Distinct default instance label per cache in construction order, so two
/// caches sharing the global registry never merge their counters.
std::string next_cache_name() {
  static std::atomic<int> seq{0};
  return "cache" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

CacheManager::CacheManager(CacheConfig config)
    : config_(std::move(config)),
      nodes_(static_cast<std::size_t>(config_.num_nodes)) {
  IDS_CHECK(config_.num_nodes > 0);
  if (config_.name.empty()) config_.name = next_cache_name();
  auto& registry = config_.metrics != nullptr
                       ? *config_.metrics
                       : telemetry::MetricsRegistry::global();
  for (std::size_t i = 0; i < kNumReadTiers; ++i) {
    const telemetry::LabelSet labels = {
        {"cache", config_.name}, {"tier", std::string(kReadTierNames[i])}};
    tele_.hits.n[i] = registry.counter("ids_cache_hits_total", labels);
    tele_.read_bytes.n[i] =
        registry.counter("ids_cache_tier_read_bytes_total", labels);
  }
  auto cache_counter = [&](const char* metric) {
    return registry.counter(metric, {{"cache", config_.name}});
  };
  tele_.misses = cache_counter("ids_cache_misses_total");
  tele_.puts = cache_counter("ids_cache_puts_total");
  tele_.spills_to_ssd = cache_counter("ids_cache_spills_total");
  tele_.ssd_drops = cache_counter("ids_cache_ssd_drops_total");
  tele_.promotions = cache_counter("ids_cache_promotions_total");
  tele_.bytes_read = cache_counter("ids_cache_read_bytes_total");
  tele_.bytes_written = cache_counter("ids_cache_written_bytes_total");

  fam::FamOptions fam_opts;
  fam_opts.server_nodes.resize(static_cast<std::size_t>(config_.num_nodes));
  std::iota(fam_opts.server_nodes.begin(), fam_opts.server_nodes.end(), 0);
  fam_opts.server_capacity_bytes = config_.dram_capacity_bytes;
  fam_opts.fabric = config_.fabric;
  fam_opts.metrics = config_.metrics;
  fam_ = std::make_unique<fam::FamService>(std::move(fam_opts));
}

CacheStats CacheManager::counters_snapshot() const {
  CacheStats s;
  for (std::size_t i = 0; i < kNumReadTiers; ++i) {
    s.hits.n[i] = tele_.hits.n[i]->value();
    s.read_bytes.n[i] = tele_.read_bytes.n[i]->value();
  }
  s.misses = tele_.misses->value();
  s.puts = tele_.puts->value();
  s.spills_to_ssd = tele_.spills_to_ssd->value();
  s.ssd_drops = tele_.ssd_drops->value();
  s.promotions = tele_.promotions->value();
  s.bytes_read = tele_.bytes_read->value();
  s.bytes_written = tele_.bytes_written->value();
  return s;
}

CacheStats CacheManager::stats() const {
  MutexLock lock(mutex_);
  return counters_snapshot().since(baseline_);
}

void CacheManager::reset_stats() {
  MutexLock lock(mutex_);
  baseline_ = counters_snapshot();
}

void CacheManager::check_node(int node) const {
  IDS_CHECK(node >= 0 && node < config_.num_nodes)
      << "cache node " << node << " outside [0, " << config_.num_nodes
      << ")";
}

std::string CacheManager::fam_name(ObjectId id, int node) {
  return "cache/" + std::to_string(id.value) + "/" + std::to_string(node);
}

void CacheManager::charge_serialization(sim::VirtualClock& clock) {
  if (config_.serialization_service_seconds <= 0.0) return;
  // Per-operation (de)serialization latency on the caller. The *shared-
  // server queueing* effect of the single serialization service (which
  // caps aggregate throughput at 1/service ops/s) is modeled by the query
  // engine at stage level, where virtual arrival times are known — a
  // stateful queue here would be order-sensitive with respect to the
  // thread-pool execution order of ranks and break virtual-time causality.
  clock.advance(sim::from_seconds(config_.serialization_service_seconds));
}

void CacheManager::charge_directory_lookup(sim::VirtualClock& clock, int node,
                                           ObjectId id) const {
  if (directory_node(id) == node) return;
  // Small-message metadata round trip over the fabric.
  clock.advance(config_.fabric.inter_node.transfer_cost(64) * 2);
}

bool CacheManager::read_dram_copy(sim::VirtualClock& clock, int reader_node,
                                  int owner_node, const Meta& meta,
                                  std::string* out) const {
  auto desc = fam_->lookup(fam_name(object_id(meta.name), owner_node));
  if (!desc.ok()) return false;
  out->resize(meta.size);
  Status st = fam_->get(clock, reader_node, desc.value(), 0,
                        std::as_writable_bytes(std::span(*out)));
  return st.ok();
}

void CacheManager::drop_copy(ObjectId id, Meta& meta, const Location& loc) {
  node_state(loc.node).tier(loc.tier).erase(id);
  if (loc.tier == TierKind::kDram) {
    // The FAM region may already be gone after fail_node(); either way
    // the copy record is dropped below.
    IDS_IGNORE_ERROR(fam_->deallocate(fam_name(id, loc.node)));
  }
  meta.copies.erase(std::remove(meta.copies.begin(), meta.copies.end(), loc),
                    meta.copies.end());
}

Status CacheManager::make_room(sim::VirtualClock& clock, int node,
                               TierKind kind, std::uint64_t size) {
  TierLru& lru = node_state(node).tier(kind);
  const std::uint64_t capacity = kind == TierKind::kDram
                                     ? config_.dram_capacity_bytes
                                     : config_.ssd_capacity_bytes;
  while (lru.used() + size > capacity && !lru.empty()) {
    const ObjectId victim = lru.lru();
    auto dit = directory_.find(victim);
    if (dit == directory_.end()) {
      // The directory lost track of the LRU victim. Recover by dropping
      // the orphaned entry, so no caller loops on the same victim.
      lru.erase(victim);
      return Status::Internal("LRU victim missing from cache directory");
    }
    Meta& meta = dit->second;
    if (kind == TierKind::kSsd) {
      drop_copy(victim, meta, Location{node, kind});
      tele_.ssd_drops->inc();
      continue;
    }
    // Demote to the same node's SSD (spill), or drop if SSD is disabled.
    std::string payload;
    sim::VirtualClock scratch;  // local DRAM read folded into the SSD charge
    bool have = read_dram_copy(scratch, node, node, meta, &payload);
    drop_copy(victim, meta, Location{node, kind});
    if (have && config_.enable_ssd && meta.size <= config_.ssd_capacity_bytes) {
      clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size));
      RETURN_IF_ERROR(
          insert_ssd(clock, node, victim, meta, std::move(payload)));
      tele_.spills_to_ssd->inc();
    }
  }
  return Status::Ok();
}

Status CacheManager::insert_ssd(sim::VirtualClock& clock, int node,
                                ObjectId id, Meta& meta, std::string payload) {
  // Policy skips (tier disabled, object larger than the tier) are not
  // errors: the object simply stays wherever it already is.
  if (!config_.enable_ssd || meta.size > config_.ssd_capacity_bytes) {
    return Status::Ok();
  }
  TierLru& ssd = node_state(node).ssd;
  if (ssd.find(id) != nullptr) return Status::Ok();  // already there
  RETURN_IF_ERROR(make_room(clock, node, TierKind::kSsd, meta.size));
  if (ssd.used() + meta.size > config_.ssd_capacity_bytes) {
    return Status::Ok();
  }
  ssd.insert(id, meta.size, std::move(payload));
  meta.copies.push_back(Location{node, TierKind::kSsd});
  return Status::Ok();
}

Status CacheManager::insert_dram(sim::VirtualClock& clock, int node,
                                 ObjectId id, Meta& meta,
                                 const std::string& payload) {
  if (meta.size > config_.dram_capacity_bytes) {
    // Too big for the DRAM tier entirely; go straight to SSD.
    return insert_ssd(clock, node, id, meta, payload);
  }
  TierLru& dram = node_state(node).dram;
  if (dram.find(id) != nullptr) return Status::Ok();  // already resident
  RETURN_IF_ERROR(make_room(clock, node, TierKind::kDram, meta.size));
  auto desc = fam_->allocate(fam_name(id, node), meta.size, node);
  if (!desc.ok()) return desc.status();
  Status st = fam_->put(clock, node, desc.value(), 0,
                        std::as_bytes(std::span(payload)));
  if (!st.ok()) {
    IDS_IGNORE_ERROR(fam_->deallocate(fam_name(id, node)));
    return st;
  }
  dram.insert(id, meta.size);
  meta.copies.push_back(Location{node, TierKind::kDram});
  return Status::Ok();
}

void CacheManager::put(sim::VirtualClock& clock, int node,
                       std::string_view name, std::string payload,
                       PlacementHint hint) {
  telemetry::ProfileScope profile_scope("cache.put");
  check_node(node);
  // Serialize the artifact *before* entering the critical section: the
  // serialization service is a shared blocking server (the paper's §8
  // bottleneck) and must not stall every other cache client behind
  // mutex_. Virtual-clock advances commute, so the modeled total is
  // unchanged.
  charge_serialization(clock);

  MutexLock lock(mutex_);
  ObjectId id = object_id(name);
  charge_directory_lookup(clock, node, id);

  auto [it, inserted] = directory_.try_emplace(id);
  Meta& meta = it->second;
  if (!inserted) {
    // Overwrite: drop all existing copies first.
    while (!meta.copies.empty()) drop_copy(id, meta, meta.copies.front());
  }
  meta.name = std::string(name);
  meta.size = payload.size();

  if (config_.write_through) {
    clock.advance(config_.fabric.backing_store.transfer_cost(payload.size()));
    backing_[id] = payload;
    meta.in_backing = true;
  }

  int target = hint.target_node >= 0 ? hint.target_node : node;
  target = std::min(std::max(target, 0), config_.num_nodes - 1);
  Status placed = insert_dram(clock, target, id, meta, payload);
  if (!placed.ok()) {
    // Degraded but recoverable: the object is still authoritative in the
    // backing store (write_through) and will re-cache on a later get().
    IDS_WARN << "cache put of " << meta.name
             << " left uncached: " << placed.to_string();
  }

  tele_.puts->inc();
  tele_.bytes_written->inc(payload.size());
}

CacheRead CacheManager::get(sim::VirtualClock& clock, int node,
                            std::string_view name) {
  telemetry::ProfileScope profile_scope("cache.get");
  check_node(node);
  CacheRead hit;
  {
    MutexLock lock(mutex_);
    hit = get_locked(clock, node, name);
  }
  // Deserialize the fetched artifact outside the critical section (see
  // charge_serialization: the shared service blocks, and every hit tier
  // pays exactly one deserialization). Advances commute, so hoisting the
  // charge out of get_locked leaves the modeled total bit-identical.
  if (hit.has_value()) charge_serialization(clock);
  return hit;
}

CacheRead CacheManager::get_locked(sim::VirtualClock& clock, int node,
                                   std::string_view name) {
  ObjectId id = object_id(name);
  charge_directory_lookup(clock, node, id);

  auto it = directory_.find(id);
  if (it == directory_.end()) {
    tele_.misses->inc();
    return {};
  }
  Meta& meta = it->second;
  // Counts a read served from `tier` and hands the payload over.
  auto served = [&](ReadTier tier, std::string payload) {
    tele_.hits[tier]->inc();
    tele_.bytes_read->inc(meta.size);
    tele_.read_bytes[tier]->inc(meta.size);
    return CacheRead{std::move(payload), tier};
  };

  // 1-4. The cached tiers in read order, each read from its
  // lowest-numbered owner (deterministic); a tier whose read fails falls
  // through to the next.
  PerTier<int> owner;
  owner.n.fill(-1);
  for (const auto& loc : meta.copies) {
    int& o = owner[read_tier(loc, node)];
    if (o < 0 || loc.node < o) o = loc.node;
  }
  std::string payload;
  for (ReadTier tier : {ReadTier::kLocalDram, ReadTier::kLocalSsd,
                        ReadTier::kRemoteDram, ReadTier::kRemoteSsd}) {
    const bool dram =
        tier == ReadTier::kLocalDram || tier == ReadTier::kRemoteDram;
    const Location loc{owner[tier], dram ? TierKind::kDram : TierKind::kSsd};
    if (loc.node < 0) continue;
    TierLru& lru = node_state(loc.node).tier(loc.tier);
    if (dram) {
      if (!read_dram_copy(clock, node, loc.node, meta, &payload)) continue;
    } else if (const std::string* bytes = lru.find(id)) {
      payload = *bytes;
      clock.advance(read_cost(config_.fabric, tier, meta.size));
    } else {
      // Stale copy record (bytes vanished): drop it and read on.
      drop_copy(id, meta, loc);
      continue;
    }
    lru.touch(id);
    if (loc.node != node && config_.promote_on_remote_hit) {
      // Best-effort: a failed promotion still served the read.
      IDS_IGNORE_ERROR(insert_dram(clock, node, id, meta, payload));
      tele_.promotions->inc();
    }
    return served(tier, std::move(payload));
  }

  // 5. Backing store (authoritative). Re-populate the reader's DRAM so a
  // failed node's working set rebuilds as it is touched.
  if (meta.in_backing) {
    auto bit = backing_.find(id);
    if (bit != backing_.end()) {
      payload = bit->second;
      clock.advance(read_cost(config_.fabric, ReadTier::kBacking, meta.size));
      // Best-effort re-population of the reader's DRAM.
      IDS_IGNORE_ERROR(insert_dram(clock, node, id, meta, payload));
      return served(ReadTier::kBacking, std::move(payload));
    }
    // in_backing flag with no backing bytes: treat as the miss it is.
    meta.in_backing = false;
  }

  tele_.misses->inc();
  return {};
}

bool CacheManager::contains(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return false;
  return !it->second.copies.empty() || it->second.in_backing;
}

std::vector<Location> CacheManager::locations(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return {};
  return it->second.copies;
}

sim::Nanos CacheManager::estimated_get_cost(int node,
                                            std::string_view name) const {
  check_node(node);
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return std::numeric_limits<sim::Nanos>::max();
  const Meta& meta = it->second;
  sim::Nanos best =
      meta.in_backing
          ? read_cost(config_.fabric, ReadTier::kBacking, meta.size)
          : std::numeric_limits<sim::Nanos>::max();
  for (const auto& loc : meta.copies) {
    best = std::min(best,
                    read_cost(config_.fabric, read_tier(loc, node), meta.size));
  }
  return best;
}

int CacheManager::nearest_node_with(std::string_view name,
                                    int from_node) const {
  check_node(from_node);
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return -1;
  // Copies rank in read order; ties go to the lower node id.
  int best = -1;
  ReadTier best_tier = ReadTier::kBacking;
  for (const auto& loc : it->second.copies) {
    const ReadTier tier = read_tier(loc, from_node);
    if (best < 0 || tier < best_tier ||
        (tier == best_tier && loc.node < best)) {
      best_tier = tier;
      best = loc.node;
    }
  }
  return best;
}

void CacheManager::fail_node(int node) {
  check_node(node);
  MutexLock lock(mutex_);
  // Abrupt loss of the node's fabric-attached DRAM and local SSD.
  fam_->fail_server(node);
  fam_->recover_server(node);
  node_state(node) = NodeState{};
  for (auto& [id, meta] : directory_) {
    meta.copies.erase(
        std::remove_if(meta.copies.begin(), meta.copies.end(),
                       [node](const Location& l) { return l.node == node; }),
        meta.copies.end());
  }
}

void CacheManager::invalidate(std::string_view name) {
  MutexLock lock(mutex_);
  ObjectId id = object_id(name);
  auto it = directory_.find(id);
  if (it == directory_.end()) return;
  Meta& meta = it->second;
  while (!meta.copies.empty()) drop_copy(id, meta, meta.copies.front());
  backing_.erase(id);
  directory_.erase(it);
}

void CacheManager::relocate(sim::VirtualClock& clock, std::string_view name,
                            int target_node) {
  check_node(target_node);
  MutexLock lock(mutex_);
  ObjectId id = object_id(name);
  auto it = directory_.find(id);
  if (it == directory_.end()) return;
  Meta& meta = it->second;
  int owner = -1;
  for (const auto& loc : meta.copies) {
    if (loc.tier == TierKind::kDram) {
      owner = loc.node;
      break;
    }
  }
  if (owner < 0 || owner == target_node) return;
  std::string payload;
  if (!read_dram_copy(clock, target_node, owner, meta, &payload)) return;
  drop_copy(id, meta, Location{owner, TierKind::kDram});
  Status moved = insert_dram(clock, target_node, id, meta, payload);
  if (!moved.ok()) {
    IDS_WARN << "cache relocate of " << meta.name
             << " dropped the DRAM copy: " << moved.to_string();
  }
}

std::uint64_t CacheManager::dram_used(int node) const {
  check_node(node);
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].dram.used();
}

std::uint64_t CacheManager::ssd_used(int node) const {
  check_node(node);
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].ssd.used();
}

std::size_t CacheManager::num_objects() const {
  MutexLock lock(mutex_);
  return directory_.size();
}

}  // namespace ids::cache
