#pragma once

// The globally shared, multi-tier, client-side cache (§3).
//
// Every cluster node (compute and dedicated memory nodes alike) contributes
// DRAM and optionally local SSD to a single cluster-wide cache. The DRAM
// tier is fabric-attached memory served through the OpenFAM layer
// (src/fam), so remote hits pay real RDMA-modelled costs and locality is a
// first-class, queryable property. When DRAM fills, least-recently-used
// objects spill to the owner node's SSD tier; when SSD fills, copies are
// dropped — authoritative data always remains in the persistent backing
// store (the DAOS/Lustre stand-in), so a node failure loses only cached
// copies, never data.
//
// Read path (cheapest first): local DRAM -> local SSD -> remote DRAM ->
// remote SSD -> backing store -> miss (caller recomputes and put()s).
// Metadata lives in a directory sharded by object id across nodes; a
// lookup whose directory shard is remote pays a small-message round trip.

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/object_id.h"
#include "cache/stats.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "fam/fam.h"
#include "sim/fabric.h"
#include "sim/virtual_clock.h"
#include "telemetry/metrics.h"

namespace ids::cache {

enum class TierKind { kDram, kSsd };

struct Location {
  int node = -1;
  TierKind tier = TierKind::kDram;
  friend bool operator==(const Location&, const Location&) = default;
};

struct CacheConfig {
  int num_nodes = 1;
  std::uint64_t dram_capacity_bytes = 8ull << 20;
  std::uint64_t ssd_capacity_bytes = 64ull << 20;
  sim::FabricParams fabric;
  /// Write puts through to the backing store (authoritative copy).
  bool write_through = true;
  /// Copy an object into the reader's local DRAM after a remote hit.
  bool promote_on_remote_hit = false;
  /// Disables the SSD tier entirely (DRAM evictions drop instead of spill).
  bool enable_ssd = true;
  /// Serialization/deserialization service time per cached artifact,
  /// modeled as a single shared server: concurrent requests queue. The
  /// paper calls this out explicitly ("Significant latency is incurred due
  /// to the serialization required to stash objects", §8) and it is what
  /// makes cached query time grow linearly with candidate count in
  /// Table 2. 0 disables the bottleneck.
  double serialization_service_seconds = 0.0;
  /// Registry the manager reports ids_cache_* metrics into; nullptr means
  /// telemetry::MetricsRegistry::global().
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Instance label on every metric (`cache="..."`), so multiple caches
  /// (e.g. the two clusters of a CrossClusterBridge) stay distinguishable
  /// in one registry. Empty = auto-assigned "cache<N>".
  std::string name;
};

/// What a get() found: the payload, and the tier that served it.
struct CacheRead {
  std::optional<std::string> payload;  // nullopt = total miss
  ReadTier tier = ReadTier::kBacking;  // meaningful only on a hit
  bool has_value() const { return payload.has_value(); }
};

/// Placement hint for put(): pin the first copy to a specific node
/// ("user-provided hints or operator-defined policies", §3.2).
struct PlacementHint {
  int target_node = -1;  // -1: the writing node
};

/// Every node id passed in must lie in [0, num_nodes), or the call aborts;
/// put()'s placement hint alone is clamped into range.
class CacheManager {
 public:
  explicit CacheManager(CacheConfig config);

  const CacheConfig& config() const { return config_; }

  /// Stores `payload` under `name`, cached on the hint node (default: the
  /// caller's node) and written through to backing storage. Charges
  /// `clock` for every modeled transfer. Overwrites any existing object.
  void put(sim::VirtualClock& clock, int node, std::string_view name,
           std::string payload, PlacementHint hint = {}) IDS_EXCLUDES(mutex_);

  /// Fetches the object, charging `clock` for the cheapest available path,
  /// and says which tier served it. A total miss (not cached anywhere and
  /// not in the backing store) has no payload; the caller is expected to
  /// recompute and put().
  CacheRead get(sim::VirtualClock& clock, int node, std::string_view name)
      IDS_EXCLUDES(mutex_);

  /// True if a get() would succeed (any tier or backing store).
  bool contains(std::string_view name) const IDS_EXCLUDES(mutex_);

  /// Locality query: where are copies of this object right now? Used by
  /// schedulers to co-locate computation with data (§3.2).
  std::vector<Location> locations(std::string_view name) const
      IDS_EXCLUDES(mutex_);

  /// The cheapest node to read the object from `from_node`'s perspective,
  /// or -1 if the object is only in the backing store / absent.
  int nearest_node_with(std::string_view name, int from_node) const
      IDS_EXCLUDES(mutex_);

  /// Modeled cost of a get() issued from `node` right now, without
  /// performing it (no stats, no LRU effect). Schedulers use this to
  /// co-locate computation with data (§3.2 / §8). Returns the recompute
  /// sentinel sim::Nanos max for objects that are absent everywhere.
  sim::Nanos estimated_get_cost(int node, std::string_view name) const
      IDS_EXCLUDES(mutex_);

  /// Drops every cached copy held by `node` (its DRAM region on the FAM
  /// server and its SSD). Backing-store contents are unaffected; the next
  /// get() re-populates from backing, which is the paper's recovery story.
  void fail_node(int node) IDS_EXCLUDES(mutex_);

  /// Removes the object from all tiers and the backing store.
  void invalidate(std::string_view name) IDS_EXCLUDES(mutex_);

  /// Explicitly relocates an object's DRAM copy to `target_node`
  /// (operator-policy data movement, §3.2). No-op if not DRAM-resident.
  void relocate(sim::VirtualClock& clock, std::string_view name,
                int target_node) IDS_EXCLUDES(mutex_);

  /// Snapshot of the counters of every client since the last
  /// reset_stats(): the live registry instruments (monotonic, shared with
  /// the Prometheus exposition) minus the baseline reset_stats() captured,
  /// so tests and benches count exactly while the registry never rewinds.
  /// A query counts its own cache reads instead (engine INVOKE).
  CacheStats stats() const IDS_EXCLUDES(mutex_);
  void reset_stats() IDS_EXCLUDES(mutex_);

  std::uint64_t dram_used(int node) const IDS_EXCLUDES(mutex_);
  std::uint64_t ssd_used(int node) const IDS_EXCLUDES(mutex_);
  std::size_t num_objects() const IDS_EXCLUDES(mutex_);

 private:
  struct Meta {
    std::string name;
    std::uint64_t size = 0;
    std::vector<Location> copies;
    bool in_backing = false;
  };
  /// One node tier (DRAM or SSD): its resident objects in LRU order and
  /// the bytes they take. An SSD entry holds its payload; a DRAM copy's
  /// bytes live in its FAM region.
  class TierLru {
   public:
    bool empty() const { return order_.empty(); }
    std::uint64_t used() const { return used_; }
    /// The least recently used object; the tier must not be empty.
    ObjectId lru() const { return order_.back(); }
    /// The stored payload (empty for DRAM), or nullptr if not resident.
    const std::string* find(ObjectId id) const {
      auto it = entries_.find(id);
      return it == entries_.end() ? nullptr : &it->second.payload;
    }
    /// Adds a resident object as the most recently used.
    void insert(ObjectId id, std::uint64_t size, std::string payload = {}) {
      order_.push_front(id);
      entries_[id] = LruEntry{order_.begin(), size, std::move(payload)};
      used_ += size;
    }
    /// Marks a resident object most recently used; no-op otherwise.
    void touch(ObjectId id) {
      auto it = entries_.find(id);
      if (it != entries_.end()) {
        order_.splice(order_.begin(), order_, it->second.pos);
      }
    }
    /// Removes the object and its bytes; no-op if not resident.
    void erase(ObjectId id) {
      auto it = entries_.find(id);
      if (it == entries_.end()) return;
      order_.erase(it->second.pos);
      used_ -= it->second.size;
      entries_.erase(it);
    }

   private:
    struct LruEntry {
      std::list<ObjectId>::iterator pos;
      std::uint64_t size = 0;
      std::string payload;
    };
    std::list<ObjectId> order_;  // front = most recently used
    std::unordered_map<ObjectId, LruEntry, ObjectIdHash> entries_;
    std::uint64_t used_ = 0;
  };
  struct NodeState {
    TierLru dram;
    TierLru ssd;
    TierLru& tier(TierKind t) { return t == TierKind::kDram ? dram : ssd; }
  };

  /// FAM allocation name for a (object, node) DRAM copy.
  static std::string fam_name(ObjectId id, int node);

  /// Aborts unless `node` is in [0, num_nodes).
  void check_node(int node) const;

  int directory_node(ObjectId id) const {
    return static_cast<int>(id.value % static_cast<std::uint64_t>(config_.num_nodes));
  }
  /// Charges the metadata round trip when the directory shard is remote.
  /// Reads only immutable config, so it needs no lock of its own.
  void charge_directory_lookup(sim::VirtualClock& clock, int node,
                               ObjectId id) const;

  /// Charges the per-artifact (de)serialization latency.
  /// No-op when serialization_service_seconds is 0.
  ///
  /// IDS_MAY_BLOCK: this models a round trip to the *shared* serialization
  /// service the paper calls out as the cache bottleneck (§8) — in a real
  /// deployment it stalls on the service queue, so it must never run with
  /// mutex_ held (the [blocking-under-lock] analyzer rule enforces this;
  /// get()/put() charge it outside their critical sections).
  void charge_serialization(sim::VirtualClock& clock) IDS_MAY_BLOCK;

  /// get() body; charge_serialization of the fetched artifact is the
  /// caller's job, outside the critical section.
  CacheRead get_locked(sim::VirtualClock& clock, int node,
                       std::string_view name) IDS_REQUIRES(mutex_);

  // All helpers below require mutex_ held (machine-checked under Clang).
  // The placement helpers return Status instead of asserting: a directory
  // entry that went missing or a FAM-side failure is *recoverable* (the
  // authoritative copy lives in the backing store), so the public
  // operations degrade to an uncached read/write instead of aborting.
  NodeState& node_state(int node) IDS_REQUIRES(mutex_) {
    return nodes_[static_cast<std::size_t>(node)];
  }
  bool read_dram_copy(sim::VirtualClock& clock, int reader_node, int owner_node,
                      const Meta& meta, std::string* out) const
      IDS_REQUIRES(mutex_);
  Status insert_dram(sim::VirtualClock& clock, int node, ObjectId id,
                     Meta& meta, const std::string& payload)
      IDS_REQUIRES(mutex_);
  /// Evicts the tier's least recently used copies until `size` more bytes
  /// fit or the tier is empty. A DRAM victim spills to the node's SSD (when
  /// enabled and it fits); an SSD victim is dropped.
  Status make_room(sim::VirtualClock& clock, int node, TierKind kind,
                   std::uint64_t size) IDS_REQUIRES(mutex_);
  Status insert_ssd(sim::VirtualClock& clock, int node, ObjectId id,
                    Meta& meta, std::string payload) IDS_REQUIRES(mutex_);
  void drop_copy(ObjectId id, Meta& meta, const Location& loc)
      IDS_REQUIRES(mutex_);

  /// ids_cache_* instruments in the configured registry, labeled with
  /// this cache's instance name. Resolved once at construction; the
  /// increments themselves are lock-free atomics.
  struct Telemetry {
    PerTier<telemetry::Counter*> hits;  // ids_cache_hits_total{cache,tier}
    // ids_cache_tier_read_bytes_total{cache,tier}: read-path payload
    // bytes attributed to the serving tier.
    PerTier<telemetry::Counter*> read_bytes;
    telemetry::Counter* misses;
    telemetry::Counter* puts;
    telemetry::Counter* spills_to_ssd;
    telemetry::Counter* ssd_drops;
    telemetry::Counter* promotions;
    telemetry::Counter* bytes_read;
    telemetry::Counter* bytes_written;
  };

  /// Current absolute values of the registry counters as a CacheStats.
  CacheStats counters_snapshot() const;

  CacheConfig config_;
  Telemetry tele_;
  // Internally synchronized; acquired strictly *after* mutex_ (the FAM
  // layer never calls back into the cache, so the order cannot invert).
  std::unique_ptr<fam::FamService> fam_;
  mutable Mutex mutex_;
  std::unordered_map<ObjectId, Meta, ObjectIdHash> directory_
      IDS_GUARDED_BY(mutex_);
  std::unordered_map<ObjectId, std::string, ObjectIdHash> backing_
      IDS_GUARDED_BY(mutex_);
  std::vector<NodeState> nodes_ IDS_GUARDED_BY(mutex_);
  /// Counter values at the last reset_stats(); stats() reports the delta.
  CacheStats baseline_ IDS_GUARDED_BY(mutex_);
};

}  // namespace ids::cache
