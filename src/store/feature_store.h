#pragma once

// Feature store: typed per-entity attributes.
//
// One third of the paper's "3-in-1" datastore. Entities are dictionary
// term ids shared with the knowledge graph; features hold the payloads
// UDFs consume — protein sequences, SMILES strings, IC50 measurements,
// review flags. Sharded by entity id with the same hash as the triple
// store so an entity's triples and features live on the same rank.

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "graph/dictionary.h"

namespace ids::store {

using FeatureValue = std::variant<double, std::int64_t, std::string>;

class FeatureStore {
 public:
  explicit FeatureStore(int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  int shard_of(graph::TermId entity) const {
    return ids::shard_of(entity, num_shards());
  }

  /// Sets (or overwrites) one feature of an entity. Ingest-phase only:
  /// aborts if the store is frozen.
  void set(graph::TermId entity, std::string_view feature, FeatureValue value);

  /// Seals the store: the ingest→serve epoch transition, after which the
  /// shards and the feature-name interner are immutable and safe to read
  /// from any number of concurrent queries. Idempotent.
  void freeze() { frozen_.store(true, std::memory_order_release); }

  /// True once freeze() has sealed the store (acquire pairs with the
  /// release in freeze(), so a thread that observes frozen() also
  /// observes every ingested pair).
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  /// Returns the store to the ingest phase for incremental updates. The
  /// caller owns quiescence: no queries may be in flight between
  /// reopen() and the next freeze().
  void reopen() { frozen_.store(false, std::memory_order_release); }

  /// Returns the value if present. Pointer is invalidated by writes.
  const FeatureValue* get(graph::TermId entity, std::string_view feature) const;

  /// Typed accessors; return nullopt on missing feature or wrong type.
  std::optional<double> get_double(graph::TermId entity,
                                   std::string_view feature) const;
  std::optional<std::int64_t> get_int(graph::TermId entity,
                                      std::string_view feature) const;
  /// Returned view is invalidated by writes to the same entity.
  std::optional<std::string_view> get_string(graph::TermId entity,
                                             std::string_view feature) const;

  /// Total number of (entity, feature) pairs stored.
  std::size_t size() const;

  /// Visits every (entity, feature name, value) pair. Shard-then-insertion
  /// order within a shard is unspecified; callers needing determinism sort.
  void for_each(const std::function<void(graph::TermId, std::string_view,
                                         const FeatureValue&)>& fn) const;

  /// Modeled bytes of one feature value, for cache/communication costing.
  static std::size_t value_bytes(const FeatureValue& v);

 private:
  using FeatureId = std::uint32_t;

  struct FeatureEntry {
    FeatureId feature;
    FeatureValue value;
  };
  struct FeatureShard {
    // Entities carry a handful of features; a small vector beats a nested map.
    std::unordered_map<graph::TermId, std::vector<FeatureEntry>> entities;
    std::size_t pair_count = 0;
  };

  FeatureId intern_feature(std::string_view name);
  std::optional<FeatureId> lookup_feature(std::string_view name) const;

  // All three mutate only while ingesting feature pairs (set/intern) and
  // are sealed by freeze(); every serve-phase access is a read, so frozen
  // stores can be shared across concurrent queries (ROADMAP item 1).
  std::vector<FeatureShard> shards_ IDS_FROZEN_AFTER(freeze);
  std::unordered_map<std::string, FeatureId> feature_ids_
      IDS_FROZEN_AFTER(freeze);
  std::vector<std::string> feature_names_ IDS_FROZEN_AFTER(freeze);
  std::atomic<bool> frozen_{false};
};

}  // namespace ids::store
