#pragma once

// Hash-sharded distributed triple store.
//
// Triples are assigned to shards by a stable hash of the subject id, the
// same per-rank data sharding CGE uses. One shard corresponds to one rank
// of the simulated machine; the engine layer pairs shard i with rank i.

#include <atomic>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "graph/dictionary.h"
#include "graph/shard.h"

namespace ids::graph {

class TripleStore {
 public:
  explicit TripleStore(int num_shards);

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Interns the three terms and adds the triple to the owning shard.
  /// Ingest-phase only: aborts if the store is frozen.
  void add(std::string_view s, std::string_view p, std::string_view o);

  /// Adds an already-encoded triple. Ingest-phase only.
  void add_ids(const Triple& t);

  /// Finalizes every shard (sort + dedup) and freezes the store: this is
  /// the ingest→serve epoch transition, after which shards are immutable
  /// and safe to scan from any number of concurrent queries. Idempotent.
  void finalize();

  /// True once finalize() has sealed the store (acquire pairs with the
  /// release in finalize(), so a thread that observes frozen() also
  /// observes the finalized shards).
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  /// Returns the store to the ingest phase for incremental updates (the
  /// deploy update endpoint). The caller owns quiescence: no queries may
  /// be in flight between reopen() and the next finalize().
  void reopen() { frozen_.store(false, std::memory_order_release); }

  const GraphShard& shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }

  /// Stable owner shard for a subject id.
  int shard_of_subject(TermId s) const {
    return ids::shard_of(s, num_shards());
  }

  std::size_t total_triples() const;

  /// Scans all shards; for tests and small tools, not the engine hot path.
  std::vector<Triple> match_all(const TriplePattern& pattern) const;

 private:
  Dictionary dict_;
  // Shards mutate during ingest (add/add_ids) and are sealed by
  // finalize(); after that every access is a read, so frozen stores can
  // be shared across concurrent queries (ROADMAP item 1).
  std::vector<GraphShard> shards_ IDS_FROZEN_AFTER(finalize);
  std::atomic<bool> frozen_{false};
};

}  // namespace ids::graph
