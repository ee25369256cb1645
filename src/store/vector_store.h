#pragma once

// Vector store: per-shard dense embeddings with exact top-k search.
//
// The second third of the "3-in-1" datastore. Embeddings are fixed-
// dimension float vectors keyed by entity term id, sharded like the triple
// store. Exact search scans the shard (the linear-algebraic operator of
// the paper's unified query engine); the IVF index in ivf_index.h provides
// the approximate path for large shards.

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "graph/dictionary.h"

namespace ids::store {

enum class Metric { kCosine, kDot, kL2 };

/// One search result; for kL2 the score is the *negated* distance so that
/// "higher is better" holds for every metric.
struct VectorHit {
  graph::TermId id = graph::kInvalidTerm;
  float score = 0.0f;
};

/// Score reported for an id with no stored embedding: worse than any real
/// similarity under every metric ("higher is better"), so a missing vector
/// can never outrank a stored one.
inline constexpr float kMissingScore = -1e30f;

class VectorStore {
 public:
  VectorStore(int num_shards, int dim);

  int dim() const { return dim_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t size() const;
  std::size_t shard_size(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].ids.size();
  }

  int shard_of(graph::TermId id) const {
    return ids::shard_of(id, num_shards());
  }

  /// Adds (or overwrites) the embedding for an entity. vec.size() == dim.
  void add(graph::TermId id, std::span<const float> vec);

  /// Returns the stored vector or an empty span.
  std::span<const float> get(graph::TermId id) const;

  /// Exact top-k over one shard. Deterministic tie-break by ascending id.
  std::vector<VectorHit> topk_shard(int shard, std::span<const float> query,
                                    std::size_t k, Metric metric) const;

  /// Exact top-k over all shards (merges per-shard results).
  std::vector<VectorHit> topk(std::span<const float> query, std::size_t k,
                              Metric metric) const;

  /// Similarity between a query and one stored vector (same score
  /// convention as VectorHit).
  float score(std::span<const float> query, graph::TermId id,
              Metric metric) const;

  /// Raw shard access for index builders.
  std::span<const graph::TermId> shard_ids(int shard) const {
    const auto& s = shards_[static_cast<std::size_t>(shard)];
    return s.ids;
  }
  /// Base pointer of a shard's row-major embedding matrix
  /// (shard_size(shard) x dim) — the batched-scan entry point.
  const float* shard_data(int shard) const {
    return shards_[static_cast<std::size_t>(shard)].data.data();
  }
  std::span<const float> shard_vector(int shard, std::size_t idx) const {
    const auto& s = shards_[static_cast<std::size_t>(shard)];
    return {s.data.data() + idx * static_cast<std::size_t>(dim_),
            static_cast<std::size_t>(dim_)};
  }

  /// Modeled work units (multiply-adds) of one exact shard scan.
  std::uint64_t scan_work_units(int shard) const {
    return static_cast<std::uint64_t>(shard_size(shard)) *
           static_cast<std::uint64_t>(dim_);
  }

  static float similarity(std::span<const float> a, std::span<const float> b,
                          Metric metric);

  /// Batched scoring of one query against `num_rows` contiguous row-major
  /// vectors: out[r] is bit-identical to similarity(query, row_r, metric)
  /// at every SIMD dispatch level (the exact-vs-IVF recall tests compare
  /// these scores directly).
  static void score_rows(std::span<const float> query, const float* rows,
                         std::size_t num_rows, std::size_t dim, Metric metric,
                         float* out);

  /// Batched scoring of scattered rows: out[i] scores base + idx[i]*dim —
  /// the IVF cluster-member path. Same bit-identity contract.
  static void score_rows_indexed(std::span<const float> query,
                                 const float* base, std::size_t dim,
                                 const std::size_t* idx, std::size_t num,
                                 Metric metric, float* out);

 private:
  struct VectorShard {
    std::vector<graph::TermId> ids;
    std::vector<float> data;  // row-major, ids.size() x dim
    std::unordered_map<graph::TermId, std::size_t> index;
  };

  int dim_;
  std::vector<VectorShard> shards_;
};

}  // namespace ids::store
