#include "store/feature_store.h"

#include "common/check.h"
namespace ids::store {

FeatureStore::FeatureStore(int num_shards)
    : shards_(static_cast<std::size_t>(num_shards)) {
  IDS_CHECK(num_shards > 0);
}

FeatureStore::FeatureId FeatureStore::intern_feature(std::string_view name) {
  IDS_DCHECK(!frozen()) << "FeatureStore interning after freeze()";
  auto it = feature_ids_.find(std::string(name));
  if (it != feature_ids_.end()) return it->second;
  auto id = static_cast<FeatureId>(feature_names_.size());
  feature_names_.emplace_back(name);
  feature_ids_.emplace(feature_names_.back(), id);
  return id;
}

std::optional<FeatureStore::FeatureId> FeatureStore::lookup_feature(
    std::string_view name) const {
  auto it = feature_ids_.find(std::string(name));
  if (it == feature_ids_.end()) return std::nullopt;
  return it->second;
}

void FeatureStore::set(graph::TermId entity, std::string_view feature,
                       FeatureValue value) {
  IDS_CHECK(!frozen()) << "FeatureStore::set after freeze(); reopen() first";
  FeatureId fid = intern_feature(feature);
  auto& shard = shards_[static_cast<std::size_t>(shard_of(entity))];
  auto& entries = shard.entities[entity];
  for (auto& e : entries) {
    if (e.feature == fid) {
      e.value = std::move(value);
      return;
    }
  }
  entries.push_back(FeatureEntry{fid, std::move(value)});
  ++shard.pair_count;
}

const FeatureValue* FeatureStore::get(graph::TermId entity,
                                      std::string_view feature) const {
  auto fid = lookup_feature(feature);
  if (!fid) return nullptr;
  const auto& shard = shards_[static_cast<std::size_t>(shard_of(entity))];
  auto it = shard.entities.find(entity);
  if (it == shard.entities.end()) return nullptr;
  for (const auto& e : it->second) {
    if (e.feature == *fid) return &e.value;
  }
  return nullptr;
}

std::optional<double> FeatureStore::get_double(graph::TermId entity,
                                               std::string_view feature) const {
  const FeatureValue* v = get(entity, feature);
  if (!v) return std::nullopt;
  if (const double* d = std::get_if<double>(v)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(v)) {
    return static_cast<double>(*i);
  }
  return std::nullopt;
}

std::optional<std::int64_t> FeatureStore::get_int(graph::TermId entity,
                                                  std::string_view feature) const {
  const FeatureValue* v = get(entity, feature);
  if (!v) return std::nullopt;
  if (const std::int64_t* i = std::get_if<std::int64_t>(v)) return *i;
  return std::nullopt;
}

std::optional<std::string_view> FeatureStore::get_string(
    graph::TermId entity, std::string_view feature) const {
  const FeatureValue* v = get(entity, feature);
  if (!v) return std::nullopt;
  if (const std::string* s = std::get_if<std::string>(v)) return *s;
  return std::nullopt;
}

std::size_t FeatureStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.pair_count;
  return n;
}

void FeatureStore::for_each(
    const std::function<void(graph::TermId, std::string_view,
                             const FeatureValue&)>& fn) const {
  for (const auto& shard : shards_) {
    for (const auto& [entity, entries] : shard.entities) {
      for (const auto& e : entries) {
        fn(entity, feature_names_[e.feature], e.value);
      }
    }
  }
}

std::size_t FeatureStore::value_bytes(const FeatureValue& v) {
  if (const std::string* s = std::get_if<std::string>(&v)) return s->size();
  return 8;
}

}  // namespace ids::store
