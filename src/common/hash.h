#pragma once

// Hashing helpers shared by the dictionary, the triple-store sharder, and
// the cache object-id computation. All hashes here are stable across runs
// and platforms (unlike std::hash), which matters because shard assignment
// and cache object ids are part of reproducible benchmark output.

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ids {

/// 64-bit FNV-1a over a byte range. Stable and endian-independent for the
/// common case of string keys.
constexpr std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Strong 64-bit integer mix (the splitmix64 finalizer). Use before taking
/// a modulus so low-entropy ids still spread across shards.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The placement rule: the shard (and rank) that owns entity `id` among
/// `num_shards`. The triple, vector and feature stores shard by it and the
/// engine's row exchange routes by it, so with one shard per rank an
/// entity's triples, embedding, features and solution rows co-locate.
constexpr int shard_of(std::uint64_t id, int num_shards) {
  return static_cast<int>(mix64(id) % static_cast<std::uint64_t>(num_shards));
}

/// Combines two 64-bit hashes (boost-style but 64-bit constants).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4));
}

}  // namespace ids
