// Global shared cache tour (§3): two IDS instances on one cluster share
// simulation artifacts through the multi-tier cache; locality queries
// steer placement; a node failure loses only cached copies.
//
//   $ ./examples/cache_explorer

#include <cstdio>

#include "cache/manager.h"
#include "core/workflow.h"
#include "models/docking.h"
#include "models/molgen.h"
#include "models/structure.h"

using namespace ids;

namespace {

const char* tier_name(cache::TierKind t) {
  return t == cache::TierKind::kDram ? "DRAM" : "SSD";
}

void show_locations(const cache::CacheManager& cache, const std::string& key) {
  auto locs = cache.locations(key);
  std::printf("  %-28s ->", key.c_str());
  if (locs.empty()) std::printf(" (backing store only)");
  for (const auto& l : locs) {
    std::printf(" node%d/%s", l.node, tier_name(l.tier));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // A 4-node cache: 2 compute nodes (0, 1) + 2 memory-server nodes (2, 3),
  // like the paper's cache testbed.
  cache::CacheConfig cc;
  cc.num_nodes = 4;
  cc.dram_capacity_bytes = 1ull << 20;  // small, to make spills visible
  cc.ssd_capacity_bytes = 16ull << 20;
  cache::CacheManager cache(cc);

  // Instance A (a research group on compute node 0) runs dockings and
  // stashes the full outputs as named artifacts.
  Rng rng(11);
  auto structure =
      models::predict_structure(datagen::random_protein_sequence(rng, 220));
  models::DockingEngine docker(models::receptor_from_structure(structure));

  std::printf("--- instance A docks 12 ligands and stashes the outputs ---\n");
  sim::VirtualClock clock_a;
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    std::string smiles = models::generate_smiles(rng);
    models::DockingResult result = docker.dock_smiles(smiles, 0);
    std::string key = "vina/demo/" + smiles;
    // Big artifacts stash to the memory servers (placement hint), small
    // ones stay local — an "operator-defined policy" (§3.2).
    cache::PlacementHint hint;
    hint.target_node = (smiles.size() > 24) ? 2 : 0;
    cache.put(clock_a, /*node=*/0, key, models::serialize(result), hint);
    keys.push_back(key);
  }
  std::printf("stashed %zu artifacts in %.3f modeled s; DRAM used: "
              "node0=%llu B node2=%llu B\n",
              keys.size(), sim::to_seconds(clock_a.now()),
              static_cast<unsigned long long>(cache.dram_used(0)),
              static_cast<unsigned long long>(cache.dram_used(2)));

  std::printf("\n--- locality map (the scheduler-facing query) ---\n");
  for (std::size_t i = 0; i < 4; ++i) show_locations(cache, keys[i]);

  // Instance B (another group, compute node 1) reuses A's results instead
  // of re-running the simulations.
  std::printf("\n--- instance B (node 1) reuses A's dockings ---\n");
  sim::VirtualClock clock_b;
  int reused = 0;
  for (const auto& key : keys) {
    const cache::CacheRead read = cache.get(clock_b, /*node=*/1, key);
    models::DockingResult r;
    if (read.has_value() && models::deserialize(*read.payload, &r)) ++reused;
  }
  std::printf("reused %d/%zu docking outputs in %.4f modeled s "
              "(vs ~35 modeled s per re-docking)\n",
              reused, keys.size(), sim::to_seconds(clock_b.now()));
  std::printf("stats: %s\n", cache.stats().to_string().c_str());

  // Failure drill: node 2 (a memory server) dies. Cached copies are lost;
  // authoritative data survives in backing storage and re-populates.
  std::printf("\n--- node 2 fails ---\n");
  cache.fail_node(2);
  cache.reset_stats();
  sim::VirtualClock clock_c;
  int recovered = 0;
  for (const auto& key : keys) {
    if (cache.get(clock_c, /*node=*/1, key).has_value()) ++recovered;
  }
  std::printf("all %d artifacts still readable (backing hits: %llu); "
              "re-population rebuilt copies:\n",
              recovered,
              static_cast<unsigned long long>(
                  cache.stats().hits[cache::ReadTier::kBacking]));
  for (std::size_t i = 0; i < 4; ++i) show_locations(cache, keys[i]);
  return 0;
}
