// Ablation: global cache tier contributions (§3).
//
// Reads a working set of docking-output-sized artifacts under different
// cache configurations and reports where reads were served and at what
// modeled cost:
//   (a) DRAM + SSD tiers (full cache)     (b) DRAM only, no SSD spill
//   (c) remote-only placement (RDMA path) (d) backing store only
// Also exercises node failure + repopulation and the locality query.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/manager.h"
#include "common/rng.h"

int main() {
  using namespace ids;
  std::printf("=== Ablation: cache tier contributions (sec 3) ===\n\n");

  constexpr int kNodes = 4;
  constexpr std::size_t kObjects = 400;
  constexpr std::size_t kObjectBytes = 50'000;  // a Vina output
  constexpr int kReadRounds = 4;

  struct Scenario {
    const char* name;
    cache::CacheConfig config;
    bool remote_reader;  // read from a node that holds no copies
  };

  auto base = [] {
    cache::CacheConfig c;
    c.num_nodes = kNodes;
    c.dram_capacity_bytes = 8ull << 20;   // holds ~160 objects per node
    c.ssd_capacity_bytes = 64ull << 20;
    return c;
  };

  std::vector<Scenario> scenarios;
  scenarios.push_back({"dram+ssd (full)", base(), false});
  {
    auto c = base();
    c.enable_ssd = false;
    scenarios.push_back({"dram only", c, false});
  }
  scenarios.push_back({"remote reads (rdma)", base(), true});
  {
    auto c = base();
    c.dram_capacity_bytes = 1;  // nothing fits: every read goes to backing
    c.enable_ssd = false;
    scenarios.push_back({"backing store only", c, false});
  }

  std::printf("%-22s %12s %9s %9s %9s %9s %9s\n", "configuration",
              "read time s", "l.dram", "l.ssd", "r.dram", "r.ssd", "backing");

  for (auto& sc : scenarios) {
    cache::CacheManager cache(sc.config);
    sim::VirtualClock writer;
    Rng rng(5);
    // Writer on node 0 stores the working set (spilling as needed).
    for (std::size_t i = 0; i < kObjects; ++i) {
      cache.put(writer, 0, "vina/obj" + std::to_string(i),
                std::string(kObjectBytes, 'x'));
    }
    cache.reset_stats();

    sim::VirtualClock reader;
    int reader_node = sc.remote_reader ? 2 : 0;
    for (int round = 0; round < kReadRounds; ++round) {
      for (std::size_t i = 0; i < kObjects; ++i) {
        auto v = cache.get(reader, reader_node, "vina/obj" + std::to_string(i));
        if (!v.has_value()) std::printf("unexpected miss!\n");
      }
    }
    const cache::CacheStats st = cache.stats();
    std::printf("%-22s %12.3f", sc.name, sim::to_seconds(reader.now()));
    for (std::uint64_t hits : st.hits.n) {  // one column per tier
      std::printf(" %9llu", static_cast<unsigned long long>(hits));
    }
    std::printf("\n");
  }

  // Failure + repopulation drill.
  std::printf("\n--- node failure / repopulation ---\n");
  cache::CacheManager cache(base());
  sim::VirtualClock clock;
  for (std::size_t i = 0; i < 50; ++i) {
    cache.put(clock, 1, "obj" + std::to_string(i), std::string(20'000, 'y'));
  }
  cache.fail_node(1);
  cache.reset_stats();
  sim::VirtualClock reader;
  for (std::size_t i = 0; i < 50; ++i) {
    (void)cache.get(reader, 1, "obj" + std::to_string(i));
  }
  std::printf("after failing node 1: 50 reads -> backing hits=%llu "
              "(authoritative data preserved), re-read cost %.3f s\n",
              static_cast<unsigned long long>(
                  cache.stats().hits[cache::ReadTier::kBacking]),
              sim::to_seconds(reader.now()));
  cache.reset_stats();
  sim::VirtualClock reread;
  for (std::size_t i = 0; i < 50; ++i) {
    (void)cache.get(reread, 1, "obj" + std::to_string(i));
  }
  std::printf("second pass: local DRAM hits=%llu, cost %.3f s "
              "(working set rebuilt)\n",
              static_cast<unsigned long long>(
                  cache.stats().hits[cache::ReadTier::kLocalDram]),
              sim::to_seconds(reread.now()));

  // Locality query demo (the scheduler-facing API).
  int nearest = cache.nearest_node_with("obj0", 3);
  std::printf("\nlocality query: nearest copy of obj0 from node 3 -> node %d\n",
              nearest);
  return 0;
}
