// Calibration guards: the cost-profile constants and topology presets are
// the contract between the simulation and the paper's stated magnitudes
// (§4/§5). These tests pin the calibrated behaviour so an accidental
// constant change is caught before it silently reshapes every benchmark.

#include <gtest/gtest.h>

#include "cache/stats.h"
#include "models/cost_profile.h"
#include "models/docking.h"
#include "models/molgen.h"
#include "models/structure.h"
#include "datagen/lifesci.h"
#include "runtime/topology.h"

namespace ids {
namespace {

using models::CostProfile;

TEST(Calibration, SwComparisonUnderOneMillisecond) {
  // §5.1: Smith-Waterman averages < 1 ms per comparison at UniProt-scale
  // sequence lengths (~350 residues).
  const CostProfile& c = CostProfile::paper();
  EXPECT_LT(sim::to_seconds(c.sw_cost(350ull * 350ull)), 1e-3);
  EXPECT_GT(sim::to_seconds(c.sw_cost(350ull * 350ull)), 1e-5);
}

TEST(Calibration, Pic50IsTheCheapestUdf) {
  const CostProfile& c = CostProfile::paper();
  EXPECT_DOUBLE_EQ(sim::to_seconds(c.pic50_cost()), 1e-5);  // §5.1 verbatim
  EXPECT_LT(c.pic50_cost(), c.sw_cost(350ull * 350ull));
}

TEST(Calibration, DtbaTenthsOfASecondWithTail) {
  const CostProfile& c = CostProfile::paper();
  // A typical forward pass (§4: "tenths of a second").
  std::uint64_t units = 192 * 64 + 64 * 16 + 16 + 350;
  // Find a non-tail call hash.
  double base = 1e9;
  for (std::uint64_t h = 0; h < 50; ++h) {
    base = std::min(base, sim::to_seconds(c.dtba_cost(units, h)));
  }
  EXPECT_GT(base, 0.05);
  EXPECT_LT(base, 0.5);
  // The tail is a multiple of the base, not a different model.
  double worst = 0;
  for (std::uint64_t h = 0; h < 200; ++h) {
    worst = std::max(worst, sim::to_seconds(c.dtba_cost(units, h)));
  }
  EXPECT_NEAR(worst / base, c.dtba_tail_multiplier, 0.01);
}

TEST(Calibration, DockingEnvelopeMatchesPaper) {
  // §5.2: docking 31-44 s per compound. Average over the default synthetic
  // library must land inside a slightly widened band (ligand-size spread).
  Rng rng(2);
  auto structure =
      models::predict_structure(datagen::random_protein_sequence(rng, 250));
  models::DockingEngine engine(models::receptor_from_structure(structure));
  const CostProfile& c = CostProfile::paper();
  Rng gen(3);
  double total = 0;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    auto r = engine.dock_smiles(models::generate_smiles(gen), 0);
    total += sim::to_seconds(c.docking_cost(r.work_units));
  }
  double mean = total / n;
  EXPECT_GT(mean, 25.0);
  EXPECT_LT(mean, 55.0);
}

TEST(Calibration, ModuleLoadIsSecondsScale) {
  // §2.3: "loading Python modules can be time-consuming".
  const CostProfile& c = CostProfile::paper();
  EXPECT_GE(sim::to_seconds(c.module_load_cost()), 1.0);
  EXPECT_LE(sim::to_seconds(c.module_load_cost()), 10.0);
}

TEST(Calibration, OperatorOverheadOffByDefault) {
  // Simple "what-is" queries must stay milliseconds-scale by default (§1);
  // the Fig 4(b) plateau overhead is an explicit bench calibration.
  EXPECT_DOUBLE_EQ(CostProfile{}.operator_overhead_seconds, 0.0);
}

TEST(Calibration, FabricDefaultsAreSlingshotClass) {
  sim::FabricParams f;
  EXPECT_DOUBLE_EQ(f.inter_node.bytes_per_second, 25.0e9);  // §5: 25 GB/s
  EXPECT_LT(f.inter_node.latency, sim::from_micros(5));
  // Tier ordering: DRAM fabric < SSD < backing store for a 1 MB object.
  std::uint64_t mb = 1 << 20;
  EXPECT_LT(f.inter_node.transfer_cost(mb), f.local_ssd.transfer_cost(mb));
  EXPECT_LT(f.local_ssd.transfer_cost(mb), f.backing_store.transfer_cost(mb));
}

TEST(Calibration, TopologyPresetsMatchPaperTestbeds) {
  // §5: scaling runs use 32 ranks/node at 64/128/256 nodes.
  for (int nodes : {64, 128, 256}) {
    runtime::Topology t = runtime::Topology::cray_ex(nodes);
    EXPECT_EQ(t.ranks_per_node, 32);
    EXPECT_EQ(t.num_ranks(), nodes * 32);
  }
  // §5: the cache testbed has dedicated memory nodes and 64-core sockets.
  runtime::Topology c = runtime::Topology::cache_testbed(2, 2);
  EXPECT_EQ(c.num_nodes, 2);
  EXPECT_EQ(c.num_memory_nodes, 2);
  EXPECT_EQ(c.total_nodes(), 4);
  EXPECT_EQ(c.ranks_per_node, 64);
}

TEST(Calibration, WhatIsQueryIsMilliseconds) {
  // §1: "A simple what-is query returns in milliseconds." A bound-subject
  // lookup on the default profile must cost well under a second.
  const CostProfile& c = CostProfile::paper();
  double lookup = sim::to_seconds(c.triple_scan_cost(100));
  EXPECT_LT(lookup, 1e-3);
}

TEST(Calibration, CacheStatsRendersAllCounters) {
  cache::CacheStats s;
  s.hits[cache::ReadTier::kLocalDram] = 1;
  s.hits[cache::ReadTier::kBacking] = 2;
  s.misses = 3;
  s.puts = 4;
  std::string str = s.to_string();
  for (const char* needle : {"local_dram=1", "backing=2", "misses=3", "puts=4"}) {
    EXPECT_NE(str.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(s.total_hits(), 3u);
}

}  // namespace
}  // namespace ids
