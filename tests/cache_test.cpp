// Global multi-tier cache tests: tier hit paths and their cost ordering,
// LRU + spill, locality queries, placement hints, node failure and
// repopulation, write-through semantics, out-of-range node ids,
// statistics and their exposition, and per-query cache figures that
// other clients of the cache cannot move.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "cache/cross_cluster.h"
#include "cache/manager.h"
#include "core/engine.h"

namespace ids::cache {
namespace {

CacheConfig small_config() {
  CacheConfig c;
  c.num_nodes = 4;
  c.dram_capacity_bytes = 1000;
  c.ssd_capacity_bytes = 4000;
  return c;
}

std::string blob(std::size_t n, char fill = 'a') { return std::string(n, fill); }

TEST(ObjectIdTest, StableAndDistinct) {
  EXPECT_EQ(object_id("vina/P29274/CCN"), object_id("vina/P29274/CCN"));
  EXPECT_NE(object_id("a"), object_id("b"));
}

TEST(Cache, PutThenLocalGetHitsLocalDram) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", blob(100));
  auto got = cache.get(clock, 0, "obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got.payload->size(), 100u);
  EXPECT_EQ(got.tier, ReadTier::kLocalDram);
  EXPECT_EQ(cache.stats().hits[ReadTier::kLocalDram], 1u);
}

TEST(Cache, RemoteGetHitsRemoteDramAndCostsMore) {
  CacheManager cache(small_config());
  sim::VirtualClock w;
  cache.put(w, 0, "obj", blob(400));

  sim::VirtualClock local;
  sim::VirtualClock remote;
  ASSERT_TRUE(cache.get(local, 0, "obj").has_value());
  ASSERT_TRUE(cache.get(remote, 2, "obj").has_value());
  EXPECT_EQ(cache.stats().hits[ReadTier::kLocalDram], 1u);
  EXPECT_EQ(cache.stats().hits[ReadTier::kRemoteDram], 1u);
  EXPECT_LT(local.now(), remote.now());
}

TEST(Cache, DramEvictionSpillsToSsdLru) {
  CacheManager cache(small_config());  // 1000 B DRAM per node
  sim::VirtualClock clock;
  cache.put(clock, 0, "a", blob(400));
  cache.put(clock, 0, "b", blob(400));
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(cache.get(clock, 0, "a").has_value());
  cache.put(clock, 0, "c", blob(400));  // evicts b -> SSD

  EXPECT_EQ(cache.stats().spills_to_ssd, 1u);
  auto locs = cache.locations("b");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].tier, TierKind::kSsd);
  // And "b" is still served (from SSD).
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 0, "b").has_value());
  EXPECT_EQ(cache.stats().hits[ReadTier::kLocalSsd], 1u);
}

TEST(Cache, SsdDisabledDropsOnEviction) {
  CacheConfig cfg = small_config();
  cfg.enable_ssd = false;
  cfg.write_through = false;  // nothing in backing either
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "a", blob(600));
  cache.put(clock, 0, "b", blob(600));  // evicts a, which is simply dropped
  EXPECT_EQ(cache.stats().spills_to_ssd, 0u);
  EXPECT_FALSE(cache.get(clock, 0, "a").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, TierCostOrdering) {
  // local DRAM < local SSD < remote DRAM(+) < backing store for a sizable
  // object, matching §3's motivation for the tier hierarchy.
  CacheConfig cfg = small_config();
  cfg.dram_capacity_bytes = 1 << 20;
  cfg.ssd_capacity_bytes = 4 << 20;
  CacheManager cache(cfg);
  sim::VirtualClock w;
  const std::size_t size = 512 * 1024;

  cache.put(w, 0, "dram_obj", blob(size));

  auto timed_get = [&cache](int node, const std::string& name) {
    sim::VirtualClock c;
    EXPECT_TRUE(cache.get(c, node, name).has_value());
    return c.now();
  };

  sim::Nanos local_dram = timed_get(0, "dram_obj");
  sim::Nanos remote_dram = timed_get(1, "dram_obj");
  EXPECT_LT(local_dram, remote_dram);

  // Force a spill to SSD by filling node 0's DRAM.
  cache.put(w, 0, "filler1", blob(512 * 1024));
  cache.put(w, 0, "filler2", blob(512 * 1024));
  auto locs = cache.locations("dram_obj");
  ASSERT_FALSE(locs.empty());
  ASSERT_EQ(locs[0].tier, TierKind::kSsd);
  sim::Nanos local_ssd = timed_get(0, "dram_obj");
  EXPECT_GT(local_ssd, local_dram);
}

TEST(Cache, BackingStoreServesAfterAllCopiesLost) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "persist", blob(200));
  cache.fail_node(0);
  EXPECT_TRUE(cache.locations("persist").empty());

  // Served from the backing store and re-populated into local DRAM.
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 1, "persist").has_value());
  EXPECT_EQ(cache.stats().hits[ReadTier::kBacking], 1u);
  auto locs = cache.locations("persist");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].node, 1);
  EXPECT_EQ(locs[0].tier, TierKind::kDram);

  // Second read is a local DRAM hit: the working set rebuilt itself.
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 1, "persist").has_value());
  EXPECT_EQ(cache.stats().hits[ReadTier::kLocalDram], 1u);
}

TEST(Cache, WriteThroughOffMeansFailureLosesData) {
  CacheConfig cfg = small_config();
  cfg.write_through = false;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 2, "volatile", blob(100));
  ASSERT_TRUE(cache.get(clock, 2, "volatile").has_value());
  cache.fail_node(2);
  EXPECT_FALSE(cache.get(clock, 2, "volatile").has_value());
}

TEST(Cache, PlacementHintPinsNode) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  PlacementHint hint;
  hint.target_node = 3;
  cache.put(clock, 0, "pinned", blob(100), hint);
  auto locs = cache.locations("pinned");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].node, 3);
}

TEST(Cache, LocalityQueryPrefersLocalThenRemoteDram) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 1, "obj", blob(100));
  EXPECT_EQ(cache.nearest_node_with("obj", 1), 1);
  EXPECT_EQ(cache.nearest_node_with("obj", 0), 1);
  EXPECT_EQ(cache.nearest_node_with("missing", 0), -1);
}

TEST(Cache, PromoteOnRemoteHitCreatesLocalCopy) {
  CacheConfig cfg = small_config();
  cfg.promote_on_remote_hit = true;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "hot", blob(200));
  ASSERT_TRUE(cache.get(clock, 3, "hot").has_value());
  EXPECT_EQ(cache.stats().promotions, 1u);
  // Now node 3 has its own DRAM copy.
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 3, "hot").has_value());
  EXPECT_EQ(cache.stats().hits[ReadTier::kLocalDram], 1u);
}

TEST(Cache, RelocateMovesDramCopy) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "mv", blob(100));
  cache.relocate(clock, "mv", 2);
  auto locs = cache.locations("mv");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].node, 2);
  EXPECT_EQ(cache.dram_used(0), 0u);
  EXPECT_EQ(cache.dram_used(2), 100u);
}

TEST(CacheDeathTest, NodeIdsOutsideTheClusterAbort) {
  CacheConfig cfg = small_config();
  cfg.num_nodes = 2;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", blob(100));
  const char* out_of_range = "cache node 5 outside \\[0, 2\\)";
  EXPECT_DEATH((void)cache.get(clock, 5, "obj"), out_of_range);
  EXPECT_DEATH(cache.put(clock, 5, "obj", blob(10)), out_of_range);
  EXPECT_DEATH(cache.relocate(clock, "obj", 5), out_of_range);
  EXPECT_DEATH(cache.fail_node(5), out_of_range);
  EXPECT_DEATH((void)cache.estimated_get_cost(5, "obj"), out_of_range);
  EXPECT_DEATH((void)cache.nearest_node_with("obj", 5), out_of_range);
  EXPECT_DEATH((void)cache.dram_used(5), out_of_range);
  EXPECT_DEATH((void)cache.ssd_used(5), out_of_range);
  EXPECT_DEATH((void)cache.get(clock, -1, "obj"), "cache node -1 outside");
  // put()'s placement hint alone is clamped into range.
  PlacementHint hint;
  hint.target_node = 5;
  cache.put(clock, 0, "pinned", blob(10), hint);
  ASSERT_EQ(cache.locations("pinned").size(), 1u);
  EXPECT_EQ(cache.locations("pinned")[0].node, 1);
}

TEST(Cache, InvalidateRemovesEverywhere) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "gone", blob(100));
  cache.invalidate("gone");
  EXPECT_FALSE(cache.contains("gone"));
  EXPECT_FALSE(cache.get(clock, 0, "gone").has_value());
  EXPECT_EQ(cache.num_objects(), 0u);
}

TEST(Cache, OverwriteReplacesPayload) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "v", "first");
  cache.put(clock, 0, "v", "second-version");
  auto got = cache.get(clock, 0, "v");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got.payload, "second-version");
  EXPECT_EQ(cache.num_objects(), 1u);
}

TEST(Cache, ObjectBiggerThanDramGoesToSsd) {
  CacheManager cache(small_config());  // DRAM 1000, SSD 4000
  sim::VirtualClock clock;
  cache.put(clock, 0, "big", blob(2000));
  auto locs = cache.locations("big");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].tier, TierKind::kSsd);
  ASSERT_TRUE(cache.get(clock, 0, "big").has_value());
}

TEST(Cache, StatsBytesAccounting) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "x", blob(300));
  cache.get(clock, 0, "x");
  EXPECT_EQ(cache.stats().bytes_written, 300u);
  EXPECT_EQ(cache.stats().bytes_read, 300u);
  EXPECT_EQ(cache.stats().puts, 1u);
  EXPECT_FALSE(cache.stats().to_string().empty());
}

TEST(Cache, MissOnUnknownObject) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  EXPECT_FALSE(cache.get(clock, 0, "never-put").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SerializationServiceChargesPerOp) {
  CacheConfig cfg = small_config();
  cfg.serialization_service_seconds = 0.25;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", blob(100));
  sim::Nanos after_put = clock.now();
  EXPECT_GE(after_put, sim::from_seconds(0.25));
  ASSERT_TRUE(cache.get(clock, 0, "obj").has_value());
  EXPECT_GE(clock.now(), after_put + sim::from_seconds(0.25));
}

TEST(Cache, EstimatedGetCostMatchesTierOrdering) {
  CacheConfig cfg = small_config();
  cfg.dram_capacity_bytes = 1 << 20;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 1, "obj", blob(400'000));
  sim::Nanos local = cache.estimated_get_cost(1, "obj");
  sim::Nanos remote = cache.estimated_get_cost(0, "obj");
  EXPECT_LT(local, remote);
  EXPECT_EQ(cache.estimated_get_cost(0, "nope"),
            std::numeric_limits<sim::Nanos>::max());
}

// The ids_cache_* lines of a private registry's exposition, in order.
std::string cache_exposition(const telemetry::MetricsRegistry& reg) {
  std::istringstream in(reg.to_prometheus());
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("ids_cache_") != std::string::npos) out += line + "\n";
  }
  return out;
}

TEST(CacheExposition, FixedSequencePinsEverySeries) {
  // One operation sequence that reaches all five read tiers, a miss, a
  // spill, an SSD drop and two promotions; the exposition must name every
  // series with the exact labels and values.
  telemetry::MetricsRegistry reg;
  CacheConfig cfg;
  cfg.num_nodes = 3;
  cfg.dram_capacity_bytes = 1000;
  cfg.ssd_capacity_bytes = 1500;
  cfg.promote_on_remote_hit = true;
  cfg.metrics = &reg;
  cfg.name = "pin";
  CacheManager cache(cfg);
  sim::VirtualClock clock;

  cache.put(clock, 0, "a", blob(400));
  ASSERT_TRUE(cache.get(clock, 0, "a").has_value());  // local DRAM
  ASSERT_TRUE(cache.get(clock, 1, "a").has_value());  // remote DRAM, promoted
  cache.put(clock, 0, "b", blob(400));
  cache.put(clock, 0, "c", blob(400));                 // spills "a" to SSD
  ASSERT_TRUE(cache.get(clock, 0, "a").has_value());  // local SSD
  cache.put(clock, 0, "big", blob(1200));  // SSD only; drops "a" from SSD
  ASSERT_TRUE(cache.get(clock, 2, "big").has_value());  // remote SSD, promoted
  cache.fail_node(0);
  ASSERT_TRUE(cache.get(clock, 1, "c").has_value());  // backing store
  EXPECT_FALSE(cache.get(clock, 0, "absent").has_value());  // miss

  EXPECT_EQ(cache_exposition(reg),
            "# TYPE ids_cache_hits_total counter\n"
            "ids_cache_hits_total{cache=\"pin\",tier=\"backing\"} 1\n"
            "ids_cache_hits_total{cache=\"pin\",tier=\"local_dram\"} 1\n"
            "ids_cache_hits_total{cache=\"pin\",tier=\"local_ssd\"} 1\n"
            "ids_cache_hits_total{cache=\"pin\",tier=\"remote_dram\"} 1\n"
            "ids_cache_hits_total{cache=\"pin\",tier=\"remote_ssd\"} 1\n"
            "# TYPE ids_cache_misses_total counter\n"
            "ids_cache_misses_total{cache=\"pin\"} 1\n"
            "# TYPE ids_cache_promotions_total counter\n"
            "ids_cache_promotions_total{cache=\"pin\"} 2\n"
            "# TYPE ids_cache_puts_total counter\n"
            "ids_cache_puts_total{cache=\"pin\"} 4\n"
            "# TYPE ids_cache_read_bytes_total counter\n"
            "ids_cache_read_bytes_total{cache=\"pin\"} 2800\n"
            "# TYPE ids_cache_spills_total counter\n"
            "ids_cache_spills_total{cache=\"pin\"} 1\n"
            "# TYPE ids_cache_ssd_drops_total counter\n"
            "ids_cache_ssd_drops_total{cache=\"pin\"} 1\n"
            "# TYPE ids_cache_tier_read_bytes_total counter\n"
            "ids_cache_tier_read_bytes_total{cache=\"pin\",tier=\"backing\"} 400\n"
            "ids_cache_tier_read_bytes_total{cache=\"pin\",tier=\"local_dram\"} 400\n"
            "ids_cache_tier_read_bytes_total{cache=\"pin\",tier=\"local_ssd\"} 400\n"
            "ids_cache_tier_read_bytes_total{cache=\"pin\",tier=\"remote_dram\"} 400\n"
            "ids_cache_tier_read_bytes_total{cache=\"pin\",tier=\"remote_ssd\"} 1200\n"
            "# TYPE ids_cache_written_bytes_total counter\n"
            "ids_cache_written_bytes_total{cache=\"pin\"} 2400\n");
  // The node tiers' occupancy after the failure of node 0.
  EXPECT_EQ(cache.dram_used(0) + cache.ssd_used(0), 0u);
  EXPECT_EQ(cache.dram_used(1), 800u);
  EXPECT_EQ(cache.ssd_used(2), 1200u);
}

TEST(CrossCluster, ReadThroughFetchAndLocalization) {
  CacheManager cluster_a(small_config());
  CacheManager cluster_b(small_config());
  CrossClusterBridge bridge(&cluster_b, &cluster_a);  // b reads through a

  // Researchers on cluster A stash an artifact.
  sim::VirtualClock wa;
  cluster_a.put(wa, 0, "vina/shared", blob(300, 'z'));

  // Cluster B's first read goes over the WAN...
  sim::VirtualClock wan_read;
  auto got = bridge.get(wan_read, 2, "vina/shared");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 300u);
  EXPECT_EQ(bridge.stats().peer_fetches, 1u);
  EXPECT_EQ(bridge.stats().bytes_over_wan, 300u);
  EXPECT_GE(wan_read.now(), sim::from_millis(30));  // WAN latency paid

  // ...and localizes the artifact: the second read is cluster-B-local
  // and much cheaper.
  sim::VirtualClock local_read;
  ASSERT_TRUE(bridge.get(local_read, 2, "vina/shared").has_value());
  EXPECT_EQ(bridge.stats().local_hits, 1u);
  EXPECT_LT(local_read.now(), wan_read.now() / 10);
}

TEST(CrossCluster, MissInBothClusters) {
  CacheManager a(small_config());
  CacheManager b(small_config());
  CrossClusterBridge bridge(&b, &a);
  sim::VirtualClock clock;
  EXPECT_FALSE(bridge.get(clock, 0, "nowhere").has_value());
  EXPECT_EQ(bridge.stats().misses, 1u);
}

TEST(CrossCluster, WritesStayLocal) {
  CacheManager a(small_config());
  CacheManager b(small_config());
  CrossClusterBridge bridge(&b, &a);
  sim::VirtualClock clock;
  bridge.put(clock, 0, "local-artifact", blob(64));
  EXPECT_TRUE(b.contains("local-artifact"));
  EXPECT_FALSE(a.contains("local-artifact"));
}

// QueryResult::cache_hits/cache_misses are *derived* from the same
// registry counters the cache manager records (telemetry equivalence):
// summed over a cold and a warm run of the same cached INVOKE, they must
// account for every counter increment exactly — no parallel bookkeeping.
TEST(CacheEngineEquivalence, QueryResultCountersMatchRegistry) {
  telemetry::MetricsRegistry reg;
  CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 10 << 20;
  cc.metrics = &reg;
  cc.name = "eq";
  CacheManager cache(cc);

  constexpr int kRanks = 4;
  auto triples = std::make_unique<graph::TripleStore>(kRanks);
  auto features = std::make_unique<store::FeatureStore>(kRanks);
  auto& d = triples->dict();
  for (int i = 0; i < 10; ++i) {
    std::string person = "person" + std::to_string(i);
    triples->add(person, "type", "Person");
    features->set(*d.lookup(person), "age", 20.0 + i);
  }
  triples->finalize();
  features->freeze();

  core::EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  core::IdsEngine eng(opts, triples.get(), features.get());
  eng.registry().register_static(
      "expensive",
      [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        auto age = ctx.features->get_double(e->id, "age");
        return udf::UdfResult{age ? *age : 0.0, sim::from_seconds(30.0)};
      });
  core::Query q;
  q.patterns.push_back({graph::PatternTerm::Var("x"),
                        graph::PatternTerm::Const(*d.lookup("type")),
                        graph::PatternTerm::Const(*d.lookup("Person"))});
  core::InvokeClause inv;
  inv.udf = "expensive";
  inv.args = {expr::Expr::Var("x")};
  inv.out_var = "v";
  inv.use_cache = true;
  inv.cache_prefix = "exp";
  q.invokes.push_back(inv);

  core::QueryResult cold = eng.execute(q);  // misses; results get stashed
  core::QueryResult warm = eng.execute(q);  // every row served from cache

  CacheStats cs = cache.stats();
  EXPECT_EQ(cold.cache_misses, 10u);
  EXPECT_EQ(cold.cache_hits + warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, 10u);
  EXPECT_EQ(cold.cache_hits + warm.cache_hits, cs.total_hits());
  EXPECT_EQ(cold.cache_misses + warm.cache_misses, cs.misses);

  // The stats struct itself is a view over the same registry counters.
  EXPECT_EQ(cs.misses,
            reg.counter("ids_cache_misses_total", {{"cache", "eq"}})->value());
  EXPECT_EQ(cs.hits[ReadTier::kLocalDram],
            reg.counter("ids_cache_hits_total",
                        {{"cache", "eq"}, {"tier", "local_dram"}})
                ->value());
  EXPECT_EQ(cs.puts,
            reg.counter("ids_cache_puts_total", {{"cache", "eq"}})->value());
}

// The per-query cache figures that must not depend on other clients.
struct QueryCacheFigures {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> tiers;
  std::uint64_t account_misses = 0;
  std::uint64_t bytes_written = 0;
  double total_seconds = 0.0;
};

QueryCacheFigures figures_of(const core::QueryResult& r) {
  QueryCacheFigures f{r.cache_hits,
                      r.cache_misses,
                      {},
                      r.account.cache_misses,
                      r.account.cache_bytes_written,
                      r.total_seconds};
  for (const auto& t : r.account.tiers) {
    f.tiers.emplace_back(t.tier, t.bytes_in, t.hits);
  }
  return f;
}

// A query's cache figures come from its own reads and writes: another
// client working on the same cache while the query runs changes none of
// them. The other client's traffic comes from inside the INVOKE UDF (a
// miss, a hit and a put on every call), so the interleaving is fixed.
TEST(CacheEngineIsolation, OtherClientsTrafficLeavesTheQueryUnchanged) {
  auto run = [](bool other_traffic) {
    telemetry::MetricsRegistry reg;
    CacheConfig cc;
    cc.num_nodes = 2;
    cc.dram_capacity_bytes = 10 << 20;
    cc.serialization_service_seconds = 0.21;
    cc.metrics = &reg;
    CacheManager cache(cc);

    constexpr int kRanks = 4;
    graph::TripleStore triples(kRanks);
    store::FeatureStore features(kRanks);
    for (int i = 0; i < 10; ++i) {
      triples.add("person" + std::to_string(i), "type", "Person");
    }
    triples.finalize();
    features.freeze();
    const graph::Dictionary& d = triples.dict();

    sim::VirtualClock setup;
    cache.put(setup, 0, "other/present", blob(64));
    // Half of the query's rows are cached before it runs, so it both hits
    // and misses.
    for (int i = 0; i < 10; i += 2) {
      cache.put(setup, 0, "probe/person" + std::to_string(i), "1;");
    }

    core::EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.metrics = &reg;
    core::IdsEngine eng(opts, &triples, &features);
    eng.registry().register_static(
        "probe", [&cache, other_traffic](const udf::UdfContext& ctx,
                                         std::span<const expr::Value>) {
          if (other_traffic) {
            sim::VirtualClock own;
            EXPECT_FALSE(cache.get(own, 1, "other/absent").has_value());
            EXPECT_TRUE(cache.get(own, 1, "other/present").has_value());
            cache.put(own, 1, "other/rank" + std::to_string(ctx.rank),
                      blob(32));
          }
          return udf::UdfResult{2.0, sim::from_millis(1)};
        });
    core::Query q;
    q.patterns.push_back({graph::PatternTerm::Var("x"),
                          graph::PatternTerm::Const(*d.lookup("type")),
                          graph::PatternTerm::Const(*d.lookup("Person"))});
    core::InvokeClause inv;
    inv.udf = "probe";
    inv.args = {expr::Expr::Var("x")};
    inv.out_var = "v";
    inv.use_cache = true;
    inv.cache_prefix = "probe";
    q.invokes.push_back(inv);
    return figures_of(eng.execute(q));
  };

  const QueryCacheFigures quiet = run(false);
  EXPECT_EQ(quiet.hits, 5u);
  EXPECT_EQ(quiet.misses, 5u);
  EXPECT_EQ(quiet.account_misses, 5u);
  EXPECT_GT(quiet.bytes_written, 0u);
  ASSERT_FALSE(quiet.tiers.empty());
  // Ten serialized operations (five hits, five puts) at 0.21 s each bound
  // the INVOKE stage from below.
  EXPECT_GE(quiet.total_seconds, 2.1);
  EXPECT_LT(quiet.total_seconds, 2.5);

  const QueryCacheFigures busy = run(true);
  EXPECT_EQ(busy.hits, quiet.hits);
  EXPECT_EQ(busy.misses, quiet.misses);
  EXPECT_EQ(busy.tiers, quiet.tiers);
  EXPECT_EQ(busy.account_misses, quiet.account_misses);
  EXPECT_EQ(busy.bytes_written, quiet.bytes_written);
  EXPECT_EQ(busy.total_seconds, quiet.total_seconds);
}

}  // namespace
}  // namespace ids::cache
