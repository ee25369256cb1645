// Multi-threaded hammer tests for the shared-state subsystems, designed to
// give -fsanitize=thread real races to hunt (build-tsan runs this same
// binary). Each test spins several OS threads against one shared object
// with overlapping key sets, then checks cross-thread invariants that only
// hold if the internal locking is airtight. Iteration counts are sized so
// the suite stays in the low seconds even single-core under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cache/cross_cluster.h"
#include "cache/manager.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/rebalancer.h"
#include "graph/dictionary.h"
#include "sim/virtual_clock.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids {
namespace {

constexpr int kThreads = 4;

/// Runs fn(thread_index) on kThreads OS threads and joins them. Real
/// std::threads, not the pool: TSan should watch genuinely concurrent
/// callers, and the pool itself is one of the systems under test.
template <typename Fn>
void hammer(const Fn& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& th : threads) th.join();
}

TEST(ConcurrencyStress, CacheManagerGetPutEvictAcrossTiers) {
  cache::CacheConfig cfg;
  cfg.num_nodes = 3;
  // Tiny tiers so concurrent puts force constant DRAM eviction and SSD
  // spill/drop traffic — the interesting interleavings.
  cfg.dram_capacity_bytes = 4 << 10;
  cfg.ssd_capacity_bytes = 8 << 10;
  cache::CacheManager cache(cfg);

  constexpr int kObjects = 24;
  constexpr int kOpsPerThread = 300;

  hammer([&](int t) {
    sim::VirtualClock clock;  // per-thread clock, like per-rank execution
    Rng rng(0xace0 + static_cast<std::uint64_t>(t));
    int node = t % cfg.num_nodes;
    for (int i = 0; i < kOpsPerThread; ++i) {
      auto obj = static_cast<int>(rng.next_below(kObjects));
      std::string name = "obj/" + std::to_string(obj);
      switch (rng.next_below(8)) {
        case 0:
          cache.put(clock, node, name,
                    std::string(512 + 16 * static_cast<std::size_t>(obj), 'x'));
          break;
        case 1:
          cache.invalidate(name);
          break;
        case 2:
          (void)cache.locations(name);
          break;
        case 3:
          (void)cache.estimated_get_cost(node, name);
          break;
        case 4:
          (void)cache.contains(name);
          break;
        case 5:
          cache.relocate(clock, name, static_cast<int>(rng.next_below(
                                          static_cast<std::uint64_t>(cfg.num_nodes))));
          break;
        default: {
          auto hit = cache.get(clock, node, name);
          if (hit.has_value()) {
            // Payload integrity: size is a pure function of the object id.
            EXPECT_EQ(hit.payload->size(), 512 + 16 * static_cast<std::size_t>(obj));
          }
          break;
        }
      }
    }
  });

  // Accounting invariants survive the storm.
  for (int n = 0; n < cfg.num_nodes; ++n) {
    EXPECT_LE(cache.dram_used(n), cfg.dram_capacity_bytes);
    EXPECT_LE(cache.ssd_used(n), cfg.ssd_capacity_bytes);
  }
  const cache::CacheStats stats = cache.stats();
  EXPECT_GT(stats.puts, 0u);
}

TEST(ConcurrencyStress, CacheManagerNodeFailureDuringTraffic) {
  cache::CacheConfig cfg;
  cfg.num_nodes = 2;
  cache::CacheManager cache(cfg);
  std::atomic<bool> stop{false};

  std::thread failer([&] {
    for (int i = 0; i < 50; ++i) {
      cache.fail_node(i % cfg.num_nodes);
      std::this_thread::yield();
    }
    stop.store(true);
  });

  hammer([&](int t) {
    sim::VirtualClock clock;
    int node = t % cfg.num_nodes;
    for (int i = 0; !stop.load() && i < 2000; ++i) {
      std::string name = "f/" + std::to_string(i % 8);
      cache.put(clock, node, name, "payload-" + std::to_string(i % 8));
      auto hit = cache.get(clock, node, name);
      // Write-through means a name we just put can never fully miss, even
      // if the owning node was failed in between: backing store survives.
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit.payload->rfind("payload-", 0), 0u);
    }
  });
  failer.join();
}

TEST(ConcurrencyStress, CrossClusterBridgeStats) {
  cache::CacheConfig cfg;
  cfg.num_nodes = 2;
  cache::CacheManager local(cfg), peer(cfg);
  cache::CrossClusterBridge bridge(&local, &peer, {0, 1.0e9});

  {
    sim::VirtualClock clock;
    for (int i = 0; i < 8; ++i) {
      peer.put(clock, 0, "peer/" + std::to_string(i), std::string(64, 'p'));
    }
  }

  constexpr int kOps = 200;
  hammer([&](int t) {
    sim::VirtualClock clock;
    Rng rng(0xb41d6e + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kOps; ++i) {
      switch (rng.next_below(3)) {
        case 0:
          bridge.put(clock, 0, "local/" + std::to_string(rng.next_below(4)),
                     std::string(32, 'l'));
          break;
        case 1:
          (void)bridge.get(clock, 0, "peer/" + std::to_string(rng.next_below(8)));
          break;
        default:
          (void)bridge.get(clock, 0, "absent/" + std::to_string(rng.next_below(4)));
          break;
      }
    }
  });

  const cache::BridgeStats stats = bridge.stats();
  // Every get resolved to exactly one of the three counters.
  EXPECT_GT(stats.local_hits + stats.peer_fetches + stats.misses, 0u);
  EXPECT_LE(stats.local_hits + stats.peer_fetches + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(ConcurrencyStress, EnginesSharingOneCacheEachSeeTheirSoloFigures) {
  // Two engines share one cache and run the same cached INVOKE query at
  // the same time under distinct cache prefixes. Each query's cache
  // figures and modeled time must equal those of the engine's solo run:
  // a query counts only its own cache reads and writes.
  constexpr int kRanks = 4;
  graph::TripleStore triples(kRanks);
  store::FeatureStore features(kRanks);
  for (int i = 0; i < 24; ++i) {
    triples.add("item" + std::to_string(i), "type", "Item");
  }
  triples.finalize();
  features.freeze();
  const graph::Dictionary& d = triples.dict();
  core::Query q;
  q.patterns.push_back({graph::PatternTerm::Var("x"),
                        graph::PatternTerm::Const(*d.lookup("type")),
                        graph::PatternTerm::Const(*d.lookup("Item"))});
  core::InvokeClause inv;
  inv.udf = "work";
  inv.args = {expr::Expr::Var("x")};
  inv.out_var = "v";
  inv.use_cache = true;
  q.invokes.push_back(inv);

  // Cold, warm and warm again, rendered as one line per query.
  auto run_engine = [&](cache::CacheManager& cache, const std::string& prefix) {
    telemetry::MetricsRegistry reg;
    core::EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    opts.metrics = &reg;
    core::IdsEngine eng(opts, &triples, &features);
    eng.registry().register_static(
        "work", [](const udf::UdfContext& ctx, std::span<const expr::Value>) {
          return udf::UdfResult{static_cast<double>(ctx.rank),
                                sim::from_millis(1)};
        });
    core::Query mine = q;
    mine.invokes[0].cache_prefix = prefix;
    std::vector<std::string> lines;
    for (int i = 0; i < 3; ++i) {
      const core::QueryResult r = eng.execute(mine);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "hits=%zu misses=%zu acct_misses=%llu written=%llu "
                    "total=%.17g tiers=",
                    r.cache_hits, r.cache_misses,
                    static_cast<unsigned long long>(r.account.cache_misses),
                    static_cast<unsigned long long>(
                        r.account.cache_bytes_written),
                    r.total_seconds);
      std::string text = line;
      for (const auto& t : r.account.tiers) {
        text += t.tier + ":" + std::to_string(t.hits) + "/" +
                std::to_string(t.bytes_in) + " ";
      }
      lines.push_back(text);
    }
    return lines;
  };
  auto cache_config = [] {
    cache::CacheConfig cc;
    cc.num_nodes = 2;
    cc.dram_capacity_bytes = 16 << 20;  // no evictions: tiers stay fixed
    cc.serialization_service_seconds = 0.01;
    return cc;
  };

  const std::vector<std::string> prefixes = {"e0", "e1"};
  std::vector<std::vector<std::string>> solo;
  for (const auto& prefix : prefixes) {
    cache::CacheManager own(cache_config());
    solo.push_back(run_engine(own, prefix));
  }
  cache::CacheManager shared(cache_config());
  std::vector<std::vector<std::string>> together(prefixes.size());
  std::vector<std::thread> threads;
  for (std::size_t e = 0; e < prefixes.size(); ++e) {
    threads.emplace_back(
        [&, e] { together[e] = run_engine(shared, prefixes[e]); });
  }
  for (auto& th : threads) th.join();
  for (std::size_t e = 0; e < prefixes.size(); ++e) {
    EXPECT_EQ(together[e], solo[e]) << "engine " << e;
  }
}

TEST(ConcurrencyStress, DictionaryInterning) {
  graph::Dictionary dict;
  constexpr int kTerms = 64;
  constexpr int kRounds = 400;

  std::vector<std::vector<graph::TermId>> seen(
      kThreads, std::vector<graph::TermId>(kTerms, graph::kInvalidTerm));

  hammer([&](int t) {
    Rng rng(0xd1c7 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kRounds; ++i) {
      auto term = static_cast<int>(rng.next_below(kTerms));
      std::string s = "term:" + std::to_string(term);
      graph::TermId id = dict.intern(s);
      ASSERT_NE(id, graph::kInvalidTerm);
      // Interning is idempotent per term, also across threads (checked
      // after the join below); name() round-trips even while other
      // threads keep growing the dictionary.
      if (seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)] !=
          graph::kInvalidTerm) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)], id);
      }
      seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)] = id;
      ASSERT_EQ(dict.name(id), s);
      auto found = dict.lookup(s);
      ASSERT_TRUE(found.has_value());
      ASSERT_EQ(*found, id);
    }
  });

  // Cross-thread agreement: all threads resolved every term to one id.
  EXPECT_EQ(dict.size(), static_cast<std::size_t>(kTerms));
  for (int term = 0; term < kTerms; ++term) {
    graph::TermId expected = graph::kInvalidTerm;
    for (int t = 0; t < kThreads; ++t) {
      graph::TermId id = seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)];
      if (id == graph::kInvalidTerm) continue;
      if (expected == graph::kInvalidTerm) expected = id;
      EXPECT_EQ(id, expected) << "term " << term;
    }
  }
}

TEST(ConcurrencyStress, UdfRegistryRegisterFindReload) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const expr::Value>) {
    return udf::UdfResult{expr::Value(1.0), sim::Nanos(10)};
  };
  ASSERT_TRUE(reg.register_static("stable", fn));

  hammer([&](int t) {
    Rng rng(0x5eed + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 300; ++i) {
      switch (rng.next_below(5)) {
        case 0:
          reg.register_dynamic("mod" + std::to_string(rng.next_below(4)), "f",
                               fn, sim::from_seconds(0.5));
          break;
        case 1:
          reg.force_reload("mod" + std::to_string(rng.next_below(4)));
          break;
        case 2: {
          // Static entries are immutable: the pointer and its contents
          // stay valid under concurrent dynamic churn.
          const udf::UdfInfo* info = reg.find("stable");
          ASSERT_NE(info, nullptr);
          ASSERT_EQ(info->name, "stable");
          ASSERT_FALSE(info->dynamic);
          break;
        }
        case 3: {
          const udf::UdfInfo* info =
              reg.find("mod" + std::to_string(rng.next_below(4)) + ".f");
          if (info != nullptr) {
            (void)reg.charge_module_load(t, *info);
          }
          break;
        }
        default:
          (void)reg.names();
          break;
      }
    }
  });

  // "stable" plus up to 4 dynamic modules.
  std::vector<std::string> names = reg.names();
  EXPECT_GE(names.size(), 1u);
  EXPECT_LE(names.size(), 5u);
}

TEST(ConcurrencyStress, ProfilerCountersFeedRebalancerUnderLoad) {
  // Ranks record execs while the planner thread concurrently reads
  // aggregates and runs re-balancing decisions off the live counters —
  // the paper's §2.4.1/§2.4.2 loop, compressed.
  constexpr int kRanks = kThreads;
  udf::UdfProfiler prof(kRanks);
  std::atomic<bool> stop{false};

  std::thread planner([&] {
    while (!stop.load()) {
      std::vector<double> throughput(kRanks, 0.0);
      for (int r = 0; r < kRanks; ++r) {
        double mean = prof.estimated_cost_seconds(r, "udf");
        throughput[static_cast<std::size_t>(r)] = mean > 0.0 ? 1.0 / mean : 0.0;
      }
      core::RebalanceDecision d = core::decide_rebalance(
          core::RebalancePolicy::kThroughput, {100, 100, 100, 100}, throughput);
      if (d.rebalance) {
        std::size_t total = 0;
        for (std::size_t v : d.targets) total += v;
        // Re-balancing conserves rows no matter how torn its input was.
        ASSERT_EQ(total, 400u);
      }
      std::this_thread::yield();
    }
  });

  constexpr int kExecs = 500;
  hammer([&](int rank) {
    // Rank r's modeled cost is (r+1) ms per exec, so the final per-rank
    // means are exact despite concurrent reads.
    for (int i = 0; i < kExecs; ++i) {
      prof.record_exec(rank, "udf", sim::from_seconds(0.001 * (rank + 1)));
      if (i % 10 == 0) prof.record_reject(rank, "udf");
    }
  });
  stop.store(true);
  planner.join();

  udf::UdfStats agg = prof.aggregate("udf");
  EXPECT_EQ(agg.execs, static_cast<std::uint64_t>(kRanks) * kExecs);
  EXPECT_EQ(agg.rejects, static_cast<std::uint64_t>(kRanks) * (kExecs / 10));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_NEAR(prof.get(r, "udf").mean_cost_seconds(), 0.001 * (r + 1), 1e-9);
  }
}

TEST(ConcurrencyStress, ThreadPoolNestedUseAndReuse) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2);
  }
  // Concurrent parallel_for from several submitter threads: completion
  // latches are per-call, so calls must not steal each other's wakeups.
  hammer([&](int) {
    for (int round = 0; round < 10; ++round) {
      std::atomic<int> count{0};
      pool.parallel_for(32, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(count.load(), 32);
    }
  });
}

}  // namespace
}  // namespace ids
