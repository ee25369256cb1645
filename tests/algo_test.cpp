// Graph algorithm tests: PageRank properties on known topologies, BFS vs
// naive distances, components on disjoint cliques — across shard counts
// (parameterized), since results must be partition-invariant.

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <string>
#include <string_view>

#include "algo/graph_algorithms.h"
#include "common/rng.h"

namespace ids::algo {
namespace {

using graph::TermId;
using graph::TripleStore;

constexpr const char* kEdge = "edge";

/// Vertex name `prefix` + `i`, built by appending to one string.
std::string vertex(std::string_view prefix, int i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

std::unique_ptr<TripleStore> ring_graph(int n, int shards) {
  auto store = std::make_unique<TripleStore>(shards);
  for (int i = 0; i < n; ++i) {
    store->add(vertex("v", i), kEdge, vertex("v", (i + 1) % n));
  }
  store->finalize();
  return store;
}

class AlgoShards : public ::testing::TestWithParam<int> {};

TEST_P(AlgoShards, PageRankUniformOnRing) {
  const int shards = GetParam();
  auto store = ring_graph(12, shards);
  runtime::Topology topo = runtime::Topology::laptop(shards);
  PageRankResult r = pagerank(*store, topo);
  ASSERT_EQ(r.rank.size(), 12u);
  double sum = 0.0;
  for (const auto& [v, pr] : r.rank) {
    EXPECT_NEAR(pr, 1.0 / 12.0, 1e-6);  // symmetric graph: uniform rank
    sum += pr;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.modeled_seconds, 0.0);
}

TEST_P(AlgoShards, PageRankStarCenterWins) {
  const int shards = GetParam();
  TripleStore store(shards);
  for (int i = 1; i <= 8; ++i) {
    store.add("leaf" + std::to_string(i), kEdge, "center");
    store.add("center", kEdge, "leaf" + std::to_string(i));
  }
  store.finalize();
  runtime::Topology topo = runtime::Topology::laptop(shards);
  PageRankResult r = pagerank(store, topo);
  TermId center = *store.dict().lookup("center");
  double center_rank = r.rank.at(center);
  for (const auto& [v, pr] : r.rank) {
    if (v != center) {
      EXPECT_GT(center_rank, pr * 3);
    }
  }
}

TEST_P(AlgoShards, PageRankPartitionInvariant) {
  // The same graph must produce the same ranks regardless of sharding.
  auto a = ring_graph(20, GetParam());
  auto b = ring_graph(20, 1);
  PageRankResult ra = pagerank(*a, runtime::Topology::laptop(GetParam()));
  PageRankResult rb = pagerank(*b, runtime::Topology::laptop(1));
  for (const auto& [v, pr] : ra.rank) {
    // Dictionaries assign identical ids (same insert order).
    EXPECT_NEAR(pr, rb.rank.at(v), 1e-9);
  }
}

TEST_P(AlgoShards, BfsDistancesMatchNaive) {
  const int shards = GetParam();
  // Random graph, then compare against a serial BFS.
  TripleStore store(shards);
  Rng rng(42);
  const int n = 40;
  std::vector<std::pair<int, int>> edge_list;
  for (int i = 0; i < 90; ++i) {
    int u = static_cast<int>(rng.next_below(n));
    int v = static_cast<int>(rng.next_below(n));
    if (u == v) continue;
    store.add(vertex("n", u), kEdge, vertex("n", v));
    edge_list.emplace_back(u, v);
  }
  store.finalize();

  TermId source = *store.dict().lookup(vertex("n", edge_list[0].first));
  BfsResult got = bfs(store, runtime::Topology::laptop(shards), source);

  // Naive undirected BFS over the integer edge list.
  std::vector<std::vector<int>> adj(n);
  for (auto [u, v] : edge_list) {
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  }
  std::vector<int> dist(n, -1);
  std::queue<int> q;
  q.push(edge_list[0].first);
  dist[static_cast<std::size_t>(edge_list[0].first)] = 0;
  while (!q.empty()) {
    int u = q.front();
    q.pop();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
        q.push(v);
      }
    }
  }
  for (int v = 0; v < n; ++v) {
    auto id = store.dict().lookup(vertex("n", v));
    if (!id) continue;  // vertex never materialized
    auto it = got.distance.find(*id);
    if (dist[static_cast<std::size_t>(v)] < 0) {
      EXPECT_EQ(it, got.distance.end());
    } else {
      ASSERT_NE(it, got.distance.end()) << "n" << v;
      EXPECT_EQ(it->second, dist[static_cast<std::size_t>(v)]) << "n" << v;
    }
  }
}

TEST_P(AlgoShards, ComponentsOnDisjointCliques) {
  const int shards = GetParam();
  TripleStore store(shards);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        const std::string clique = vertex("c", c) + "_";
        store.add(vertex(clique, i), kEdge, vertex(clique, j));
      }
    }
  }
  store.finalize();
  ComponentsResult r =
      connected_components(store, runtime::Topology::laptop(shards));
  EXPECT_EQ(r.num_components, 3u);
  // All vertices of a clique share a label.
  for (int c = 0; c < 3; ++c) {
    const std::string clique = vertex("c", c) + "_";
    TermId first = *store.dict().lookup(vertex(clique, 0));
    for (int i = 1; i < 4; ++i) {
      TermId v = *store.dict().lookup(vertex(clique, i));
      EXPECT_EQ(r.component.at(v), r.component.at(first));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AlgoShards,
                         ::testing::Values(1, 4, 16));

TEST(Algo, PredicateFilterRestrictsEdges) {
  TripleStore store(4);
  store.add("a", "follows", "b");
  store.add("b", "follows", "c");
  store.add("a", "other", "z");
  store.finalize();
  TermId follows = *store.dict().lookup("follows");
  TermId a = *store.dict().lookup("a");
  BfsResult r = bfs(store, runtime::Topology::laptop(4), a, follows);
  EXPECT_EQ(r.distance.size(), 3u);  // a, b, c — not z
  EXPECT_FALSE(r.distance.contains(*store.dict().lookup("z")));
}

TEST(Algo, EmptyGraphIsSafe) {
  TripleStore store(4);
  store.finalize();
  PageRankResult pr = pagerank(store, runtime::Topology::laptop(4));
  EXPECT_TRUE(pr.rank.empty());
  ComponentsResult cc =
      connected_components(store, runtime::Topology::laptop(4));
  EXPECT_EQ(cc.num_components, 0u);
}

TEST(Algo, ModeledTimeGrowsWithMachineCommunication) {
  // The same algorithm on a multi-node machine pays fabric costs a
  // single node does not.
  auto store = ring_graph(64, 64);
  PageRankResult local = pagerank(*store, runtime::Topology::laptop(64));
  PageRankResult multi = pagerank(*store, runtime::Topology::cray_ex(2));
  EXPECT_GT(multi.modeled_seconds, local.modeled_seconds);
}

}  // namespace
}  // namespace ids::algo
