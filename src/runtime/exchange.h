#pragma once

// Modeled cost of the MPI collectives the Cray Graph Engine pipeline
// relies on (redistribution between scans/joins/filters, global solution
// syncs). The rows themselves move in memory (graph::exchange_by_key and
// the engine's re-balancing); this header only *costs* the movement on the
// per-rank virtual clocks with the alpha-beta link model:
//
//   alltoallv  — per rank: one alpha per peer message plus
//                max(bytes_sent, bytes_received) / bandwidth, split by
//                intra- vs inter-node traffic; synchronizing. Booked
//                message by message in a TrafficLedger.
//   tree collective — log2(P) steps, each alpha + step_bytes / bandwidth;
//                synchronizing (global merges and small syncs).
//
// Every collective ends with a clock barrier, exactly like the global
// solution syncs in the paper (§2.4.3: "ranks will sync solutions globally
// only once the evaluations are complete").

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/topology.h"
#include "sim/virtual_clock.h"

namespace ids::runtime {

/// Per-rank traffic summary for one alltoallv, used to charge clocks.
struct TrafficSummary {
  std::uint64_t intra_sent = 0;
  std::uint64_t inter_sent = 0;
  std::uint64_t intra_recv = 0;
  std::uint64_t inter_recv = 0;
  std::uint64_t messages = 0;
};

/// Charges one rank's clock for the traffic it sourced/sank, then the
/// caller barriers. Exposed for testing.
inline void charge_traffic(sim::VirtualClock& clock, const Topology& topo,
                           const TrafficSummary& t) {
  const auto& intra = topo.fabric.intra_node;
  const auto& inter = topo.fabric.inter_node;
  sim::Nanos cost = 0;
  cost += t.messages * inter.latency;  // alpha per message (worst-case link)
  std::uint64_t intra_traffic = std::max(t.intra_sent, t.intra_recv);
  std::uint64_t inter_traffic = std::max(t.inter_sent, t.inter_recv);
  cost += sim::from_seconds(static_cast<double>(intra_traffic) /
                            intra.bytes_per_second);
  cost += sim::from_seconds(static_cast<double>(inter_traffic) /
                            inter.bytes_per_second);
  clock.advance(cost);
}

/// The traffic of one alltoallv, booked message by message: send() records
/// what rank src ships to rank dst, charge() costs every rank's share and
/// synchronizes the clocks.
class TrafficLedger {
 public:
  explicit TrafficLedger(const Topology& topo)
      : topo_(topo), traffic_(static_cast<std::size_t>(topo.num_ranks())) {}

  /// Books one src -> dst message of `bytes`, intra- or inter-node by
  /// topology. A rank's message to itself travels no link and is free.
  void send(int src, int dst, std::uint64_t bytes) {
    if (src == dst) return;
    auto& ts = traffic_[static_cast<std::size_t>(src)];
    auto& td = traffic_[static_cast<std::size_t>(dst)];
    ++ts.messages;
    if (topo_.same_node(src, dst)) {
      ts.intra_sent += bytes;
      td.intra_recv += bytes;
    } else {
      ts.inter_sent += bytes;
      td.inter_recv += bytes;
    }
  }

  /// Charges every rank for its booked traffic, then barriers.
  void charge(sim::ClockSet& clocks) const {
    for (std::size_t r = 0; r < traffic_.size(); ++r) {
      charge_traffic(clocks.at(r), topo_, traffic_[r]);
    }
    clocks.barrier();
  }

 private:
  const Topology& topo_;
  std::vector<TrafficSummary> traffic_;
};

/// Charges all clocks for a log2(P)-step tree collective moving
/// `bytes_per_step` per step, then barriers.
inline void charge_tree_collective(sim::ClockSet& clocks, const Topology& topo,
                                   std::uint64_t bytes_per_step) {
  const int p = topo.num_ranks();
  int steps = 0;
  while ((1 << steps) < p) ++steps;
  const auto& link = (topo.num_nodes > 1) ? topo.fabric.inter_node
                                          : topo.fabric.intra_node;
  sim::Nanos per_step = link.transfer_cost(bytes_per_step);
  for (std::size_t r = 0; r < clocks.size(); ++r) {
    clocks.at(r).advance(static_cast<sim::Nanos>(steps) * per_step);
  }
  clocks.barrier();
}

}  // namespace ids::runtime
