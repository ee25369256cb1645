#include "cache/cross_cluster.h"

#include <atomic>

namespace ids::cache {

namespace {

std::string next_bridge_name() {
  static std::atomic<int> seq{0};
  return "bridge" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

CrossClusterBridge::CrossClusterBridge(CacheManager* local, CacheManager* peer,
                                       sim::LinkModel wan,
                                       telemetry::MetricsRegistry* metrics,
                                       std::string name)
    : local_(local), peer_(peer), wan_(wan) {
  auto& registry =
      metrics != nullptr ? *metrics : telemetry::MetricsRegistry::global();
  if (name.empty()) name = next_bridge_name();
  auto bridge_counter = [&](const char* metric) {
    return registry.counter(metric, {{"bridge", name}});
  };
  local_hits_ = bridge_counter("ids_bridge_local_hits_total");
  peer_fetches_ = bridge_counter("ids_bridge_peer_fetches_total");
  misses_ = bridge_counter("ids_bridge_misses_total");
  bytes_over_wan_ = bridge_counter("ids_bridge_wan_bytes_total");
}

BridgeStats CrossClusterBridge::stats() const {
  BridgeStats s;
  s.local_hits = local_hits_->value();
  s.peer_fetches = peer_fetches_->value();
  s.misses = misses_->value();
  s.bytes_over_wan = bytes_over_wan_->value();
  return s;
}

std::optional<std::string> CrossClusterBridge::get(sim::VirtualClock& clock,
                                                   int node,
                                                   std::string_view name) {
  // The underlying caches synchronize themselves; the bridge counters are
  // lock-free registry instruments, so the bridge itself needs no mutex.
  CacheRead local = local_->get(clock, node, name);
  if (local.has_value()) {
    local_hits_->inc();
    return std::move(local.payload);
  }

  // Peer fetch: the peer cluster serves it from its best tier (charged on
  // our clock — we wait for the peer's storage plus the WAN transfer),
  // entering the peer at its gateway node 0.
  CacheRead peer = peer_->get(clock, /*node=*/0, name);
  if (!peer.has_value()) {
    misses_->inc();
    return std::nullopt;
  }
  clock.advance(wan_.transfer_cost(peer.payload->size()));
  peer_fetches_->inc();
  bytes_over_wan_->inc(peer.payload->size());

  // Populate the local cluster so the next read is cluster-local.
  local_->put(clock, node, name, *peer.payload);
  return std::move(peer.payload);
}

}  // namespace ids::cache
