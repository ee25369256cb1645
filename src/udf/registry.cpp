#include "udf/registry.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/profiler.h"

namespace ids::udf {

namespace {

// Process-wide registration/load counters (all registries report into the
// global registry: these describe code-loading activity, not one engine).
telemetry::Counter* registered_counter(const char* kind) {
  return telemetry::MetricsRegistry::global().counter(
      "ids_udf_registered_total", {{"kind", kind}});
}

}  // namespace

bool UdfRegistry::register_static(std::string name, UdfFn fn) {
  MutexLock lock(mutex_);
  if (udfs_.contains(name)) return false;
  UdfInfo info;
  info.name = name;
  info.fn = std::move(fn);
  info.dynamic = false;
  udfs_[std::move(name)].push_back(
      std::make_unique<UdfInfo>(std::move(info)));
  registered_counter("static")->inc();
  return true;
}

bool UdfRegistry::register_dynamic(std::string module, std::string method,
                                   UdfFn fn, sim::Nanos load_cost) {
  MutexLock lock(mutex_);
  std::string name = module + "." + method;
  if (auto it = udfs_.find(name);
      it != udfs_.end() && !it->second.back()->dynamic) {
    return false;  // a static UDF cannot be replaced
  }
  UdfInfo info;
  info.name = name;
  info.module = std::move(module);
  info.fn = std::move(fn);
  info.dynamic = true;
  info.module_load_cost = load_cost;
  udfs_[std::move(name)].push_back(
      std::make_unique<UdfInfo>(std::move(info)));
  registered_counter("dynamic")->inc();
  return true;
}

const UdfInfo* UdfRegistry::find(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = udfs_.find(std::string(name));
  if (it == udfs_.end()) return nullptr;
  return it->second.back().get();
}

sim::Nanos UdfRegistry::charge_module_load(int rank, const UdfInfo& info) {
  if (!info.dynamic || info.module_load_cost == 0) return 0;
  MutexLock lock(mutex_);
  auto [it, inserted] = loaded_.emplace(rank, info.module);
  (void)it;
  if (inserted) {
    telemetry::MetricsRegistry::global()
        .counter("ids_udf_module_loads_total", {{"module", info.module}})
        ->inc();
  }
  return inserted ? info.module_load_cost : 0;
}

UdfResult UdfRegistry::call(const UdfInfo& info, const UdfContext& ctx,
                            std::span<const expr::Value> args, double speed,
                            UdfStats& tally,
                            telemetry::Histogram* exec_seconds) {
  const sim::Nanos load = charge_module_load(ctx.rank, info);
  UdfResult r = [&] {
    // Attribute execution to the UDF by name; UdfInfo outlives every
    // query, so the pointer stays valid for the profiler.
    telemetry::ProfileScope udf_scope(info.name.c_str());
    return info.fn(ctx, args);
  }();
  const auto scaled = static_cast<sim::Nanos>(
      static_cast<double>(r.modeled_cost) / speed);
  ++tally.execs;
  tally.total_time += scaled;
  if (exec_seconds != nullptr) exec_seconds->observe(sim::to_seconds(scaled));
  r.modeled_cost = load + scaled;
  return r;
}

void UdfRegistry::force_reload(std::string_view module) {
  telemetry::MetricsRegistry::global()
      .counter("ids_udf_module_reloads_total")
      ->inc();
  MutexLock lock(mutex_);
  for (auto it = loaded_.begin(); it != loaded_.end();) {
    if (it->second == module) {
      it = loaded_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::string> UdfRegistry::names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(udfs_.size());
  for (const auto& [name, versions] : udfs_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

QueryUdfs::QueryUdfs(UdfRegistry& registry,
                     const std::vector<std::string>& names, int num_ranks,
                     telemetry::MetricsRegistry* metrics)
    : registry_(&registry),
      metrics_(metrics),
      tally_(names, num_ranks),
      slots_(std::make_unique<Slot[]>(tally_.names().size())) {
  for (std::size_t i = 0; i < tally_.names().size(); ++i) {
    slots_[i].info = registry.find(tally_.names()[i]);
  }
}

UdfResult QueryUdfs::call(std::size_t i, const UdfContext& ctx,
                          std::span<const expr::Value> args, double speed) {
  Slot& slot = slots_[i];
  if (metrics_ != nullptr) {
    std::call_once(slot.once, [&] {
      slot.exec_seconds = metrics_->histogram(
          "ids_udf_exec_seconds", telemetry::latency_seconds_buckets(),
          {{"udf", tally_.names()[i]}});
    });
  }
  return registry_->call(*slot.info, ctx, args, speed,
                         tally_.row(ctx.rank)[i], slot.exec_seconds);
}

}  // namespace ids::udf
