#include "udf/registry.h"

#include <algorithm>

#include "telemetry/metrics.h"

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

void UdfRegistry::register_dynamic(std::string module, std::string method,
                                   UdfFn fn, sim::Nanos load_cost) {
  MutexLock lock(mutex_);
  std::string name = module + "." + method;
  UdfInfo info;
  info.name = name;
  info.module = std::move(module);
  info.fn = std::move(fn);
  info.dynamic = true;
  info.module_load_cost = load_cost;
  udfs_[std::move(name)].push_back(
      std::make_unique<UdfInfo>(std::move(info)));
  registered_counter("dynamic")->inc();
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

}  // namespace ids::udf
