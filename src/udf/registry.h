#pragma once

// User-defined function registry and module cache.
//
// Mirrors §2.3 of the paper: IDS supports (i) *static* UDFs compiled in at
// launch (CGE's shared-object path, tracked by unique name) and (ii)
// *dynamic* UDFs loaded at query time (the Python path, tracked by module
// name + method name). Loading a dynamic module is expensive, so a
// per-rank module cache charges the import cost only on first use; a
// force_reload API invalidates a module so edited user code takes effect,
// paying the load cost again.

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "expr/value.h"
#include "sim/time.h"

namespace ids::store {
class FeatureStore;
class VectorStore;
}  // namespace ids::store

namespace ids::udf {

class UdfProfiler;  // udf/profiler.h

/// Read-only services a UDF may use, plus the rank identity and a
/// deterministic per-call RNG stream.
struct UdfContext {
  int rank = 0;
  const store::FeatureStore* features = nullptr;
  const store::VectorStore* vectors = nullptr;
  Rng* rng = nullptr;
};

/// A UDF returns its value plus the *modeled* execution cost. Separating
/// modeled cost from wall time keeps the simulation deterministic: the real
/// kernel runs at laptop scale while the cost reflects the paper's
/// measured per-call magnitudes.
struct UdfResult {
  expr::Value value;
  sim::Nanos modeled_cost = 0;
};

using UdfFn = std::function<UdfResult(const UdfContext&, std::span<const expr::Value>)>;

struct UdfInfo {
  std::string name;        // fully qualified: "sw_similarity" or "mod.fn"
  std::string module;      // empty for static UDFs
  UdfFn fn;
  bool dynamic = false;
  sim::Nanos module_load_cost = 0;  // one-time per-rank import cost
};

class UdfRegistry {
 public:
  /// Registers a compiled-in UDF under a unique name. Static UDFs cannot be
  /// replaced once registered (the paper notes the shared-object path "was
  /// static because they cannot be modified once IDS launched").
  /// Returns false if the name exists.
  bool register_static(std::string name, UdfFn fn) IDS_EXCLUDES(mutex_);

  /// Registers (or replaces) a dynamically loaded UDF as `module.method`.
  /// `load_cost` models the module import time charged once per rank.
  void register_dynamic(std::string module, std::string method, UdfFn fn,
                        sim::Nanos load_cost) IDS_EXCLUDES(mutex_);

  /// Looks up a UDF by its qualified name. nullptr if absent. The pointee
  /// is never modified and stays valid for the registry's lifetime:
  /// re-registering a dynamic name publishes a new UdfInfo, and a caller
  /// holding the old one (e.g. a running query) keeps using it.
  const UdfInfo* find(std::string_view name) const IDS_EXCLUDES(mutex_);

  /// Returns the modeled cost this rank must pay before calling `info`
  /// (the module import on first touch), and marks the module loaded.
  sim::Nanos charge_module_load(int rank, const UdfInfo& info)
      IDS_EXCLUDES(mutex_);

  /// Executes `info` once on rank `ctx.rank` under the one call protocol
  /// FILTER and INVOKE share: the module-load charge on first touch, a
  /// profiler scope named after the UDF, the modeled cost divided by the
  /// rank's `speed` (> 0), and that scaled cost recorded in `profiler`
  /// (when set). Returns the UDF's value and the modeled cost the caller
  /// charges: the load charge plus the scaled execution cost.
  UdfResult call(const UdfInfo& info, const UdfContext& ctx,
                 std::span<const expr::Value> args, double speed,
                 UdfProfiler* profiler) IDS_EXCLUDES(mutex_);

  /// Drops the module from every rank's cache; next call per rank pays the
  /// load cost again. Models the paper's "special function that forces IDS
  /// to reload the module".
  void force_reload(std::string_view module) IDS_EXCLUDES(mutex_);

  std::vector<std::string> names() const IDS_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  // Every registered version of each UDF, newest last; entries are never
  // modified after insertion (see find()).
  std::unordered_map<std::string, std::vector<std::unique_ptr<UdfInfo>>> udfs_
      IDS_GUARDED_BY(mutex_);
  // (rank, module) pairs whose import cost has been charged.
  std::set<std::pair<int, std::string>> loaded_ IDS_GUARDED_BY(mutex_);
};

}  // namespace ids::udf
