#include "runtime/rank_exec.h"

#include "common/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"

namespace ids::runtime {

void for_each_rank(int num_ranks, const char* scope,
                   const std::function<void(int)>& fn) {
  // Resolved on first use so the registry exists; pointers into the
  // (leaked) global registry stay valid for the process lifetime.
  static telemetry::Counter* const steps =
      telemetry::MetricsRegistry::global().counter(
          "ids_runtime_rank_steps_total", {{"mode", "parallel"}});
  static telemetry::Counter* const invocations =
      telemetry::MetricsRegistry::global().counter(
          "ids_runtime_rank_invocations_total", {{"mode", "parallel"}});
  steps->inc();
  invocations->inc(static_cast<std::uint64_t>(num_ranks));
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(num_ranks), [scope, &fn](std::size_t i) {
        telemetry::ProfileScope profile(scope);
        fn(static_cast<int>(i));
      });
}

}  // namespace ids::runtime
