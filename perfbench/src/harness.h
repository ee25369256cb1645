#pragma once

// The benchmark's client: runs one workload's episodes, times every query
// from query text (or core::Query) in to core::QueryResult out, checks each
// answer, and keeps what the end-to-end and per-layer metrics are made of.
//
// An episode is a fresh set-up (data, stores, engine, warm-up query)
// followed by a fixed sequence of queries and ingest epochs, all generated
// from the episode's seed. Episode e of a run with seed s uses
// episode_seed(s, e), so a run averages over several inputs while the same
// seed still gives the same inputs. Each answer is digested; where a golden
// file holds digests for the run's seed, they must match.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "spans.h"

namespace perfbench {

namespace core = ::ids::core;
namespace graph = ::ids::graph;
namespace telemetry = ::ids::telemetry;

/// SplitMix64 finalizer: a well-mixed 64-bit value from (seed, salt).
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Sum and count behind one per-layer metric.
struct Acc {
  double sum = 0.0;
  double count = 0.0;
  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};

class Harness {
 public:
  Harness(std::uint64_t seed, SpanRecorder* spans) : run_seed_(seed), spans_(*spans) {}

  /// The current episode's seed; every input of the episode derives from it.
  std::uint64_t seed() const { return mix(run_seed_, digests_.size()); }
  bool traced() const { return spans_.enabled(); }
  SpanRecorder& spans() { return spans_; }

  /// Starts an episode; `traced` turns span recording and layer probes on.
  void begin_episode(bool traced);
  void end_episode();

  /// Times one set-up (data generation, index build and freeze, engine
  /// construction, the warm-up query); each call is one set-up sample.
  void setup(const std::function<void()>& fn);

  /// One timed query. `run` must do exactly the work from query in to
  /// result out and return false (with `*error` set) if the query did not
  /// complete. Returns the result for the caller's cross-checks, or
  /// nullptr when the query failed.
  using QueryFn = std::function<bool(core::QueryResult*, std::string*)>;
  const core::QueryResult* query(const QueryFn& run);

  /// Times one ingest epoch (reopen -> add -> finalize -> freeze).
  void ingest(const std::function<void()>& fn);

  /// Runs harness work (answer checks, bookkeeping) that falls between two
  /// queries without charging it to the episode's query phase.
  template <class F>
  decltype(auto) off_clock(F&& fn) {
    struct Charge {
      Harness& h;
      Clock::time_point t0;
      ~Charge() {
        if (h.phase_started_) h.pending_off_ += seconds_since(t0);
      }
    } charge{*this, Clock::now()};
    return fn();
  }

  /// Records a failed cross-check; the most recent query counts as failed.
  void check(bool ok, const std::string& what);

  /// Times `calls` calls made by `fn` into a layer's public function and
  /// adds the per-call time to `metric`; traced episodes only.
  void probe(const std::string& metric, double calls,
             const std::function<void()>& fn);

  /// Calls `fn`; in traced episodes also records a span `span_name` around
  /// it and adds its wall time to `metric` as one call.
  template <class F>
  decltype(auto) timed(const char* span_name, const char* metric, F&& fn) {
    if (!traced()) return fn();
    ScopedSpan span(spans_, span_name);
    const Clock::time_point t0 = Clock::now();
    struct Note {
      Harness& h;
      const char* metric;
      Clock::time_point t0;
      ~Note() { h.note(metric, seconds_since(t0)); }
    } note_on_exit{*this, metric, t0};
    return fn();
  }

  /// Adds a sample to a per-layer metric; traced episodes only.
  void note(const std::string& metric, double value, double count = 1.0);

  // Results.
  const std::vector<double>& setup_seconds() const { return setup_s_; }
  const std::vector<double>& query_seconds() const { return query_s_; }
  const std::vector<double>& traced_query_seconds() const { return traced_query_s_; }
  const std::vector<double>& ingest_seconds() const { return ingest_s_; }
  /// Wall seconds of the query phases (first query in to last result out,
  /// less ingest epochs, probes and answer checks) of untraced and traced
  /// episodes.
  double query_phase_seconds() const { return phase_s_; }
  double traced_query_phase_seconds() const { return traced_phase_s_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_ops_.size() + run_failures_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::vector<std::uint64_t>>& digests() const { return digests_; }
  const std::map<std::string, Acc>& layer() const { return layer_; }
  int episodes() const { return static_cast<int>(digests_.size()); }
  int traced_episodes() const { return traced_episodes_; }

  /// Compares the digests with `golden` ((episode, query index) -> digest).
  /// An empty `golden` checks nothing; otherwise a query that mismatches
  /// or has no golden digest counts as failed.
  using Goldens = std::map<std::pair<std::size_t, std::size_t>, std::uint64_t>;
  void check_digests(const Goldens& golden);

  /// Records a failed operation that belongs to no single query, such as
  /// a golden file that cannot be read; it counts as attempted and failed.
  void fail_run(const std::string& what);

 private:
  void fail(std::size_t episode, std::size_t index, const std::string& what);
  void record_answer(bool ok, double wall, std::uint64_t qid, const std::string& error);
  void account_stages(const core::QueryResult& r, int execute_span);

  std::uint64_t run_seed_;
  SpanRecorder& spans_;
  std::uint64_t next_query_id_ = 1;

  std::vector<double> setup_s_;
  std::vector<double> query_s_;
  std::vector<double> traced_query_s_;
  std::vector<double> ingest_s_;
  // Query-phase clock of the current episode.
  bool phase_started_ = false;
  Clock::time_point phase_start_;
  Clock::time_point phase_end_;
  double phase_off_ = 0.0;    // off-clock seconds before the last query
  double pending_off_ = 0.0;  // off-clock seconds since the last query
  double phase_s_ = 0.0;
  double traced_phase_s_ = 0.0;
  std::uint64_t attempted_ = 0;
  std::uint64_t run_failures_ = 0;
  std::set<std::pair<std::size_t, std::size_t>> failed_ops_;  // (episode, query)
  std::vector<std::string> failures_;
  std::vector<std::vector<std::uint64_t>> digests_;
  std::map<std::string, Acc> layer_;
  int traced_episodes_ = 0;
  core::QueryResult last_;
};

/// FNV-1a digest of a result: solution table (variable names, ids, bit
/// patterns of numeric columns), modeled total seconds and per-stage
/// modeled seconds.
std::uint64_t digest(const core::QueryResult& r);

/// Workload entry points: each runs one episode through the harness.
void fig4_wide_episode(Harness& h);
void table2_sweep_episode(Harness& h);
void whatif_session_episode(Harness& h);

}  // namespace perfbench
