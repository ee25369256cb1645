#include "harness.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr std::size_t kMaxFailureMessages = 8;

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

// "invoke:ncnpr.dock" -> "invoke".
std::string stage_key(const std::string& stage) {
  return stage.substr(0, stage.find(':'));
}

// The layer a per-layer metric belongs to: "planner.calls" ->
// "core.planner", "cache.get_s" -> "cache".
std::string layer_of(const std::string& metric) {
  const std::string head = metric.substr(0, metric.find('.'));
  if (head == "engine" || head == "planner" || head == "rebalancer" ||
      head == "parser") {
    return "core." + head;
  }
  return head;
}

}  // namespace

std::uint64_t digest(const core::QueryResult& r) {
  Fnv f;
  const graph::SolutionTable& t = r.solutions;
  f.u64(t.num_rows());
  for (std::size_t c = 0; c < t.id_vars().size(); ++c) {
    f.str(t.id_vars()[c]);
    for (graph::TermId id : t.id_col(static_cast<int>(c))) f.u64(id);
  }
  for (std::size_t c = 0; c < t.num_vars().size(); ++c) {
    f.str(t.num_vars()[c]);
    for (double v : t.num_col(static_cast<int>(c))) f.f64(v);
  }
  f.f64(r.total_seconds);
  for (const core::StageTiming& st : r.stages) {
    f.str(st.stage);
    f.f64(st.seconds);
  }
  return f.h;
}

void Harness::begin_episode(bool traced) {
  spans_.set_enabled(traced);
  if (traced) ++traced_episodes_;
  next_query_id_ = 1;
  phase_started_ = false;
  phase_off_ = 0.0;
  pending_off_ = 0.0;
  digests_.emplace_back();
}

void Harness::end_episode() {
  if (phase_started_) {
    const double phase =
        std::chrono::duration<double>(phase_end_ - phase_start_).count() - phase_off_;
    (traced() ? traced_phase_s_ : phase_s_) += phase;
  }
  phase_started_ = false;
  spans_.set_enabled(false);
}

void Harness::setup(const std::function<void()>& fn) {
  ScopedSpan span(spans_, "bench:setup");
  const Clock::time_point t0 = Clock::now();
  fn();
  setup_s_.push_back(seconds_since(t0));
}

const core::QueryResult* Harness::query(const QueryFn& run) {
  const std::uint64_t qid = next_query_id_++;
  ++attempted_;
  std::string error;
  bool ok = false;
  double wall = 0.0;
  {
    ScopedSpan span(spans_, "bench:query", qid);
    const Clock::time_point t0 = Clock::now();
    if (!phase_started_) {
      phase_started_ = true;
      phase_start_ = t0;
    }
    ok = run(&last_, &error);
    phase_end_ = Clock::now();
    wall = std::chrono::duration<double>(phase_end_ - t0).count();
  }
  phase_off_ += pending_off_;
  pending_off_ = 0.0;
  off_clock([&] { record_answer(ok, wall, qid, error); });
  return ok ? &last_ : nullptr;
}

void Harness::record_answer(bool ok, double wall, std::uint64_t qid,
                            const std::string& error) {
  digests_.back().push_back(ok ? digest(last_) : 0);
  if (!ok) {
    fail(digests_.size() - 1, qid - 1, error);
    return;
  }
  (traced() ? traced_query_s_ : query_s_).push_back(wall);
  if (traced()) {
    // The execute span is the last "core.engine:execute" span recorded.
    int execute_span = -1;
    const auto& all = spans_.spans();
    for (int i = static_cast<int>(all.size()) - 1; i >= 0; --i) {
      if (all[static_cast<std::size_t>(i)].name == "core.engine:execute") {
        execute_span = i;
        break;
      }
    }
    account_stages(last_, execute_span);
  }
}

// Per-stage wall and modeled seconds come from the account the engine
// already keeps; they become child spans of the execute span, laid end to
// end from its start (stages run one after another).
void Harness::account_stages(const core::QueryResult& r, int execute_span) {
  const telemetry::QueryResourceAccount& a = r.account;
  double cursor = execute_span >= 0
                      ? spans_.spans()[static_cast<std::size_t>(execute_span)].start
                      : 0.0;
  const std::uint64_t qid = next_query_id_ - 1;
  bool docked = false;
  for (const telemetry::StageAccount& st : a.stages) {
    const std::string key = stage_key(st.stage);
    note("engine." + key + ".wall_s", st.wall_seconds, 0.0);
    note("engine." + key + ".modeled_s", st.modeled_seconds, 0.0);
    if (st.stage == "invoke:ncnpr.dock") docked = true;
    if (execute_span >= 0) {
      spans_.add("core.engine:stage." + key, cursor, cursor + st.wall_seconds,
                 execute_span, qid);
    }
    cursor += st.wall_seconds;
  }
  note("engine.queries", 1.0, 0.0);
  note("engine.execute_s", a.wall_seconds);
  note("runtime.rows_partitioned", static_cast<double>(a.rows_partitioned), 0.0);
  note("runtime.rows_gathered", static_cast<double>(a.rows_gathered), 0.0);
  note("models.dock_calls", docked ? static_cast<double>(a.udf_invocations) : 0.0,
       0.0);
  note("cache.hits", static_cast<double>(r.cache_hits), 0.0);
  note("cache.lookups", static_cast<double>(r.cache_hits + r.cache_misses), 0.0);
  for (const telemetry::TierBytes& t : a.tiers) {
    note("cache.bytes_read." + t.tier, static_cast<double>(t.bytes_in), 0.0);
  }
}

void Harness::ingest(const std::function<void()>& fn) {
  off_clock([&] {
    ScopedSpan span(spans_, "bench:ingest");
    const Clock::time_point t0 = Clock::now();
    fn();
    ingest_s_.push_back(seconds_since(t0));
  });
}

void Harness::check(bool ok, const std::string& what) {
  if (!ok) fail(digests_.size() - 1, digests_.back().size() - 1, what);
}

void Harness::probe(const std::string& metric, double calls,
                    const std::function<void()>& fn) {
  if (!traced()) return;
  off_clock([&] {
    ScopedSpan span(spans_, layer_of(metric) + ":" + metric);
    const Clock::time_point t0 = Clock::now();
    fn();
    note(metric, seconds_since(t0), calls);
  });
}

void Harness::note(const std::string& metric, double value, double count) {
  if (!traced()) return;
  Acc& a = layer_[metric];
  a.sum += value;
  a.count += count;
}

void Harness::fail(std::size_t episode, std::size_t index,
                   const std::string& what) {
  failed_ops_.insert({episode, index});
  if (failures_.size() < kMaxFailureMessages) {
    failures_.push_back("episode " + std::to_string(episode) + " query " +
                        std::to_string(index) + ": " + what);
  }
}

void Harness::check_digests(const Goldens& golden) {
  if (golden.empty()) return;
  for (std::size_t e = 0; e < digests_.size(); ++e) {
    for (std::size_t i = 0; i < digests_[e].size(); ++i) {
      auto it = golden.find({e, i});
      if (it == golden.end()) {
        fail(e, i, "no golden digest recorded for this query");
      } else if (it->second != digests_[e][i]) {
        fail(e, i, "answer differs from the golden digest");
      }
    }
  }
}

void Harness::fail_run(const std::string& what) {
  ++attempted_;
  ++run_failures_;
  if (failures_.size() < kMaxFailureMessages) failures_.push_back(what);
}

}  // namespace perfbench
