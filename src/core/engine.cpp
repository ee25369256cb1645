#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <set>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/rng.h"
#include "core/planner.h"
#include "expr/chain.h"
#include "runtime/exchange.h"
#include "store/ivf_index.h"
#include "runtime/rank_exec.h"
#include "telemetry/profiler.h"

namespace ids::core {

double QueryResult::stage_seconds(std::string_view prefix) const {
  double s = 0.0;
  for (const auto& st : stages) {
    if (st.stage.starts_with(prefix)) s += st.seconds;
  }
  return s;
}

double QueryResult::seconds_excluding(std::string_view prefix) const {
  return total_seconds - stage_seconds(prefix);
}

namespace {

using graph::RowIndex;
using graph::SolutionTable;
using graph::TermId;
using graph::TriplePattern;

/// Span attribute text: integers in decimal, doubles round-trip exact.
std::string attr_text(std::string_view v) { return std::string(v); }
std::string attr_text(std::uint64_t v) { return std::to_string(v); }
std::string attr_text(double v) { return telemetry::format_double(v); }

/// Distinct id variables of a pattern, in s, p, o order.
std::vector<std::string> pattern_vars(const TriplePattern& p) {
  std::vector<std::string> vars;
  auto add = [&vars](const graph::PatternTerm& t) {
    if (t.is_var &&
        std::find(vars.begin(), vars.end(), t.var) == vars.end()) {
      vars.push_back(t.var);
    }
  };
  add(p.s);
  add(p.p);
  add(p.o);
  return vars;
}

/// Every UDF `query` names: in its FILTERs and in each INVOKE clause
/// (arguments included).
std::vector<std::string> query_udf_names(const Query& query) {
  std::vector<std::string> names;
  for (const auto& f : query.filters) f->collect_udfs(&names);
  for (const auto& inv : query.invokes) {
    names.push_back(inv.udf);
    for (const auto& a : inv.args) a->collect_udfs(&names);
  }
  return names;
}

/// A query's FILTER chain planned for every rank (§2.4.3: per-rank
/// reordering), all ranks planned from one snapshot of the UDF profile.
struct FilterPlan {
  std::vector<expr::Conjunct> conjuncts;
  udf::ProfileTable profile;
  std::vector<std::vector<std::size_t>> orders;  // [rank] -> conjunct order

  FilterPlan(const std::vector<expr::ExprPtr>& filters,
             const udf::UdfProfiler& profiler, int num_ranks, bool reorder) {
    for (const auto& f : filters) {
      auto flat = expr::flatten_conjuncts(f);
      conjuncts.insert(conjuncts.end(), flat.begin(), flat.end());
    }
    profile = snapshot_profile(conjuncts, profiler);
    orders.resize(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      auto& order = orders[static_cast<std::size_t>(r)];
      if (reorder) {
        order = order_conjuncts(conjuncts, r, profile);
      } else {
        order.resize(conjuncts.size());
        std::iota(order.begin(), order.end(), 0);
      }
    }
  }

  std::size_t distinct_orders() const {
    return std::set<std::vector<std::size_t>>(orders.begin(), orders.end())
        .size();
  }
};

/// The whole execution state of one query.
class QueryExecution {
 public:
  QueryExecution(const EngineOptions& opts, graph::TripleStore* triples,
                 store::FeatureStore* features,
                 store::InvertedIndex* keywords, store::VectorStore* vectors,
                 udf::UdfRegistry* registry, udf::UdfProfiler* profiler)
      : opts_(opts),
        triples_(triples),
        features_(features),
        keywords_(keywords),
        vectors_(vectors),
        registry_(registry),
        profiler_(profiler),
        trace_cap_(opts.query_log != nullptr ? opts.query_log->max_spans()
                                             : 0),
        metrics_(opts.metrics != nullptr
                     ? opts.metrics
                     : &telemetry::MetricsRegistry::global()),
        p_(opts.topology.num_ranks()),
        clocks_(static_cast<std::size_t>(p_)),
        rank_spans_(traced() ? static_cast<std::size_t>(p_) : 0) {
    Rng seeder(opts.seed);
    rank_rngs_.reserve(static_cast<std::size_t>(p_));
    for (int r = 0; r < p_; ++r) {
      rank_rngs_.push_back(seeder.fork(static_cast<std::uint64_t>(r)));
    }
  }

  QueryResult run(const Query& query) {
    telemetry::ProfileScope profile_scope("engine.query");
    metrics_->counter("ids_engine_queries_total")->inc();
    query_wall_start_ = telemetry::wall_now_ns();
    stage_wall_start_ = query_wall_start_;
    udfs_ = udf::QueryUdfs(*registry_, query_udf_names(query), p_, metrics_);
    if (traced()) {
      root_span_ = open_span("query", "query", telemetry::kNoSpan);
      // Stamp the active SIMD dispatch level so every trace records which
      // kernel variants produced it (simd.cpp exports the matching gauge).
      span_attr(root_span_, "simd_level",
                simd::level_name(simd::active_level()));
    }

    // Graph patterns in planner order.
    auto order = order_patterns(*triples_, query.patterns);
    for (std::size_t i = 0; i < order.size(); ++i) {
      apply_pattern(query.patterns[order[i]], i == 0);
    }
    std::size_t rows = total_rows();
    result_.rows_after_patterns = rows;

    for (const auto& kc : query.keywords) apply_keyword(kc);
    for (const auto& vc : query.vectors) apply_vector(vc);

    apply_filters(query);
    result_.rows_after_filters = total_rows();

    if (!query.distinct_var.empty()) apply_distinct(query.distinct_var);

    for (const auto& inv : query.invokes) apply_invoke(inv);

    gather_and_finish(query);
    // One end stamp for the account's query wall time and the root span.
    const std::uint64_t wall_end = telemetry::wall_now_ns();
    finish_account(wall_end);
    publish_udf_tally();
    if (traced()) {
      span_attr(root_span_, "rows",
                static_cast<std::uint64_t>(result_.solutions.num_rows()));
      span_attr(root_span_, "cache_hits",
                static_cast<std::uint64_t>(result_.cache_hits));
      span_attr(root_span_, "cache_misses",
                static_cast<std::uint64_t>(result_.cache_misses));
      span_attr(root_span_, "rows_partitioned",
                result_.account.rows_partitioned);
      span_attr(root_span_, "udf_invocations",
                result_.account.udf_invocations);
      span_attr(root_span_, "peak_solution_bytes",
                result_.account.peak_solution_bytes);
      span_attr(root_span_, "divergence_seconds",
                result_.account.divergence_seconds());
      end_span(root_span_, last_mark_, wall_end);
      metrics_->counter("ids_trace_dropped_spans_total")->inc(trace_.dropped);
    }
    if (opts_.query_log != nullptr) {
      result_.account.sequence =
          opts_.query_log->push({result_.account, std::move(trace_)});
    }
    return std::move(result_);
  }

 private:
  // ---- Instrumentation seam ------------------------------------------------
  // Every span, stage metric and account entry of a query is written by
  // the two scopes below; operators only open them. Spans go to the
  // query's own tree (trace_), which run() moves into the log record.

  /// Spans are recorded only for a log that keeps them.
  bool traced() const { return trace_cap_ > 0; }

  /// Opens a span on the engine's barrier timeline at the current modeled
  /// mark and the stage's wall stamp.
  telemetry::SpanId open_span(std::string_view name,
                              std::string_view category,
                              telemetry::SpanId parent) {
    std::vector<telemetry::Span> one;
    one.push_back({std::string(name), std::string(category), 1,
                   telemetry::kNoSpan, -1, last_mark_, last_mark_,
                   stage_wall_start_, stage_wall_start_, {}});
    return trace_.append(std::move(one), parent, trace_cap_);
  }

  /// Ends span `id` at modeled time `virt_end` and wall stamp `wall_end`.
  void end_span(telemetry::SpanId id, sim::Nanos virt_end,
                std::uint64_t wall_end) {
    if (telemetry::Span* s = trace_.find(id)) {
      s->virt_end = virt_end;
      s->wall_end_ns = wall_end;
    }
  }

  /// Attribute on span `id`; a no-op when untraced or when the cap
  /// dropped the span.
  template <typename V>
  void span_attr(telemetry::SpanId id, std::string_view key, V value) {
    if (telemetry::Span* s = trace_.find(id)) {
      s->attrs.emplace_back(std::string(key), attr_text(value));
    }
  }

  /// One pipeline stage, from construction to scope exit. Opening starts
  /// the stage's trace span at the account's own wall stamp. Closing
  /// synchronizes the rank clocks and records the stage once: one
  /// StageAccount (modeled `now - last_mark_`, and wall), the span's end
  /// with the same two stamps, an ids_engine_stage_seconds observation and
  /// a SolutionTable high-water-mark sample. Operators inside a stage
  /// leave that closing barrier to it. Open it after any early-return
  /// guard, so a skipped stage leaves no trace.
  class Stage {
   public:
    Stage(QueryExecution& q, std::string name)
        : q_(q), name_(std::move(name)) {
      if (q_.traced()) {
        q_.stage_span_ = q_.open_span(name_, "stage", q_.root_span_);
      }
    }
    Stage(const Stage&) = delete;
    Stage& operator=(const Stage&) = delete;

    ~Stage() {
      const sim::Nanos now = q_.clocks_.barrier();
      const std::uint64_t wall_now = telemetry::wall_now_ns();
      const double seconds = sim::to_seconds(now - q_.last_mark_);
      q_.result_.account.stages.push_back(
          {name_, seconds,
           static_cast<double>(wall_now - q_.stage_wall_start_) * 1e-9});
      for (auto& spans : q_.rank_spans_) {
        q_.trace_.append(std::move(spans), q_.stage_span_, q_.trace_cap_);
        spans.clear();
      }
      q_.end_span(q_.stage_span_, now, wall_now);
      q_.stage_span_ = telemetry::kNoSpan;
      q_.metrics_
          ->histogram("ids_engine_stage_seconds",
                      telemetry::latency_seconds_buckets(), {{"stage", name_}})
          ->observe(seconds);
      std::uint64_t solution_bytes = 0;
      for (const auto& t : q_.parts_) {
        solution_bytes +=
            static_cast<std::uint64_t>(t.num_rows() * t.row_bytes());
      }
      auto& peak = q_.result_.account.peak_solution_bytes;
      peak = std::max(peak, solution_bytes);
      q_.stage_wall_start_ = wall_now;
      q_.last_mark_ = now;
    }

    /// Attribute on the stage span.
    template <typename V>
    void attr(std::string_view key, V value) {
      q_.span_attr(q_.stage_span_, key, value);
    }

   private:
    QueryExecution& q_;
    std::string name_;
  };

  /// One rank's share of an operator, opened inside a for_each_rank
  /// lambda: a "rank" span under the current stage on rank r's modeled
  /// timeline, from the rank clock at construction to the rank clock at
  /// scope exit. call() opens a child span the same way for one call
  /// inside the operator (cache get/put, UDF execution). Spans go to rank
  /// r's buffer, which the Stage appends to the query's tree in rank order, so
  /// span ids never depend on thread timing. Safe to use from concurrent
  /// rank lambdas; with tracing off it reads no wall clock and takes no
  /// lock.
  class RankOp {
   public:
    RankOp(QueryExecution& q, std::string_view name, int r)
        : RankOp(q, name, "rank", telemetry::kNoSpan, r) {}
    RankOp(const RankOp&) = delete;
    RankOp& operator=(const RankOp&) = delete;

    ~RankOp() {
      if (span_ == telemetry::kNoSpan) return;
      telemetry::Span& s = span();
      s.virt_end = clock().now();
      s.wall_end_ns = telemetry::wall_now_ns();
    }

    void attr(std::string_view key, std::uint64_t value) {
      if (span_ == telemetry::kNoSpan) return;
      span().attrs.emplace_back(std::string(key), std::to_string(value));
    }

    RankOp call(std::string_view name, std::string_view category) {
      return RankOp(q_, name, category, span_, r_);
    }

   private:
    /// `parent` is a span of this rank's buffer, or kNoSpan for the stage.
    RankOp(QueryExecution& q, std::string_view name,
           std::string_view category, telemetry::SpanId parent, int r)
        : q_(q), r_(r) {
      if (!q_.traced()) return;
      auto& spans = q_.rank_spans_[static_cast<std::size_t>(r_)];
      const sim::Nanos now = clock().now();
      const std::uint64_t wall = telemetry::wall_now_ns();
      span_ = static_cast<telemetry::SpanId>(spans.size() + 1);
      spans.push_back({std::string(name), std::string(category), span_,
                       parent, r, now, now, wall, wall, {}});
    }

    const sim::VirtualClock& clock() const {
      return q_.clocks_.at(static_cast<std::size_t>(r_));
    }
    telemetry::Span& span() {
      return q_.rank_spans_[static_cast<std::size_t>(r_)][span_ - 1];
    }

    QueryExecution& q_;
    int r_;
    telemetry::SpanId span_ = telemetry::kNoSpan;  // id in the rank buffer
  };

  double speed(int r) const { return opts_.hetero.at(r); }

  /// Charges modeled *compute* time, scaled by the rank's speed factor.
  void charge_compute(int r, sim::Nanos raw) {
    clocks_.at(static_cast<std::size_t>(r))
        .advance(static_cast<sim::Nanos>(static_cast<double>(raw) / speed(r)));
  }

  /// Graph-operator compute: scaled by the scale-model multiplier (one
  /// physical triple/row stands for row_multiplier logical ones).
  void charge_graph_op(int r, sim::Nanos raw) {
    charge_compute(r, static_cast<sim::Nanos>(static_cast<double>(raw) *
                                              opts_.row_multiplier));
  }

  /// Fixed per-operator overhead on every rank (launch + straggler skew +
  /// global sync; see CostProfile::operator_overhead_seconds).
  void charge_operator_overhead() {
    sim::Nanos o = sim::from_seconds(opts_.costs.operator_overhead_seconds);
    if (o == 0) return;
    for (std::size_t r = 0; r < clocks_.size(); ++r) clocks_.at(r).advance(o);
  }

  /// Seals result_.account at the end of run(): whole-query times, the
  /// query's own cache reads by tier, and the ids_query_* instruments.
  /// QueryResult's stage list and cache counters are derived from it.
  void finish_account(std::uint64_t wall_end) {
    telemetry::QueryResourceAccount& acct = result_.account;
    acct.modeled_seconds = sim::to_seconds(last_mark_);
    acct.wall_seconds =
        static_cast<double>(wall_end - query_wall_start_) * 1e-9;
    acct.udf_invocations = static_cast<std::uint64_t>(result_.rows_invoked);
    result_.stages.reserve(acct.stages.size());
    for (const auto& st : acct.stages) {
      result_.stages.push_back({st.stage, st.modeled_seconds});
    }
    const cache::CacheStats& c = cache_tally_;
    acct.cache_bytes_written = c.bytes_written;
    acct.cache_misses = c.misses;
    result_.cache_hits = static_cast<std::size_t>(c.total_hits());
    result_.cache_misses = static_cast<std::size_t>(c.misses);
    for (std::size_t i = 0; i < cache::kNumReadTiers; ++i) {
      if (c.read_bytes.n[i] == 0 && c.hits.n[i] == 0) continue;  // unused
      acct.tiers.push_back({std::string(cache::kReadTierNames[i]),
                            c.read_bytes.n[i], c.hits.n[i]});
    }
    metrics_->counter("ids_query_rows_gathered_total")
        ->inc(acct.rows_gathered);
    metrics_->counter("ids_query_rows_partitioned_total")
        ->inc(acct.rows_partitioned);
    metrics_->counter("ids_query_udf_invocations_total")
        ->inc(acct.udf_invocations);
    metrics_->gauge("ids_query_peak_solution_bytes")
        ->set(static_cast<double>(acct.peak_solution_bytes));
    metrics_
        ->histogram("ids_query_modeled_seconds",
                    telemetry::latency_seconds_buckets())
        ->observe(acct.modeled_seconds);
    metrics_
        ->histogram("ids_query_wall_seconds",
                    telemetry::latency_seconds_buckets())
        ->observe(acct.wall_seconds);
  }

  /// Publishes the query's UDF tally once: one profiler publish, and each
  /// UDF's rejects into ids_udf_rejects_total{udf} (one lookup per UDF
  /// that rejected a row).
  void publish_udf_tally() {
    udf::ProfileTable& tally = udfs_.tally();
    tally.sum_ranks();
    profiler_->publish(tally);
    for (const std::string& name : tally.names()) {
      const std::uint64_t rejects = tally.aggregate(name).rejects;
      if (rejects > 0) {
        metrics_->counter("ids_udf_rejects_total", {{"udf", name}})
            ->inc(rejects);
      }
    }
  }

  /// Expression context for rank r over its rows `t`, one per rank: an
  /// operator's row loop moves only the row cursor and the per-row cost.
  expr::EvalContext rank_context(int r, const SolutionTable& t) {
    return {.row = {&t, 0},
            .udfs = &udfs_,
            .udf_ctx = {r, features_, vectors_,
                        &rank_rngs_[static_cast<std::size_t>(r)]},
            .speed_factor = speed(r)};
  }

  std::size_t total_rows() const {
    std::size_t n = 0;
    for (const auto& t : parts_) n += t.num_rows();
    return n;
  }

  bool has_schema() const { return !parts_.empty(); }

  bool schema_has_var(const std::string& var) const {
    return has_schema() && parts_[0].id_var_index(var) >= 0;
  }

  void init_parts(const SolutionTable& prototype) {
    parts_.assign(static_cast<std::size_t>(p_), prototype.empty_like());
  }

  // ---- Row movement ------------------------------------------------------

  /// Moves every row to the rank owning its `key_col` id (one alltoallv,
  /// charged on the fabric model; clocks synchronize). The constructor
  /// checks one triple shard per rank, so a subject's owner is also the
  /// shard holding its triples.
  void exchange_on(int key_col) {
    if (!has_schema()) return;
    const std::size_t row_bytes = parts_[0].row_bytes();
    runtime::TrafficLedger ledger(opts_.topology);
    parts_ = graph::exchange_by_key(
        parts_, key_col, p_, [&](int src, int dst, std::size_t rows) {
          result_.account.rows_partitioned += rows;
          ledger.send(src, dst, row_bytes * rows);
        });
    ledger.charge(clocks_);
  }

  /// Redistributes rows so rank r ends with targets[r] rows, moving as few
  /// rows as possible (surplus tails flow to deficit ranks).
  void redistribute_to_targets(const std::vector<std::size_t>& targets) {
    if (!has_schema()) return;
    const std::size_t row_bytes = parts_[0].row_bytes();
    runtime::TrafficLedger ledger(opts_.topology);

    struct Deficit {
      int rank;
      std::size_t need;
    };
    std::vector<Deficit> deficits;
    for (int r = 0; r < p_; ++r) {
      std::size_t have = parts_[static_cast<std::size_t>(r)].num_rows();
      std::size_t want = targets[static_cast<std::size_t>(r)];
      if (want > have) deficits.push_back({r, want - have});
    }
    std::size_t d = 0;
    for (int src = 0; src < p_ && d < deficits.size(); ++src) {
      auto& table = parts_[static_cast<std::size_t>(src)];
      std::size_t want = targets[static_cast<std::size_t>(src)];
      while (table.num_rows() > want && d < deficits.size()) {
        std::size_t surplus = table.num_rows() - want;
        std::size_t take = std::min(surplus, deficits[d].need);
        int dst = deficits[d].rank;
        // Move the tail rows [n - take, n) as one bulk column append.
        std::size_t n = table.num_rows();
        parts_[static_cast<std::size_t>(dst)].append_row_range_from(
            table, n - take, n);
        table.truncate(n - take);
        result_.account.rows_partitioned += take;
        ledger.send(src, dst, row_bytes * take);
        deficits[d].need -= take;
        if (deficits[d].need == 0) ++d;
      }
    }
    ledger.charge(clocks_);
  }

  // ---- Graph pattern operators --------------------------------------------

  void apply_pattern(const TriplePattern& pat, bool first) {
    const bool scan = first || !has_schema();
    Stage stage(*this, scan ? "scan" : "join");
    if (scan) {
      scan_first(pat);
    } else if (pat.s.is_var && schema_has_var(pat.s.var)) {
      extend_subject_bound(pat);
    } else if (const std::string v = first_bound_var(pat); !v.empty()) {
      // Shared non-subject variable -> hash join; none -> cartesian.
      hash_join(pat, v);
    } else {
      IDS_WARN << "cartesian join for pattern with no shared variable";
      cartesian_join(pat);
    }
  }

  /// First variable of `pat` (s, p, o order) the schema binds; "" if none.
  std::string first_bound_var(const TriplePattern& pat) const {
    for (auto& v : pattern_vars(pat)) {
      if (schema_has_var(v)) return v;
    }
    return "";
  }

  /// Variables of `pat` the solution schema does not bind yet, in s, p, o
  /// order: the columns a join appends.
  std::vector<std::string> unbound_vars(const TriplePattern& pat) const {
    std::vector<std::string> vars;
    for (auto& v : pattern_vars(pat)) {
      if (!schema_has_var(v)) vars.push_back(std::move(v));
    }
    return vars;
  }

  /// Empty table with the current schema followed by `new_vars`.
  SolutionTable extended_prototype(
      const std::vector<std::string>& new_vars) const {
    std::vector<std::string> schema = parts_[0].id_vars();
    schema.insert(schema.end(), new_vars.begin(), new_vars.end());
    return SolutionTable{schema, parts_[0].num_vars()};
  }

  /// Triple position (0 = s, 1 = p, 2 = o) where `var` first occurs in
  /// `pat`, or -1. Hoisted out of scan callbacks: kernels resolve variable
  /// positions once and then index triples by integer position.
  static int position_of(const TriplePattern& pat, const std::string& var) {
    if (pat.s.is_var && pat.s.var == var) return 0;
    if (pat.p.is_var && pat.p.var == var) return 1;
    if (pat.o.is_var && pat.o.var == var) return 2;
    return -1;
  }

  /// Scans shard `r` for `pat`, appending each match's variable bindings to
  /// `out` (schema must be pattern_vars(pat)); returns the match count.
  /// Column pointers and positions are hoisted so the per-triple work is
  /// nv integer stores.
  std::size_t scan_pattern_into(int r, const TriplePattern& pat,
                                SolutionTable* out) {
    const auto& vars = out->id_vars();
    const std::size_t nv = vars.size();
    IDS_CHECK(nv <= 3 && out->num_vars().empty());
    int pos[3] = {0, 0, 0};
    std::vector<TermId>* cols[3] = {nullptr, nullptr, nullptr};
    for (std::size_t k = 0; k < nv; ++k) {
      pos[k] = position_of(pat, vars[k]);
      IDS_CHECK(pos[k] >= 0) << "pattern lacks variable " << vars[k];
      cols[k] = &out->id_col_mut(static_cast<int>(k));
    }
    std::size_t matches = 0;
    triples_->shard(r).scan(pat, [&](const graph::Triple& t) {
      const TermId v[3] = {t.s, t.p, t.o};
      for (std::size_t k = 0; k < nv; ++k) cols[k]->push_back(v[pos[k]]);
      ++matches;
    });
    return matches;
  }

  void scan_first(const TriplePattern& pat) {
    charge_operator_overhead();
    SolutionTable prototype{pattern_vars(pat)};
    init_parts(prototype);
    runtime::for_each_rank(p_, "rank.scan", [&](int r) {
      RankOp op(*this, "scan", r);
      std::size_t matches =
          scan_pattern_into(r, pat, &parts_[static_cast<std::size_t>(r)]);
      charge_graph_op(r, opts_.costs.triple_scan_cost(matches + 64));
      op.attr("matches", matches);
    });
  }

  void extend_subject_bound(const TriplePattern& pat) {
    charge_operator_overhead();
    int svar = parts_[0].id_var_index(pat.s.var);
    IDS_CHECK(svar >= 0);
    // Rows travel to the shard owning their subject value.
    exchange_on(svar);

    const std::vector<std::string> new_vars = unbound_vars(pat);
    const SolutionTable prototype = extended_prototype(new_vars);
    const std::size_t old_ids = parts_[0].id_vars().size();

    // Hoisted per-row binding plan: the solution column feeding each
    // pattern position (-1 = stays as written), and the triple position
    // feeding each new output column.
    int bind_col[3] = {-1, -1, -1};
    if (pat.s.is_var) bind_col[0] = parts_[0].id_var_index(pat.s.var);
    if (pat.p.is_var) bind_col[1] = parts_[0].id_var_index(pat.p.var);
    if (pat.o.is_var) bind_col[2] = parts_[0].id_var_index(pat.o.var);
    std::vector<int> new_pos;
    new_pos.reserve(new_vars.size());
    for (const auto& v : new_vars) new_pos.push_back(position_of(pat, v));

    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   prototype.empty_like());
    runtime::for_each_rank(p_, "rank.join_extend", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "join:extend", r);
      const auto& in = parts_[ru];
      auto& dst = out[ru];

      // The concretized pattern is built once; per row only the bound
      // constants are refreshed (no string churn in the loop).
      TriplePattern bound = pat;
      graph::PatternTerm* terms[3] = {&bound.s, &bound.p, &bound.o};
      for (int i = 0; i < 3; ++i) {
        if (bind_col[i] >= 0) *terms[i] = graph::PatternTerm::Const(0);
      }
      const std::size_t nn = new_vars.size();
      std::vector<TermId>* new_cols[3] = {nullptr, nullptr, nullptr};
      for (std::size_t k = 0; k < nn; ++k) {
        new_cols[k] = &dst.id_col_mut(static_cast<int>(old_ids + k));
      }

      std::vector<RowIndex> src_rows;
      std::size_t scanned = 0;
      const std::size_t n = in.num_rows();
      for (std::size_t row = 0; row < n; ++row) {
        for (int i = 0; i < 3; ++i) {
          if (bind_col[i] >= 0) {
            terms[i]->constant = in.id_at(row, bind_col[i]);
          }
        }
        triples_->shard(r).scan(bound, [&](const graph::Triple& t) {
          src_rows.push_back(static_cast<RowIndex>(row));
          const TermId v[3] = {t.s, t.p, t.o};
          for (std::size_t k = 0; k < nn; ++k) {
            new_cols[k]->push_back(v[new_pos[k]]);
          }
          ++scanned;
        });
        scanned += 4;  // index probe overhead
      }
      // New-binding columns were written inline; gather the carried-over
      // columns in one pass per column.
      dst.append_prefix_from(in, src_rows);
      charge_graph_op(r, opts_.costs.triple_scan_cost(scanned + 64));
      op.attr("scanned", scanned);
    });
    parts_ = std::move(out);
  }

  /// Hash join on `join_var`, the first pattern variable the schema binds.
  void hash_join(const TriplePattern& pat, const std::string& join_var) {
    charge_operator_overhead();
    // Build side: local pattern matches on every rank.
    std::vector<SolutionTable> build(static_cast<std::size_t>(p_),
                                     SolutionTable{pattern_vars(pat)});
    runtime::for_each_rank(p_, "rank.join_build", [&](int r) {
      RankOp op(*this, "join:build", r);
      std::size_t matches =
          scan_pattern_into(r, pat, &build[static_cast<std::size_t>(r)]);
      charge_graph_op(r, opts_.costs.triple_scan_cost(matches + 64));
      op.attr("matches", matches);
    });

    // Shuffle both sides by the join key. The build side's communication
    // is charged as one tree collective of the average build rows (cheap
    // relative to the probe shuffle), not booked as alltoallv traffic.
    int probe_idx = parts_[0].id_var_index(join_var);
    exchange_on(probe_idx);
    build = graph::exchange_by_key(build, build[0].id_var_index(join_var), p_);
    std::size_t build_rows = 0;
    for (const auto& t : build) build_rows += t.num_rows();
    runtime::charge_tree_collective(
        clocks_, opts_.topology,
        build_rows * build[0].row_bytes() / static_cast<std::size_t>(p_));

    // Output schema: probe vars + new pattern vars.
    const std::vector<std::string> new_vars = unbound_vars(pat);
    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   extended_prototype(new_vars));

    // Shared pattern vars beyond the join key must match too.
    std::vector<std::string> check_vars;
    for (const auto& v : pattern_vars(pat)) {
      if (v != join_var && schema_has_var(v)) check_vars.push_back(v);
    }

    runtime::for_each_rank(p_, "rank.join_probe", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "join:probe", r);
      const auto& bt = build[ru];
      const auto& probe = parts_[ru];
      auto& dst = out[ru];
      int b_join = bt.id_var_index(join_var);

      // Flat grouped index over the build keys: one contiguous probe per
      // key instead of node-chasing an unordered_multimap.
      FlatGroupIndex index(bt.id_col(b_join));

      // Hoisted column plans: (build col, probe col) pairs for the extra
      // equality checks and build columns feeding each new output column.
      struct CheckCols {
        const std::vector<TermId>* b;
        const std::vector<TermId>* p;
      };
      std::vector<CheckCols> checks;
      checks.reserve(check_vars.size());
      for (const auto& cv : check_vars) {
        checks.push_back({&bt.id_col(bt.id_var_index(cv)),
                          &probe.id_col(probe.id_var_index(cv))});
      }
      const std::size_t old_ids = probe.id_vars().size();
      const std::size_t nn = new_vars.size();
      std::vector<const std::vector<TermId>*> new_src;
      std::vector<std::vector<TermId>*> new_dst;
      new_src.reserve(nn);
      new_dst.reserve(nn);
      for (std::size_t k = 0; k < nn; ++k) {
        new_src.push_back(&bt.id_col(bt.id_var_index(new_vars[k])));
        new_dst.push_back(&dst.id_col_mut(static_cast<int>(old_ids + k)));
      }

      const auto& probe_keys = probe.id_col(probe_idx);
      std::vector<RowIndex> src_rows;
      std::size_t produced = 0;
      for (std::size_t row = 0; row < probe_keys.size(); ++row) {
        // Reverse group order: the previous build index prepended equal
        // keys, so its equal_range enumerated build rows newest-first.
        // Downstream operators that move row *tails* (rebalance) are
        // placement-sensitive, so the emission order is part of the
        // modeled-result contract and must not change.
        auto group = index.probe(probe_keys[row]);
        for (std::size_t gi = group.size(); gi-- > 0;) {
          const std::uint32_t brow = group[gi];
          bool ok = true;
          for (const auto& ch : checks) {
            if ((*ch.b)[brow] != (*ch.p)[row]) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          src_rows.push_back(static_cast<RowIndex>(row));
          for (std::size_t k = 0; k < nn; ++k) {
            new_dst[k]->push_back((*new_src[k])[brow]);
          }
          ++produced;
        }
      }
      // New-binding columns were written inline; gather the carried-over
      // probe columns in one pass per column.
      dst.append_prefix_from(probe, src_rows);
      charge_graph_op(r, opts_.costs.join_cost(bt.num_rows() +
                                               probe.num_rows() + produced));
      op.attr("produced", produced);
    });
    parts_ = std::move(out);
  }

  void cartesian_join(const TriplePattern& pat) {
    // Gather all pattern matches everywhere (assumed small), then cross
    // with local rows.
    SolutionTable matches{pattern_vars(pat)};
    for (int r = 0; r < p_; ++r) scan_pattern_into(r, pat, &matches);
    runtime::charge_tree_collective(clocks_, opts_.topology,
                                    matches.num_rows() * matches.row_bytes());

    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   extended_prototype(matches.id_vars()));
    runtime::for_each_rank(p_, "rank.join_cartesian", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "join:cartesian", r);
      const auto& in = parts_[ru];
      auto& dst = out[ru];
      const std::size_t n = in.num_rows();
      const std::size_t m = matches.num_rows();
      // Row-major (row, mrow) cross product, one column at a time: left
      // columns repeat each value m times, match columns tile whole-column
      // n times, numeric columns repeat like left columns.
      const std::size_t old_ids = in.id_vars().size();
      for (std::size_t c = 0; c < old_ids; ++c) {
        const auto& src = in.id_col(static_cast<int>(c));
        auto& col = dst.id_col_mut(static_cast<int>(c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), m, src[row]);
        }
      }
      for (std::size_t c = 0; c < matches.id_vars().size(); ++c) {
        const auto& src = matches.id_col(static_cast<int>(c));
        auto& col = dst.id_col_mut(static_cast<int>(old_ids + c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), src.begin(), src.end());
        }
      }
      for (std::size_t c = 0; c < in.num_vars().size(); ++c) {
        const auto& src = in.num_col(static_cast<int>(c));
        auto& col = dst.num_col_mut(static_cast<int>(c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), m, src[row]);
        }
      }
      charge_graph_op(r, opts_.costs.join_cost(n * m));
      op.attr("produced", n * m);
    });
    parts_ = std::move(out);
  }

  // ---- Keyword / vector operators ----------------------------------------

  void apply_keyword(const KeywordClause& kc) {
    if (!keywords_) {
      IDS_WARN << "keyword clause with no inverted index; skipping";
      return;
    }
    Stage stage(*this, "keyword");
    std::vector<TermId> hits = kc.conjunctive
                                   ? keywords_->search_and(kc.tokens)
                                   : keywords_->search_or(kc.tokens);
    // Charge: each rank scans its slice of the posting lists.
    std::size_t posting_work = 0;
    for (const auto& t : kc.tokens) posting_work += keywords_->posting_size(t);
    for (int r = 0; r < p_; ++r) {
      charge_compute(r, opts_.costs.triple_scan_cost(
                            posting_work / static_cast<std::size_t>(p_) + 16));
    }
    semi_join(kc.var, hits);
  }

  void apply_vector(const VectorClause& vc) {
    if (!vectors_) {
      IDS_WARN << "vector clause with no vector store; skipping";
      return;
    }
    Stage stage(*this, "vector");
    // Per-shard top-k (exact scan, or IVF probing when the clause asks
    // for approximate search), then a global merge (allgather of k hits).
    std::vector<std::vector<store::VectorHit>> shard_hits(
        static_cast<std::size_t>(p_));
    runtime::for_each_rank(p_, "rank.vector", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "vector:topk", r);
      if (vc.ivf_nprobe > 0) {
        store::IvfIndex::Params params;
        params.num_clusters = vc.ivf_clusters;
        store::IvfIndex index(*vectors_, r, params);
        shard_hits[ru] = index.topk(vc.query, vc.k, vc.metric, vc.ivf_nprobe);
        charge_compute(r, opts_.costs.vector_scan_cost(
                              index.work_units(vc.ivf_nprobe)));
      } else {
        shard_hits[ru] = vectors_->topk_shard(r, vc.query, vc.k, vc.metric);
        charge_compute(
            r, opts_.costs.vector_scan_cost(vectors_->scan_work_units(r)));
      }
      op.attr("hits", shard_hits[ru].size());
    });
    runtime::charge_tree_collective(
        clocks_, opts_.topology,
        vc.k * (sizeof(TermId) + sizeof(float)));

    std::vector<store::VectorHit> all;
    for (auto& h : shard_hits) all.insert(all.end(), h.begin(), h.end());
    std::sort(all.begin(), all.end(),
              [](const store::VectorHit& a, const store::VectorHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    if (all.size() > vc.k) all.resize(vc.k);
    std::vector<TermId> hits;
    hits.reserve(all.size());
    for (const auto& h : all) hits.push_back(h.id);
    std::sort(hits.begin(), hits.end());
    semi_join(vc.var, hits);
  }

  /// Restricts `var` to the sorted id set, or seeds solutions from the set
  /// when no rows exist yet.
  void semi_join(const std::string& var, const std::vector<TermId>& ids) {
    if (!has_schema()) {
      SolutionTable prototype{{var}};
      init_parts(prototype);
      for (TermId id : ids) {
        int dst = triples_->shard_of_subject(id);
        parts_[static_cast<std::size_t>(dst)].append_row({&id, 1});
      }
      return;
    }
    int idx = parts_[0].id_var_index(var);
    if (idx < 0) {
      IDS_WARN << "semi-join variable ?" << var << " not bound; skipping";
      return;
    }
    runtime::for_each_rank(p_, "rank.semi_join", [&](int r) {
      RankOp op(*this, "semi_join", r);
      auto& t = parts_[static_cast<std::size_t>(r)];
      const auto& col = t.id_col(idx);
      std::vector<char> keep(col.size(), 0);
      for (std::size_t row = 0; row < col.size(); ++row) {
        keep[row] =
            std::binary_search(ids.begin(), ids.end(), col[row]) ? 1 : 0;
      }
      charge_graph_op(r, opts_.costs.join_cost(t.num_rows()));
      op.attr("rows_in", t.num_rows());
      t.filter_rows(keep);
      op.attr("rows_kept", t.num_rows());
    });
  }

  // ---- FILTER stage --------------------------------------------------------

  void apply_filters(const Query& query) {
    if (query.filters.empty() || !has_schema()) return;

    // Planning runs inside the first stage it feeds, so its wall time is
    // both in that stage's account entry and inside its trace span.
    std::optional<FilterPlan> plan;
    if (opts_.rebalance != RebalancePolicy::kNone) {
      Stage stage(*this, "rebalance");
      plan.emplace(query.filters, *profiler_, p_, opts_.reorder_filters);
      // Solution re-balancing (§2.4.2) driven by per-rank single-solution
      // time estimates.
      std::vector<std::size_t> counts(static_cast<std::size_t>(p_));
      std::vector<double> throughput(static_cast<std::size_t>(p_), 0.0);
      for (int r = 0; r < p_; ++r) {
        auto ru = static_cast<std::size_t>(r);
        counts[ru] = parts_[ru].num_rows();
        double est = estimate_solution_seconds(
            plan->conjuncts, plan->orders[ru], r, plan->profile);
        if (est > 0.0) throughput[ru] = 1.0 / est;
      }
      // Ranks exchange their estimates (one small allreduce).
      runtime::charge_tree_collective(clocks_, opts_.topology, 8);
      RebalanceDecision decision =
          decide_rebalance(opts_.rebalance, counts, throughput);
      if (decision.rebalance) {
        redistribute_to_targets(decision.targets);
        result_.used_throughput_rebalance |= decision.used_throughput;
        metrics_
            ->counter("ids_engine_rebalance_total",
                      {{"policy", decision.used_throughput ? "throughput"
                                                           : "count"}})
            ->inc();
      }
      stage.attr("policy", std::string_view(opts_.rebalance ==
                                                    RebalancePolicy::kThroughput
                                                ? "throughput"
                                                : "count"));
      stage.attr("triggered", static_cast<std::uint64_t>(decision.rebalance));
      stage.attr("throughput_based",
                 static_cast<std::uint64_t>(decision.used_throughput));
      stage.attr("speed_ratio", decision.speed_ratio);
    }
    Stage stage(*this, "filter");
    if (!plan) {
      plan.emplace(query.filters, *profiler_, p_, opts_.reorder_filters);
    }
    const std::vector<expr::Conjunct>& conjuncts = plan->conjuncts;
    const std::vector<std::vector<std::size_t>>& orders = plan->orders;

    // Per-conjunct logical-call multipliers: a conjunct's evaluations are
    // charged as `row_multiplier` logical evaluations unless one of its
    // UDFs has an explicit override (scale model; see EngineOptions). A
    // rejected row is tallied against the conjunct's last UDF (the
    // rejection statistic of the paper's profiling section), by index.
    std::vector<double> conj_multiplier(conjuncts.size(),
                                        opts_.row_multiplier);
    std::vector<std::size_t> reject_udf(conjuncts.size(),
                                        udf::ProfileTable::npos);
    for (std::size_t ci = 0; ci < conjuncts.size(); ++ci) {
      for (const auto& name : conjuncts[ci].udfs) {
        auto it = opts_.udf_call_multiplier.find(name);
        if (it != opts_.udf_call_multiplier.end()) {
          conj_multiplier[ci] = it->second;
        }
      }
      if (!conjuncts[ci].udfs.empty()) {
        reject_udf[ci] = udfs_.index_of(conjuncts[ci].udfs.back());
      }
    }

    stage.attr("reorder",
               std::string_view(opts_.reorder_filters ? "on" : "off"));
    stage.attr("distinct_orders",
               static_cast<std::uint64_t>(plan->distinct_orders()));
    std::string rank0;
    for (std::size_t ci : orders[0]) {
      if (!rank0.empty()) rank0 += ',';
      rank0 += std::to_string(ci);
    }
    stage.attr("rank0_order", std::string_view(rank0));
    // Evaluate the chain; the first falsy conjunct rejects the row.
    charge_operator_overhead();
    runtime::for_each_rank(p_, "rank.filter", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "filter", r);
      auto& t = parts_[ru];
      std::vector<char> keep(t.num_rows(), 1);
      double rank_cost = 0.0;  // nanoseconds, multiplier-weighted
      expr::EvalContext ctx = rank_context(r, t);
      const std::span<udf::UdfStats> tally = udfs_.tally().row(r);
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        ctx.row.row = row;
        ctx.cost = 0;
        for (std::size_t ci : orders[ru]) {
          sim::Nanos before = ctx.cost;
          expr::Value v = expr::eval(*conjuncts[ci].expr, ctx);
          rank_cost += static_cast<double>(ctx.cost - before) *
                       conj_multiplier[ci];
          if (!expr::truthy(v)) {
            keep[row] = 0;
            if (reject_udf[ci] != udf::ProfileTable::npos) {
              ++tally[reject_udf[ci]].rejects;
            }
            break;
          }
        }
      }
      clocks_.at(ru).advance(static_cast<sim::Nanos>(rank_cost));
      op.attr("rows_in", t.num_rows());
      t.filter_rows(keep);
      op.attr("rows_kept", t.num_rows());
    });
  }

  // ---- DISTINCT / INVOKE ---------------------------------------------------

  void apply_distinct(const std::string& var) {
    if (!has_schema()) return;
    int idx = parts_[0].id_var_index(var);
    if (idx < 0) {
      IDS_WARN << "distinct variable ?" << var << " not bound; skipping";
      return;
    }
    Stage stage(*this, "distinct");
    charge_operator_overhead();
    // Co-locate equal values, then keep the first row of each value.
    exchange_on(idx);
    runtime::for_each_rank(p_, "rank.distinct", [&](int r) {
      RankOp op(*this, "distinct", r);
      auto& t = parts_[static_cast<std::size_t>(r)];
      const auto& col = t.id_col(idx);
      FlatTermSet seen(col.size());
      std::vector<char> keep(col.size(), 0);
      for (std::size_t row = 0; row < col.size(); ++row) {
        keep[row] = seen.insert(col[row]) ? 1 : 0;
      }
      charge_graph_op(r, opts_.costs.join_cost(t.num_rows()));
      op.attr("rows_in", t.num_rows());
      t.filter_rows(keep);
      op.attr("rows_kept", t.num_rows());
    });
    // Spread the survivors evenly: the upcoming INVOKE is expensive and
    // hash placement can clump a small distinct set onto few ranks ("IDS
    // commonly re-balances solutions across ranks between operations").
    redistribute_to_targets(count_based_targets(total_rows(), p_));
  }

  /// Cache payloads store the scalar result first so the engine can parse
  /// it back without re-running the model; the padding models the full
  /// artifact (e.g. a complete Vina output file).
  static std::string make_payload(double value, std::size_t total_bytes) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);  // exact round trip
    std::string payload = buf;
    payload += ';';
    if (payload.size() < total_bytes) {
      payload.resize(total_bytes, '#');
    }
    return payload;
  }

  /// "<cache_prefix>/<arg>/<arg>..." with every argument encoded exactly
  /// and by type, so distinct argument lists never share a key (a shared
  /// key would serve one argument's cached result for another). Entities
  /// render as their dictionary name (instance-portable). Every other
  /// value starts with a backslash and a type tag, which no escaped name
  /// can start with: i integer, d double (%.17g, exact round trip),
  /// s string, b bool, 0 null. Names and strings escape backslash and
  /// '/' with a backslash, so argument boundaries stay unambiguous.
  std::string render_cache_key(const InvokeClause& inv,
                               const std::vector<expr::Value>& args) const {
    auto append_escaped = [](std::string& out, std::string_view text) {
      for (char c : text) {
        if (c == '/' || c == '\\') out += '\\';
        out += c;
      }
    };
    std::string key = inv.cache_prefix;
    for (const auto& a : args) {
      key += '/';
      if (const auto* e = std::get_if<expr::Entity>(&a)) {
        append_escaped(key, triples_->dict().name(e->id));
      } else if (const auto* i = std::get_if<std::int64_t>(&a)) {
        key += "\\i";
        key += std::to_string(*i);
      } else if (const auto* d = std::get_if<double>(&a)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "\\d%.17g", *d);
        key += buf;
      } else if (const auto* str = std::get_if<std::string>(&a)) {
        key += "\\s";
        append_escaped(key, *str);
      } else if (const auto* b = std::get_if<bool>(&a)) {
        key += *b ? "\\b1" : "\\b0";
      } else {
        key += "\\0";
      }
    }
    return key;
  }

  int cache_node_of_rank(int r) const {
    IDS_CHECK(opts_.cache != nullptr);
    return opts_.topology.node_of_rank(r) % opts_.cache->config().num_nodes;
  }

  void apply_invoke(const InvokeClause& inv) {
    if (!has_schema()) return;
    const std::size_t ui = udfs_.index_of(inv.udf);
    const udf::UdfInfo* info = udfs_.info(ui);
    if (!info) {
      IDS_WARN << "INVOKE of unknown UDF " << inv.udf << "; skipping";
      return;
    }
    for (auto& t : parts_) t.add_num_var(inv.out_var);
    const bool cached = inv.use_cache && opts_.cache != nullptr;
    Stage stage(*this, "invoke:" + inv.udf);

    // This stage's own cache reads and writes, one tally per rank, summed
    // after the rank loop; other clients of the shared cache never show.
    std::vector<cache::CacheStats> rank_tally(cached ? clocks_.size() : 0);
    std::atomic<std::size_t> invoked{0};

    runtime::for_each_rank(p_, "rank.invoke", [&](int r) {
      auto ru = static_cast<std::size_t>(r);
      RankOp op(*this, "invoke", r);
      auto& t = parts_[ru];
      int out_col = t.num_var_index(inv.out_var);
      // One argument buffer per rank, cleared per row.
      expr::EvalContext ctx = rank_context(r, t);
      std::vector<expr::Value> args;
      args.reserve(inv.args.size());
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        ctx.row.row = row;
        ctx.cost = 0;

        args.clear();
        for (const auto& a : inv.args) args.push_back(expr::eval(*a, ctx));
        // Argument-evaluation cost lands on the clock now so the per-call
        // spans below start at the right modeled time. Splitting the
        // row's single advance into several is exact (integer adds), and
        // the cache never reads the clock's current value, so the modeled
        // result is bit-identical to charging everything at row end.
        clocks_.at(ru).advance(ctx.cost);
        ctx.cost = 0;

        double value = 0.0;
        bool have = false;
        std::string key;
        if (cached) {
          key = render_cache_key(inv, args);
          RankOp get = op.call("cache.get", "cache");
          const cache::CacheRead read =
              opts_.cache->get(clocks_.at(ru), cache_node_of_rank(r), key);
          get.attr("hit", read.has_value() ? 1 : 0);
          if (read.has_value()) {
            rank_tally[ru].count_hit(read.tier, read.payload->size());
            value = std::strtod(read.payload->c_str(), nullptr);
            have = true;
          } else {
            ++rank_tally[ru].misses;
          }
        }
        if (!have) {
          // Execute the model (a cache miss falls back to re-running the
          // simulation, the paper's "last resort on a total miss").
          RankOp exec = op.call(info->name, "udf");
          const udf::UdfResult res =
              udfs_.call(ui, ctx.udf_ctx, args, speed(r));
          ctx.cost += res.modeled_cost;
          double out = 0.0;
          expr::as_double(res.value, &out);
          value = out;
          invoked.fetch_add(1, std::memory_order_relaxed);
          clocks_.at(ru).advance(ctx.cost);
          ctx.cost = 0;
        }
        if (!have && cached) {
          RankOp put = op.call("cache.put", "cache");
          std::string payload = make_payload(value, inv.cached_payload_bytes);
          rank_tally[ru].bytes_written += payload.size();
          opts_.cache->put(clocks_.at(ru), cache_node_of_rank(r), key,
                           std::move(payload));
        }
        t.set_num(row, out_col, value);
        clocks_.at(ru).advance(ctx.cost);
      }
    });
    result_.rows_invoked += invoked.load();
    cache::CacheStats stage_tally;
    for (const auto& t : rank_tally) stage_tally += t;
    cache_tally_ += stage_tally;

    // Shared-server queueing of the cache's (de)serialization service: a
    // single server processing every cache operation of this stage
    // back-to-back bounds the stage below by ops x service time (the
    // saturated busy period). Per-op latency was already charged by the
    // cache; this enforces the aggregate-throughput cap deterministically.
    const double service =
        cached ? opts_.cache->config().serialization_service_seconds : 0.0;
    if (service > 0.0) {
      // The stage's own operations: every get hit or miss-then-put.
      std::uint64_t ops = stage_tally.total_hits() + stage_tally.misses;
      sim::Nanos floor =
          last_mark_ + sim::from_seconds(service * static_cast<double>(ops));
      for (std::size_t r = 0; r < clocks_.size(); ++r) {
        clocks_.at(r).raise_to(floor);
      }
    }
  }

  // ---- Final gather --------------------------------------------------------

  void gather_and_finish(const Query& query) {
    SolutionTable merged =
        has_schema() ? parts_[0].empty_like() : SolutionTable{};
    {
      Stage stage(*this, "gather");
      std::size_t total_bytes = 0;
      for (const auto& t : parts_) {
        merged.append_table(t);
        total_bytes += t.num_rows() * t.row_bytes();
      }
      runtime::charge_tree_collective(clocks_, opts_.topology, total_bytes);
      result_.account.rows_gathered =
          static_cast<std::uint64_t>(merged.num_rows());
    }

    // ORDER BY a numeric column.
    if (!query.order_by.empty()) {
      int col = merged.num_var_index(query.order_by);
      if (col >= 0) {
        std::vector<std::size_t> idx(merged.num_rows());
        std::iota(idx.begin(), idx.end(), 0);
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) {
                           double va = merged.num_at(a, col);
                           double vb = merged.num_at(b, col);
                           return query.order_descending ? va > vb : va < vb;
                         });
        merged = merged.take_rows(idx);
      }
    }
    if (query.limit > 0 && merged.num_rows() > query.limit) {
      merged.truncate(query.limit);
    }

    // SELECT projection (id variables; numeric columns always survive).
    // Columnar: each selected variable is one whole-column copy.
    if (!query.select.empty()) {
      SolutionTable projected{query.select, merged.num_vars()};
      const std::size_t n = merged.num_rows();
      for (std::size_t k = 0; k < query.select.size(); ++k) {
        int c = merged.id_var_index(query.select[k]);
        auto& col = projected.id_col_mut(static_cast<int>(k));
        if (c >= 0) {
          col = merged.id_col(c);
        } else {
          col.assign(n, graph::kInvalidTerm);
        }
      }
      for (std::size_t c = 0; c < merged.num_vars().size(); ++c) {
        projected.num_col_mut(static_cast<int>(c)) =
            merged.num_col(static_cast<int>(c));
      }
      merged = std::move(projected);
    }

    result_.solutions = std::move(merged);
    result_.total_seconds = sim::to_seconds(clocks_.max());
  }

  const EngineOptions& opts_;
  graph::TripleStore* triples_;
  store::FeatureStore* features_;
  store::InvertedIndex* keywords_;
  store::VectorStore* vectors_;
  udf::UdfRegistry* registry_;
  udf::UdfProfiler* profiler_;
  const std::size_t trace_cap_;  // the log's max_spans; 0 = tracing off
  telemetry::MetricsRegistry* metrics_;
  telemetry::SpanId root_span_ = telemetry::kNoSpan;
  telemetry::SpanId stage_span_ = telemetry::kNoSpan;
  std::uint64_t stage_wall_start_ = 0;
  telemetry::SpanTree trace_;  // this query's spans; empty when untraced

  int p_;
  sim::ClockSet clocks_;
  // Per rank: its spans in the open stage (RankOp); empty when untraced.
  std::vector<std::vector<telemetry::Span>> rank_spans_;
  std::vector<SolutionTable> parts_;
  std::vector<Rng> rank_rngs_;
  QueryResult result_;
  sim::Nanos last_mark_ = 0;

  // Per-query resource accounting.
  std::uint64_t query_wall_start_ = 0;
  cache::CacheStats cache_tally_;  // this query's own cache reads and writes
  udf::QueryUdfs udfs_;  // the query's UDFs, looked up once, and its tally
};

}  // namespace

IdsEngine::IdsEngine(EngineOptions options, graph::TripleStore* triples,
                     store::FeatureStore* features,
                     store::InvertedIndex* keywords,
                     store::VectorStore* vectors)
    : options_(std::move(options)),
      triples_(triples),
      features_(features),
      keywords_(keywords),
      vectors_(vectors),
      profiler_(options_.topology.num_ranks()) {
  IDS_CHECK(triples_->num_shards() == options_.topology.num_ranks())
      << "store sharding must match the rank count";
  // Every rank speed is read unguarded on the charge paths below.
  const runtime::HeteroProfile& hetero = options_.hetero;
  IDS_CHECK(hetero.num_ranks() == 0 ||
            hetero.num_ranks() == options_.topology.num_ranks())
      << "hetero profile has " << hetero.num_ranks() << " speeds for "
      << options_.topology.num_ranks() << " ranks";
  IDS_CHECK(std::all_of(hetero.speeds().begin(), hetero.speeds().end(),
                        [](double s) { return s > 0.0; }))
      << "hetero profile speeds must be positive";
}

QueryResult IdsEngine::execute(const Query& query) {
  // Serve-phase gate: every store a query can read must be sealed by its
  // freeze method before execution, so nothing execute() reaches mutates
  // (the contract the phase rule family proves statically).
  IDS_CHECK(triples_->frozen())
      << "execute() before TripleStore::finalize()";
  IDS_CHECK(features_ == nullptr || features_->frozen())
      << "execute() before FeatureStore::freeze()";
  IDS_CHECK(keywords_ == nullptr || keywords_->frozen())
      << "execute() before InvertedIndex::freeze()";
  QueryExecution exec(options_, triples_, features_, keywords_, vectors_,
                      &registry_, &profiler_);
  return exec.run(query);
}

std::string IdsEngine::explain(const Query& query) const {
  std::string out = "plan (" + std::to_string(options_.topology.num_nodes) +
                    " nodes x " +
                    std::to_string(options_.topology.ranks_per_node) +
                    " ranks):\n";
  char buf[160];

  auto order = order_patterns(*triples_, query.patterns);
  auto term_str = [this](const graph::PatternTerm& t) {
    return t.is_var ? "?" + t.var : triples_->dict().name(t.constant);
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& p = query.patterns[order[i]];
    std::snprintf(buf, sizeof(buf), "  %zu. %s { %s %s %s } est=%zu rows\n",
                  i + 1, i == 0 ? "scan" : "join",
                  term_str(p.s).c_str(), term_str(p.p).c_str(),
                  term_str(p.o).c_str(),
                  estimate_cardinality(*triples_, p));
    out += buf;
  }
  for (const auto& kc : query.keywords) {
    out += "  keyword ?" + kc.var + " matches " +
           (kc.conjunctive ? "ALL" : "ANY") + " of " +
           std::to_string(kc.tokens.size()) + " token(s)\n";
  }
  for (const auto& vc : query.vectors) {
    out += "  vector ?" + vc.var + " top-" + std::to_string(vc.k) +
           (vc.ivf_nprobe > 0 ? " (IVF nprobe=" + std::to_string(vc.ivf_nprobe) + ")"
                              : " (exact scan)") +
           "\n";
  }

  if (!query.filters.empty()) {
    const FilterPlan plan(query.filters, profiler_,
                          options_.topology.num_ranks(),
                          options_.reorder_filters);
    out += "  filter chain (rank 0 order";
    // How many distinct per-rank orders would the planner emit?
    if (options_.reorder_filters) {
      out += ", " + std::to_string(plan.distinct_orders()) +
             " distinct order(s) across ranks";
    } else {
      out += ", reordering off";
    }
    out += "):\n";
    for (std::size_t ci : plan.orders[0]) {
      const expr::Conjunct& conjunct = plan.conjuncts[ci];
      ConjunctEstimate est = estimate_conjunct(conjunct, 0, plan.profile);
      std::snprintf(buf, sizeof(buf),
                    "    %-48s est_cost=%.4gs reject_rate=%.2f\n",
                    conjunct.expr->to_string().c_str(), est.cost_seconds,
                    est.rejection_rate);
      out += buf;
    }
  }

  if (!query.distinct_var.empty()) {
    out += "  distinct ?" + query.distinct_var + "\n";
  }
  for (const auto& inv : query.invokes) {
    out += "  invoke " + inv.udf + " -> ?" + inv.out_var;
    if (inv.use_cache && options_.cache) {
      out += " [cached: " + inv.cache_prefix + "]";
    }
    out += "\n";
  }
  if (!query.order_by.empty()) {
    out += "  order by ?" + query.order_by +
           (query.order_descending ? " desc" : " asc") + "\n";
  }
  if (query.limit > 0) out += "  limit " + std::to_string(query.limit) + "\n";
  return out;
}

}  // namespace ids::core
