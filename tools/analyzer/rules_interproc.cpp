// Interprocedural rules: whole-program lock-order ([lock-order] /
// [xfile-lock-order]), [blocking-under-lock], and [wallclock-in-engine].
//
// All three share the same machinery: per-function summaries (which locks
// a function may acquire, whether it may block) propagated to a fixed
// point over the call graph's *unique* edges — over-approximated edges
// would manufacture summaries no human can act on — plus a scope-aware
// walk of every body that tracks the set of ids::MutexLock guards alive at
// each token (RAII: a guard dies with its enclosing brace scope).
// Reachability for the clock rule intentionally uses the over-approximated
// graph instead: missing a virtual dispatch there would hide real
// nondeterminism, and the worst case is an overly-wide "reachable from the
// engine" label on a finding the sweep half of the rule raises anyway.

#include <algorithm>
#include <functional>
#include <sstream>

#include "analysis.h"

namespace ids::analyzer {
namespace {

/// Calls that block by definition when they do not resolve into the
/// corpus: sleeps, thread/future joins, condition waits, file and process
/// I/O, socket I/O.
bool is_blocking_sink_name(const std::string& s) {
  static const std::set<std::string> kSinks = {
      "sleep_for", "sleep_until", "usleep",  "nanosleep", "join",
      "getline",   "fopen",       "fread",   "fwrite",    "fflush",
      "fclose",    "fgets",       "fputs",   "system",    "popen",
      "wait",      "wait_for",    "wait_until", "accept", "recv",
      "send",      "connect"};
  return kSinks.count(s) != 0;
}

/// Stream types whose construction opens a file: `std::ifstream in(path)`
/// blocks even though no call site is visible.
bool is_blocking_construction(const std::string& s) {
  return s == "ifstream" || s == "ofstream" || s == "fstream";
}

bool is_clock_token(const std::string& s) {
  static const std::set<std::string> kClock = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get",
      "localtime", "localtime_r", "gmtime", "gmtime_r"};
  return kClock.count(s) != 0;
}

bool is_rng_token(const std::string& s) {
  static const std::set<std::string> kRng = {
      "mt19937", "mt19937_64", "random_device", "default_random_engine",
      "minstd_rand", "rand", "srand", "drand48", "lrand48"};
  return kRng.count(s) != 0;
}

bool path_in_telemetry(const std::string& path) {
  return path.find("telemetry/") != std::string::npos;
}

bool path_is_rng_home(const std::string& path) {
  return path.find("common/rng.h") != std::string::npos;
}

const MergedFunc* merged_of(const Corpus& corpus, const FuncDecl& fn) {
  auto ci = corpus.merged.find(fn.klass);
  if (ci == corpus.merged.end()) return nullptr;
  auto fi = ci->second.find(fn.name);
  return fi == ci->second.end() ? nullptr : &fi->second;
}

// --- summaries --------------------------------------------------------------

struct AcquireOrigin {
  std::string path;   // file of the decl that directly acquires the lock
  int line = 0;
  std::string via;    // qualified callee the summary flowed through ("" = direct)
};

struct BlockOrigin {
  std::string what;  // sink name or "IDS_MAY_BLOCK"
  std::string via;   // qualified callee the summary flowed through
};

struct Summaries {
  std::map<const MergedFunc*, std::map<std::string, AcquireOrigin>> acquires;
  std::map<const MergedFunc*, BlockOrigin> blocks;

  bool may_block(const MergedFunc* m) const { return blocks.count(m) != 0; }
};

/// Lock node for the argument list at `open` ("mu_" -> "Class::mu_",
/// "peer.mu_" -> "Peer::mu_" when the member type is known).
std::string resolve_lock(const FileData& f, std::size_t open,
                         const std::string& cur_class, const Corpus& corpus) {
  std::size_t close = f.partner[open];
  if (close == kNone || close <= open + 1) return "";
  if (close == open + 2 && tok_ident(f.toks[open + 1])) {
    return qualify_lock(f.toks[open + 1].text, cur_class);
  }
  if (close == open + 4 && tok_ident(f.toks[open + 1]) &&
      (tok_is(f.toks[open + 2], ".") || tok_is(f.toks[open + 2], "->")) &&
      tok_ident(f.toks[open + 3])) {
    const std::string& recv = f.toks[open + 1].text;
    auto mi = corpus.members.find(cur_class);
    if (mi != corpus.members.end()) {
      auto ri = mi->second.find(recv);
      if (ri != mi->second.end()) {
        return ri->second + "::" + f.toks[open + 3].text;
      }
    }
  }
  std::string joined;
  for (std::size_t i = open + 1; i < close; ++i) joined += f.toks[i].text;
  return joined;
}

Summaries build_summaries(const Corpus& corpus, const CallGraph& graph) {
  Summaries s;
  // Direct facts per merged function.
  for (const auto& [klass, fns] : corpus.merged) {
    (void)klass;
    for (const auto& [name, m] : fns) {
      (void)name;
      // IDS_EXCLUDES is a contract that the function acquires these locks.
      for (const FuncDecl* d : m.decls) {
        for (const std::string& raw : d->excludes) {
          s.acquires[&m].insert(
              {qualify_lock(raw, m.klass), {d->file->path, d->line, ""}});
        }
      }
      if (m.may_block) s.blocks[&m] = {"IDS_MAY_BLOCK", ""};
    }
  }
  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const MergedFunc* m = merged_of(corpus, fn);
    if (m == nullptr) continue;
    const FileData& f = *fn.file;
    for (std::size_t i = fn.body_begin; i + 2 < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i])) continue;
      const std::string& t = f.toks[i].text;
      if (t == "MutexLock" && tok_ident(f.toks[i + 1]) &&
          tok_is(f.toks[i + 2], "(")) {
        std::string node = resolve_lock(f, i + 2, fn.klass, corpus);
        if (!node.empty()) {
          s.acquires[m].insert({node, {f.path, f.toks[i].line, ""}});
        }
      } else if (is_blocking_construction(t)) {
        s.blocks.insert({m, {"std::" + t + " (file open)", ""}});
      } else if (tok_is(f.toks[i + 1], "(") && !is_keyword(t) &&
                 !is_macro_name(t) && is_blocking_sink_name(t)) {
        CallTargets ct = resolve_targets(f, i, fn.klass, corpus);
        if (ct.kind == CallTargets::Kind::kExternal) {
          s.blocks.insert({m, {t, ""}});
        }
      }
    }
  }
  // Fixed point over the unique-resolution subgraph.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [caller, callees] : graph.out_unique) {
      for (const MergedFunc* callee : callees) {
        auto ai = s.acquires.find(callee);
        if (ai != s.acquires.end()) {
          auto& mine = s.acquires[caller];
          for (const auto& [lock, origin] : ai->second) {
            if (mine.insert({lock, {origin.path, origin.line,
                                    callee->qualified()}})
                    .second) {
              changed = true;
            }
          }
        }
        auto bi = s.blocks.find(callee);
        if (bi != s.blocks.end() && s.blocks.count(caller) == 0) {
          s.blocks[caller] = {bi->second.what, callee->qualified()};
          changed = true;
        }
      }
    }
  }
  return s;
}

// --- whole-program lock order + blocking-under-lock -------------------------

struct LockEdge {
  std::string path;
  int line = 0;
  bool xfile = false;
};

struct LockGraph {
  std::map<std::string, std::map<std::string, LockEdge>> adj;

  void add_edge(const std::string& a, const std::string& b,
                const std::string& path, int line, bool xfile) {
    if (a == b) return;
    adj[a].insert({b, {path, line, xfile}});
    adj[b];  // ensure the node exists for deterministic iteration
  }
};

struct HeldLock {
  std::string node;
  std::string var;  // MutexLock variable name ("" for IDS_REQUIRES locks)
  int depth = 0;    // brace depth the guard lives at (-1: whole function)
};

void walk_body(const FuncDecl& fn, Analysis& a, const Summaries& sums,
               LockGraph& locks) {
  const Corpus& corpus = *a.corpus;
  const FileData& f = *fn.file;
  const MergedFunc* self = merged_of(corpus, fn);
  const bool self_may_block = self != nullptr && self->may_block;

  std::vector<HeldLock> held;
  if (self != nullptr) {
    for (const std::string& r : self->requires_held) {
      held.push_back({qualify_lock(r, fn.klass), "", -1});
    }
  }
  auto held_node = [&](const std::string& node) {
    return std::any_of(held.begin(), held.end(),
                       [&](const HeldLock& h) { return h.node == node; });
  };

  int depth = 0;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = f.toks[i];
    if (tok_is(t, "{")) {
      ++depth;
      continue;
    }
    if (tok_is(t, "}")) {
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const HeldLock& h) {
                                  return h.depth == depth;
                                }),
                 held.end());
      depth = std::max(0, depth - 1);
      continue;
    }
    if (!tok_ident(t) || i + 1 >= fn.body_end) continue;
    const std::string& name = t.text;

    if (name == "MutexLock" && i + 2 < fn.body_end &&
        tok_ident(f.toks[i + 1]) && tok_is(f.toks[i + 2], "(")) {
      std::string node = resolve_lock(f, i + 2, fn.klass, corpus);
      if (!node.empty()) {
        for (const HeldLock& h : held) {
          locks.add_edge(h.node, node, f.path, t.line, false);
        }
        held.push_back({node, f.toks[i + 1].text, depth});
      }
      if (f.partner[i + 2] != kNone) i = f.partner[i + 2];
      continue;
    }

    // Blocking stream construction under a lock.
    if (is_blocking_construction(name) && !held.empty() && !self_may_block &&
        a.rule_enabled("blocking-under-lock")) {
      a.report("blocking-under-lock", f, t.line,
               "constructs 'std::" + name + "' (file open) while '" +
                   held.back().node +
                   "' is held; do the I/O outside the critical section or "
                   "annotate the enclosing function IDS_MAY_BLOCK");
      continue;
    }

    if (!tok_is(f.toks[i + 1], "(") || is_keyword(name) ||
        is_macro_name(name)) {
      continue;
    }
    // `Type var(init)` is a declaration, not a call (MutexLock handled
    // above).
    if (i > fn.body_begin && tok_ident(f.toks[i - 1]) &&
        !is_keyword(f.toks[i - 1].text)) {
      continue;
    }

    CallTargets ct = resolve_targets(f, i, fn.klass, corpus);

    // Condition-variable waits that *release* the held lock are the one
    // sanctioned way to block under it: `cv_.wait(mutex_, ...)` where the
    // first argument names the only held mutex (or its guard variable).
    bool condvar_wait_on_held = false;
    if ((name == "wait" || name == "wait_for" || name == "wait_until") &&
        held.size() == 1 && i + 2 < fn.body_end &&
        tok_ident(f.toks[i + 2])) {
      const std::string& arg = f.toks[i + 2].text;
      condvar_wait_on_held =
          arg == held.front().var ||
          qualify_lock(arg, fn.klass) == held.front().node;
    }

    // Lock-order: declared and transitive acquisitions of every uniquely
    // resolved callee.
    if (ct.kind == CallTargets::Kind::kUnique) {
      const MergedFunc* callee = ct.targets.front();
      std::set<std::string> declared;
      for (const std::string& raw : callee->excludes) {
        declared.insert(qualify_lock(raw, callee->klass));
      }
      auto ai = sums.acquires.find(callee);
      if (ai != sums.acquires.end()) {
        for (const auto& [lock, origin] : ai->second) {
          const bool xfile = origin.path != f.path;
          if (held_node(lock)) {
            const char* rule = xfile ? "xfile-lock-order" : "lock-order";
            std::string msg;
            if (declared.count(lock)) {
              msg = "call to '" + callee->qualified() +
                    "' which IDS_EXCLUDES '" + lock + "' while '" + lock +
                    "' is held (self-deadlock)";
            } else {
              msg = "call to '" + callee->qualified() +
                    "' which transitively acquires '" + lock +
                    "' (acquired at " + origin.path + ":" +
                    std::to_string(origin.line) +
                    (origin.via.empty() ? "" : ", via '" + origin.via + "'") +
                    ") while '" + lock + "' is held (self-deadlock)";
            }
            a.report(rule, f, t.line, std::move(msg));
          } else {
            for (const HeldLock& h : held) {
              locks.add_edge(h.node, lock, f.path, t.line, xfile);
            }
          }
        }
      }
    }

    // Blocking-under-lock.
    if (held.empty() || self_may_block || condvar_wait_on_held ||
        !a.rule_enabled("blocking-under-lock")) {
      continue;
    }
    std::string block_what, block_via;
    bool blocking = false;
    if (ct.kind == CallTargets::Kind::kUnique) {
      auto bi = sums.blocks.find(ct.targets.front());
      if (bi != sums.blocks.end()) {
        blocking = true;
        block_what = bi->second.what;
        block_via = bi->second.via;
      }
    } else if (ct.kind == CallTargets::Kind::kOverapprox) {
      // Over-approximated targets: only flag when *every* candidate
      // blocks, so a name collision cannot manufacture a finding.
      blocking = !ct.targets.empty() &&
                 std::all_of(ct.targets.begin(), ct.targets.end(),
                             [&](const MergedFunc* m) {
                               return sums.may_block(m);
                             });
      if (blocking) {
        const auto& b = sums.blocks.at(ct.targets.front());
        block_what = b.what;
        block_via = b.via;
      }
    } else if (ct.kind == CallTargets::Kind::kExternal &&
               is_blocking_sink_name(name)) {
      blocking = true;
      block_what = name;
    }
    if (!blocking) continue;
    std::string target =
        ct.targets.empty() ? ("'" + name + "'")
                           : ("'" + ct.targets.front()->qualified() + "'");
    std::string reason = block_what == "IDS_MAY_BLOCK"
                             ? "annotated IDS_MAY_BLOCK"
                             : "reaches '" + block_what + "'";
    if (!block_via.empty()) reason += " via '" + block_via + "'";
    a.report("blocking-under-lock", f, t.line,
             "call to " + target + " may block (" + reason + ") while '" +
                 held.back().node +
                 "' is held; hoist the blocking work out of the critical "
                 "section or annotate the enclosing function IDS_MAY_BLOCK");
  }
}

/// Lock-graph cycle detection (iterative over nodes, DFS per component,
/// deterministic order). A cycle with any cross-file edge is reported
/// under [xfile-lock-order], otherwise [lock-order].
void report_lock_cycles(Analysis& a, const LockGraph& locks) {
  const auto& adj = locks.adj;
  std::map<std::string, int> state;  // 0 white, 1 gray, 2 black
  std::vector<std::string> path;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    state[u] = 1;
    path.push_back(u);
    auto it = adj.find(u);
    if (it != adj.end()) {
      for (const auto& [v, edge] : it->second) {
        (void)edge;
        if (state[v] == 1) {
          auto pos = std::find(path.begin(), path.end(), v);
          std::vector<std::string> cycle(pos, path.end());
          // Normalize: rotate so the lexicographically-smallest lock leads.
          auto mn = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), mn, cycle.end());
          std::string desc;
          for (const std::string& n : cycle) desc += n + " -> ";
          desc += cycle.front();
          if (reported.insert(desc).second) {
            bool xfile = false;
            std::vector<std::string> notes;
            std::string at_path = "<lock-graph>";
            int at_line = 0;
            for (std::size_t i = 0; i < cycle.size(); ++i) {
              const std::string& from = cycle[i];
              const std::string& to = cycle[(i + 1) % cycle.size()];
              auto fi = adj.find(from);
              if (fi == adj.end()) continue;
              auto ei = fi->second.find(to);
              if (ei == fi->second.end()) continue;
              xfile = xfile || ei->second.xfile;
              if (at_line == 0) {
                at_path = ei->second.path;
                at_line = ei->second.line;
              }
              notes.push_back("edge " + from + " -> " + to +
                              " established at " + ei->second.path + ":" +
                              std::to_string(ei->second.line));
            }
            const char* rule = xfile ? "xfile-lock-order" : "lock-order";
            if (a.rule_enabled(rule)) {
              a.findings.push_back({rule, at_path, at_line,
                                    std::string(xfile ? "cross-TU " : "") +
                                        "inconsistent lock acquisition "
                                        "order: " + desc,
                                    std::move(notes), false});
            }
          }
        } else if (state[v] == 0) {
          dfs(v);
        }
      }
    }
    path.pop_back();
    state[u] = 2;
  };
  for (const auto& [node, _] : adj) {
    if (state[node] == 0) dfs(node);
  }
}

// --- clock / determinism discipline -----------------------------------------

void rule_wallclock(Analysis& a) {
  const Corpus& corpus = *a.corpus;
  // Roots: the modeled-clock execution path.
  std::vector<const MergedFunc*> roots;
  if (auto ci = corpus.merged.find("IdsEngine"); ci != corpus.merged.end()) {
    if (auto fi = ci->second.find("execute"); fi != ci->second.end()) {
      roots.push_back(&fi->second);
    }
  }
  std::set<const MergedFunc*> reach =
      roots.empty() ? std::set<const MergedFunc*>{}
                    : a.graph->reachable_from(roots);

  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const FileData& f = *fn.file;
    if (path_in_telemetry(f.path)) continue;  // the sanctioned wall-clock home
    const MergedFunc* m = merged_of(corpus, fn);
    if (m != nullptr && m->wallclock_ok) continue;
    const bool in_reach = m != nullptr && reach.count(m) != 0;
    const std::string qn = m != nullptr
                               ? m->qualified()
                               : (fn.klass.empty() ? fn.name
                                                  : fn.klass + "::" + fn.name);
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i])) continue;
      const std::string& t = f.toks[i].text;
      if (is_clock_token(t)) {
        std::string msg = "wall-clock read ('" + t + "') in '" + qn + "'";
        msg += in_reach
                   ? ", which is reachable from IdsEngine::execute — modeled "
                     "time must come from the per-rank virtual clocks"
                   : " outside src/telemetry/";
        msg += "; route it through telemetry::wall_now_ns() or "
               "annotate the function IDS_WALLCLOCK_OK";
        a.report("wallclock-in-engine", f, f.toks[i].line, std::move(msg));
      } else if (in_reach && is_rng_token(t) && !path_is_rng_home(f.path)) {
        a.report("wallclock-in-engine", f, f.toks[i].line,
                 "raw randomness ('" + t + "') in '" + qn +
                     "', which is reachable from IdsEngine::execute; use "
                     "the deterministic ids::Rng instead");
      }
    }
  }
}

}  // namespace

void run_interproc_rules(Analysis& a) {
  const bool want_locks = a.rule_enabled("lock-order") ||
                          a.rule_enabled("xfile-lock-order") ||
                          a.rule_enabled("blocking-under-lock");
  if (want_locks) {
    Summaries sums = build_summaries(*a.corpus, *a.graph);
    LockGraph locks;
    for (const FuncDecl& fn : a.corpus->funcs) {
      if (fn.has_body()) walk_body(fn, a, sums, locks);
    }
    report_lock_cycles(a, locks);
  }
  if (a.rule_enabled("wallclock-in-engine")) rule_wallclock(a);
}

}  // namespace ids::analyzer
