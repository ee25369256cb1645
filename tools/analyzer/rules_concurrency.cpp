// Concurrency-readiness rules and the shared-state certificate.
//
// [guarded-by]   Per-field write-site × held-lock inference on classes
//                that own an ids::Mutex: a field written under the lock on
//                some paths but not others, or written anywhere without an
//                IDS_GUARDED_BY annotation, is a latent race the Clang
//                thread-safety analysis cannot see (it only checks
//                annotations that were written).
// [thread-escape] Captured state mutated inside tasks handed to
//                ThreadPool::submit/parallel_for (escape.h).
// [shared-state] --certify=concurrent-exec: everything transitively
//                reachable from IdsEngine::execute — class members via the
//                field-type closure, function-local statics via call-graph
//                reachability (over-approximated edges, as for the clock
//                rule: missing a virtual dispatch would hide a race),
//                namespace-scope globals unconditionally — classified as
//                const-after-init / guarded / frozen-after-init / atomic /
//                sync-primitive / internally-synchronized, with
//                everything else a violation. The machine-readable
//                inventory goes to stdout and is committed as
//                tools/concurrency_certificate.json. IDS_FROZEN_AFTER
//                fields land on the frozen-after-init rung only when the
//                phase analysis (phase.h) proves their ingest→freeze→serve
//                discipline; a phase violation is a certificate violation.
// [ambiguous-class] --certify=concurrent-exec: a class name in that
//                closure with more than one class body in the corpus. The
//                inventory keys classes by short name, so the two classes'
//                fields would merge and one could hide the other's race.

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "analysis.h"
#include "escape.h"
#include "field_access.h"
#include "phase.h"

namespace ids::analyzer {
namespace {

bool class_internally_synchronized(const std::string& type_class,
                                   const Corpus& corpus,
                                   const FieldTable& t) {
  // corpus.classes, not corpus.merged: a method-less struct (a lock-plus-
  // guarded-map shard, say) never appears in the merged function table but
  // is still a class whose safety the field table settled.
  return !type_class.empty() && corpus.classes.count(type_class) != 0 &&
         t.class_safe(type_class) && t.mutable_trap.count(type_class) == 0;
}

void run_guarded_by(Analysis& a, const FieldTable& t) {
  if (!a.rule_enabled("guarded-by")) return;
  for (std::size_t idx = 0; idx < t.fields.size(); ++idx) {
    const FieldInfo& fi = t.fields[idx];
    if (fi.klass.empty() || t.class_has_mutex.count(fi.klass) == 0) continue;
    if (fi.protected_state() || fi.is_static) continue;
    const std::vector<WriteSite>* all = t.sites(idx);
    if (all == nullptr) continue;
    std::vector<const WriteSite*> locked, unlocked;
    for (const WriteSite& ws : *all) {
      if (ws.in_ctor) continue;
      (ws.under_lock ? locked : unlocked).push_back(&ws);
    }
    if (locked.empty() && unlocked.empty()) continue;
    if (!locked.empty() && !unlocked.empty()) {
      const WriteSite& bad = *unlocked.front();
      const WriteSite& good = *locked.front();
      a.findings.push_back(
          {"guarded-by", bad.path, bad.line,
           "field '" + fi.qualified() + "' is written with '" + good.lock +
               "' held at " + good.path + ":" + std::to_string(good.line) +
               " but with no lock here; annotate it IDS_GUARDED_BY and take "
               "the lock on every write",
           {},
           false});
    } else {
      const WriteSite& site =
          *(locked.empty() ? unlocked.front() : locked.front());
      std::string hint =
          locked.empty()
              ? "annotate it IDS_GUARDED_BY(<mutex>) and guard the writes, "
                "or make it atomic"
              : "annotate it IDS_GUARDED_BY(" + site.lock.substr(
                    site.lock.rfind("::") == std::string::npos
                        ? 0
                        : site.lock.rfind("::") + 2) +
                    ") so the Clang thread-safety analysis can check every "
                    "access";
      a.findings.push_back(
          {"guarded-by", site.path, site.line,
           "field '" + fi.qualified() + "' of mutex-owning class '" +
               fi.klass + "' is written ('" + site.detail +
               "') without an IDS_GUARDED_BY annotation; " + hint,
           {},
           false});
    }
  }
}

void run_thread_escape(Analysis& a, const FieldTable& t) {
  if (!a.rule_enabled("thread-escape")) return;
  const Corpus& corpus = *a.corpus;
  std::set<const MergedFunc*> spawners = compute_spawners(corpus);
  for (const EscapeFinding& e : find_escapes(corpus, t, spawners)) {
    a.findings.push_back({"thread-escape", e.path, e.line, e.message, {},
                          false});
  }
}

// --- certificate ------------------------------------------------------------

struct Entry {
  std::string name;    // field/static/global name (qualified for statics)
  std::string status;  // const-after-init | guarded | atomic | ...
  std::string detail;  // guard node, freeze method, or type class
  std::string path;
  int line = 0;
  bool violation() const { return status == "violation"; }
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void emit_entry(std::ostream& os, const char* indent, const Entry& e,
                const char* key, bool last) {
  os << indent << "{\"" << key << "\": " << json_str(e.name)
     << ", \"status\": " << json_str(e.status);
  if (!e.detail.empty()) os << ", \"detail\": " << json_str(e.detail);
  if (!e.path.empty()) os << ", \"file\": " << json_str(e.path);
  os << "}" << (last ? "" : ",") << "\n";
}

/// Classifies a non-member declaration (function-local static or
/// namespace-scope global) against the certificate ladder.
Entry classify_standalone(const FieldInfo& fi, const Corpus& corpus,
                          const FieldTable& t) {
  Entry e;
  e.name = fi.name;
  e.path = fi.path;
  e.line = fi.line;
  if (fi.is_sync) {
    e.status = "sync-primitive";
  } else if (fi.is_atomic) {
    e.status = "atomic";
  } else if (class_internally_synchronized(fi.type_class, corpus, t)) {
    e.status = "internally-synchronized";
    e.detail = fi.type_class;
  } else {
    e.status = "violation";
  }
  return e;
}

}  // namespace

void run_concurrency_rules(Analysis& a) {
  FieldTable t = build_field_table(*a.corpus);
  run_guarded_by(a, t);
  run_thread_escape(a, t);
}

std::size_t run_certificate(Analysis& a, std::ostream& os, bool* root_found) {
  const Corpus& corpus = *a.corpus;
  *root_found = false;
  auto ci = corpus.merged.find("IdsEngine");
  if (ci == corpus.merged.end()) return 0;
  auto mi = ci->second.find("execute");
  if (mi == ci->second.end()) return 0;
  *root_found = true;
  const MergedFunc* root = &mi->second;

  FieldTable t = build_field_table(corpus);
  PhaseAnalysis phases = analyze_phases(corpus, *a.graph, t);

  // Class closure over field types, rooted at the engine. A guarded field
  // cuts its subtree — the annotated mutex protects the whole object, and
  // Clang's analysis already checks every access to it — and so does a
  // frozen field: the phase analysis proves it immutable after its freeze
  // method, so its internals cannot race either.
  std::set<std::string> closure = {"IdsEngine"};
  std::vector<std::string> queue = {"IdsEngine"};
  while (!queue.empty()) {
    std::string c = queue.back();
    queue.pop_back();
    auto bc = t.by_class.find(c);
    if (bc == t.by_class.end()) continue;
    for (const auto& [name, idx] : bc->second) {
      const FieldInfo& fi = t.fields[idx];
      if (!fi.guarded_by.empty() || !fi.frozen_after.empty()) continue;
      if (fi.type_class.empty()) continue;
      if (closure.insert(fi.type_class).second) {
        queue.push_back(fi.type_class);
      }
    }
  }

  std::size_t violations = 0;
  std::size_t const_fields = 0;
  std::map<std::string, std::vector<Entry>> classes;  // class -> entries
  std::map<std::string, std::size_t> status_counts;

  // Fields are keyed by short class name: two classes sharing one would
  // merge into one inventory row, where a guarded field of one can hide an
  // unguarded field of the same name in the other.
  for (const std::string& c : closure) {
    auto bi = corpus.class_bodies.find(c);
    if (bi == corpus.class_bodies.end() || bi->second.size() < 2) continue;
    std::string sites;
    for (const std::string& site : bi->second) {
      if (!sites.empty()) sites += ", ";
      sites += site;
    }
    Entry e;
    e.name = "(class)";
    e.status = "violation";
    e.detail = "ambiguous-class: defined at " + sites;
    const std::string& first = *bi->second.begin();
    e.path = first.substr(0, first.rfind(':'));
    e.line = std::stoi(first.substr(first.rfind(':') + 1));
    ++violations;
    status_counts[e.status] += 1;
    a.findings.push_back(
        {"ambiguous-class", e.path, e.line,
         "class name '" + c + "' is reachable from IdsEngine::execute and "
         "names " + std::to_string(bi->second.size()) + " classes (" + sites +
         "); the certificate cannot tell their fields apart, so rename "
         "all but one",
         {},
         false});
    classes[c].push_back(std::move(e));
  }

  auto record = [&](const std::string& klass, Entry e,
                    const std::string& report_name) {
    status_counts[e.status] += 1;
    if (e.violation()) {
      ++violations;
      a.findings.push_back(
          {"shared-state", e.path, e.line,
           report_name + " is reachable from IdsEngine::execute but is "
           "neither const, guarded, atomic, internally synchronized, "
           "nor phase-frozen (IDS_FROZEN_AFTER) (" + e.detail +
           "); concurrent queries would race on it",
           {},
           false});
    }
    classes[klass].push_back(std::move(e));
  };

  for (const std::string& c : closure) {
    auto bc = t.by_class.find(c);
    if (bc == t.by_class.end()) continue;
    classes[c];  // deterministic: every closure class appears
    for (const auto& [name, idx] : bc->second) {
      const FieldInfo& fi = t.fields[idx];
      if (fi.is_const) {
        ++const_fields;
        status_counts["const"] += 1;
        continue;  // immutable by declaration: not inventoried
      }
      Entry e;
      e.name = fi.name;
      e.path = fi.path;
      e.line = fi.line;
      if (fi.is_sync) {
        e.status = "sync-primitive";
      } else if (fi.is_atomic) {
        e.status = "atomic";
      } else if (!fi.guarded_by.empty()) {
        e.status = "guarded";
        e.detail = fi.guarded_by;
      } else if (!fi.frozen_after.empty()) {
        // The rung is earned, not declared: the phase analysis must have
        // proven the ingest→freeze→serve discipline for this field.
        if (phases.field_ok(idx)) {
          e.status = "frozen-after-init";
          e.detail = fi.frozen_after;
        } else {
          e.status = "violation";
          e.detail = "IDS_FROZEN_AFTER(" + fi.frozen_after +
                     ") phase contract not proven; run the phase-discipline"
                     "/frozen-ingest-guard rules for the sites";
        }
      } else if (fi.is_mutable &&
                 !class_internally_synchronized(fi.type_class, corpus, t)) {
        e.status = "violation";
        e.detail = "mutable member written behind const access paths";
      } else {
        const std::vector<WriteSite>* sites = t.sites(idx);
        const WriteSite* bad = nullptr;
        if (sites != nullptr) {
          for (const WriteSite& ws : *sites) {
            if (!ws.in_ctor) {
              bad = &ws;
              break;
            }
          }
        }
        if (bad != nullptr) {
          e.status = "violation";
          e.detail = "written at " + bad->path + ":" +
                     std::to_string(bad->line) + " ('" + bad->detail + "')";
        } else {
          e.status = "const-after-init";
        }
      }
      record(c, std::move(e), "member '" + fi.qualified() + "'");
    }
  }

  // Function-local statics in bodies reachable from the engine.
  std::set<const MergedFunc*> reach = a.graph->reachable_from({root});
  std::map<std::string, Entry> statics;  // qualified name -> entry
  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    auto fci = corpus.merged.find(fn.klass);
    if (fci == corpus.merged.end()) continue;
    auto fmi = fci->second.find(fn.name);
    if (fmi == fci->second.end() || reach.count(&fmi->second) == 0) continue;
    const FileData& f = *fn.file;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i]) || !tok_is(f.toks[i], "static")) continue;
      std::size_t j = i + 1;
      while (j < fn.body_end && !tok_is(f.toks[j], ";")) {
        if ((tok_is(f.toks[j], "(") || tok_is(f.toks[j], "{") ||
             tok_is(f.toks[j], "[")) &&
            f.partner[j] != kNone && f.partner[j] < fn.body_end) {
          j = f.partner[j];
        }
        ++j;
      }
      FieldInfo fi;
      if (!parse_decl_span(f, i, j, "", corpus, &fi)) {
        i = j;
        continue;
      }
      if (fi.is_const) {
        ++const_fields;
        status_counts["const"] += 1;
        i = j;
        continue;
      }
      Entry e = classify_standalone(fi, corpus, t);
      e.name = fmi->second.qualified() + "::" + fi.name;
      if (e.violation()) e.detail = "function-local static";
      auto [it, inserted] = statics.insert({e.name, e});
      if (inserted) {
        status_counts[e.status] += 1;
        if (e.violation()) {
          ++violations;
          a.findings.push_back(
              {"shared-state", e.path, e.line,
               "function-local static '" + e.name +
                   "' is reachable from IdsEngine::execute but is neither "
                   "const, atomic, nor internally synchronized; concurrent "
                   "queries would race on its mutation",
               {},
               false});
        }
      }
      i = j;
    }
  }

  // Namespace-scope globals: shared by construction, engine-reachable or
  // not — a process serving concurrent queries shares every one of them.
  std::vector<Entry> globals;
  for (const FieldInfo& fi : t.globals) {
    if (fi.is_const) {
      ++const_fields;
      status_counts["const"] += 1;
      continue;
    }
    Entry e = classify_standalone(fi, corpus, t);
    if (e.violation()) {
      ++violations;
      a.findings.push_back(
          {"shared-state", e.path, e.line,
           "namespace-scope global '" + e.name +
               "' is mutable shared state; make it const, atomic, or "
               "internally synchronized",
           {},
           false});
    }
    status_counts[e.status] += 1;
    globals.push_back(std::move(e));
  }

  // --- machine-readable inventory (committed; CI diffs it) ---------------
  os << "{\n"
     << "  \"certificate\": \"concurrent-exec\",\n"
     << "  \"root\": \"IdsEngine::execute\",\n"
     << "  \"classes\": [\n";
  std::size_t ck = 0;
  for (const auto& [klass, entries] : classes) {
    os << "    {\"class\": " << json_str(klass) << ", \"fields\": [";
    if (entries.empty()) {
      os << "]}";
    } else {
      os << "\n";
      for (std::size_t k = 0; k < entries.size(); ++k) {
        emit_entry(os, "      ", entries[k], "field",
                   k + 1 == entries.size());
      }
      os << "    ]}";
    }
    os << (++ck == classes.size() ? "" : ",") << "\n";
  }
  os << "  ],\n"
     << "  \"statics\": [\n";
  std::size_t sk = 0;
  for (const auto& [name, e] : statics) {
    emit_entry(os, "    ", e, "static", ++sk == statics.size());
  }
  os << "  ],\n"
     << "  \"globals\": [\n";
  for (std::size_t k = 0; k < globals.size(); ++k) {
    emit_entry(os, "    ", globals[k], "global", k + 1 == globals.size());
  }
  os << "  ],\n"
     << "  \"summary\": {\n"
     << "    \"classes\": " << classes.size() << ",\n"
     << "    \"const\": " << const_fields << ",\n";
  for (const char* s : {"const-after-init", "guarded", "frozen-after-init",
                        "sync-primitive", "atomic",
                        "internally-synchronized"}) {
    os << "    \"" << s << "\": " << status_counts[s] << ",\n";
  }
  os << "    \"violations\": " << violations << "\n"
     << "  }\n"
     << "}\n";
  return violations;
}

}  // namespace ids::analyzer
