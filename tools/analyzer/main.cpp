// ids-analyzer: the repository's compiled static checker.
//
// No libclang: the binary lexes the given sources itself (lexer.h), builds
// a corpus-wide symbol table plus a whole-program call graph
// (corpus.{h,cpp}, callgraph.{h,cpp}), and runs two rule families:
//
// file-local (rules_local.cpp):
//   [discarded-status]          every Status/Result return value must be
//                               consumed or wrapped in IDS_IGNORE_ERROR;
//                               a `(void)` cast is not an approved discard.
//   [wrapper-discarded-status]  the same, escalated through thin wrappers
//                               that forward their callee's Status/Result.
//   [unchecked-value]           no Result::value() / .status().message()
//                               without a dominating ok() check.
//   [bare-assert]               assert( is banned; use IDS_CHECK/IDS_DCHECK
//                               or return a Status.
//
// interprocedural (rules_interproc.cpp):
//   [lock-order]                lock acquisition order must be globally
//                               consistent (MutexLock + IDS_EXCLUDES +
//                               propagated acquisition summaries).
//   [xfile-lock-order]          the same, for chains that cross files.
//   [blocking-under-lock]       no call transitively reaching a blocking
//                               sink while a MutexLock is held
//                               (IDS_MAY_BLOCK escapes).
//   [wallclock-in-engine]       no wall-clock reads outside src/telemetry/,
//                               no raw randomness reachable from
//                               IdsEngine::execute (IDS_WALLCLOCK_OK
//                               escapes).
//
// concurrency (rules_concurrency.cpp, field_access.cpp, escape.cpp):
//   [guarded-by]                fields of mutex-owning classes written
//                               without a consistent held-lock set or an
//                               IDS_GUARDED_BY annotation.
//   [thread-escape]             by-reference captures (or members via a
//                               captured `this`) mutated inside tasks
//                               handed to ThreadPool::submit/parallel_for.
//   [shared-state]              only under --certify=concurrent-exec: the
//                               shared-state certificate rooted at
//                               IdsEngine::execute (inventory on stdout,
//                               findings on stderr).
//   [ambiguous-class]           only under --certify=concurrent-exec: two
//                               class bodies sharing a short name in the
//                               certified closure.
//
// phase/epoch (rules_phase.cpp, phase.h):
//   [phase-discipline]          IDS_FROZEN_AFTER(freeze) fields: the
//                               owning class must define the freeze
//                               method, the field must not be mutable
//                               (the lazy-prepare shape), and neither a
//                               write to it nor the freeze method itself
//                               may be reachable from IdsEngine::execute.
//   [frozen-ingest-guard]       every ingest-phase write outside a
//                               constructor or the freeze method must sit
//                               in a function checking
//                               IDS_CHECK(!frozen()).
//
// lifetime (rules_lifetime.cpp, lifetime.cpp, escape.cpp):
//   [view-invalidation]         views (span/string_view/reference/pointer/
//                               iterator/.data()) derived from a container
//                               and used after a may-invalidate operation
//                               — a reallocating std mutator, or a method
//                               whose inferred/annotated invalidation
//                               summary says so (IDS_INVALIDATES asserts,
//                               IDS_STABLE_STORAGE exempts).
//   [dangling-return]           returning a reference/pointer/view into a
//                               local, a by-value parameter, or a
//                               temporary.
//   [temporary-bound-view]      string_view/span locals and members bound
//                               to rvalue temporaries.
//   [task-outlives-capture]     by-ref/this captures handed to
//                               ThreadPool::submit in a frame that never
//                               joins the task (IDS_VIEW_OK waives, with
//                               the reason as audit trail).
//
// The analysis is deliberately conservative: a call it cannot resolve
// (ambiguous name, receiver of unknown type, operator overload) is skipped
// rather than guessed at, so a finding is always actionable.
//
// Exit codes: 0 clean (or all findings baseline-suppressed), 1 findings,
// 2 usage / IO error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis.h"
#include "callgraph.h"
#include "corpus.h"
#include "output.h"

// The analyzer dogfoods itself (tests/analyzer_selftest.sh): the marker
// below sanctions the --stats timing reads for [wallclock-in-engine] while
// expanding to nothing for the compiler.
#define IDS_WALLCLOCK_OK

namespace ids::analyzer {
namespace {

/// Wall-clock timing for --stats only; never feeds analysis results.
double wall_seconds() IDS_WALLCLOCK_OK {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool analyzable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

void usage(std::ostream& os) {
  os << "usage: ids-analyzer [OPTIONS] PATH...\n"
     << "Analyzes .h/.hpp/.cc/.cpp files (directories are walked "
        "recursively)\nfor the IDS error-handling, locking, and "
        "determinism discipline.\n\nOptions:\n"
     << "  --list-rules          print every rule id + summary and exit 0\n"
     << "  --rule=ID             run only this rule (repeatable)\n"
     << "  --format=text|sarif|github\n"
     << "                        output format (default: text; github "
        "emits\n"
     << "                        ::error workflow-command annotations)\n"
     << "  --baseline=FILE       suppress findings matching the baseline\n"
     << "  --write-baseline=FILE write current findings as a baseline\n"
     << "  --jobs=N              lex/load files on N threads (default and "
        "0:\n"
     << "                        all cores)\n"
     << "  --certify=concurrent-exec\n"
     << "                        emit the shared-state certificate rooted "
        "at\n"
     << "                        IdsEngine::execute (inventory JSON on "
        "stdout,\n"
     << "                        [shared-state] findings on stderr; the\n"
     << "                        baseline does not apply)\n"
     << "  --stats               print corpus/call-graph statistics, parse "
        "and\n"
     << "                        analysis wall time, and per-rule finding\n"
     << "                        counts to stderr\n"
     << "  --stats-json=FILE     also write the statistics as JSON (for "
        "CI\n"
     << "                        artifact archiving)\n"
     << "\nExit 0 = clean (or fully suppressed), 1 = findings, "
        "2 = usage/IO error.\n";
}

int run(int argc, char** argv) {
  std::vector<std::string> paths;
  std::set<std::string> enabled;
  std::string format = "text";
  std::string baseline_path, write_baseline_path;
  std::string certify, stats_json_path;
  bool want_stats = false;
  long jobs = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") continue;
    if (arg == "-h" || arg == "--help") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_table()) {
        std::cout << r.id << "\n    " << r.summary << "\n";
      }
      return 0;
    }
    if (arg.rfind("--rule=", 0) == 0) {
      std::string id = arg.substr(7);
      if (!known_rule(id)) {
        std::cerr << "ids-analyzer: unknown rule '" << id
                  << "' (see --list-rules)\n";
        return 2;
      }
      enabled.insert(id);
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "sarif" && format != "github") {
        std::cerr << "ids-analyzer: unknown format '" << format
                  << "' (expected text, sarif, or github)\n";
        return 2;
      }
      continue;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
      continue;
    }
    if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
      continue;
    }
    if (arg == "--stats") {
      want_stats = true;
      continue;
    }
    if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(13);
      continue;
    }
    if (arg.rfind("--jobs=", 0) == 0) {
      char* end = nullptr;
      jobs = std::strtol(arg.c_str() + 7, &end, 10);
      if (end == nullptr || *end != '\0' || jobs < 0) {
        std::cerr << "ids-analyzer: bad --jobs value '" << arg.substr(7)
                  << "' (expected a non-negative integer)\n";
        return 2;
      }
      if (jobs == 0) {
        jobs = std::max(1u, std::thread::hardware_concurrency());
      }
      continue;
    }
    if (arg.rfind("--certify=", 0) == 0) {
      certify = arg.substr(10);
      if (certify != "concurrent-exec") {
        std::cerr << "ids-analyzer: unknown certificate '" << certify
                  << "' (expected concurrent-exec)\n";
        return 2;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "ids-analyzer: unknown option '" << arg
                << "' (try --help)\n";
      return 2;
    }
    paths.push_back(arg);
  }
  if (paths.empty()) {
    std::cerr << "ids-analyzer: no input paths (try --help)\n";
    return 2;
  }

  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (auto it = std::filesystem::recursive_directory_iterator(p, ec);
           !ec && it != std::filesystem::recursive_directory_iterator();
           it.increment(ec)) {
        if (it->is_regular_file() && analyzable(it->path())) {
          files.push_back(it->path().string());
        }
      }
    } else if (std::filesystem::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "ids-analyzer: cannot read '" << p << "'\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  if (files.empty()) {
    std::cerr << "ids-analyzer: no analyzable files under the given paths\n";
    return 2;
  }

  const double lex_start = wall_seconds();
  Corpus corpus;
  if (jobs <= 1 || files.size() < 2) {
    for (const std::string& path : files) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::cerr << "ids-analyzer: cannot open '" << path << "'\n";
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      corpus.add_file(path, ss.str());
    }
  } else {
    // Read + lex on worker threads (make_file_data is a pure function);
    // adopt in input order so the corpus — and every downstream table,
    // finding, and baseline key — is byte-identical to a serial run.
    std::vector<std::unique_ptr<FileData>> slots(files.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> io_error{false};
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(jobs), files.size());
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t idx = next.fetch_add(1);
          if (idx >= slots.size()) return;
          std::ifstream in(files[idx], std::ios::binary);
          if (!in) {
            io_error.store(true);
            return;
          }
          std::ostringstream ss;
          ss << in.rdbuf();
          slots[idx] = make_file_data(files[idx], ss.str());
        }
      });
    }
    for (std::thread& th : pool) th.join();
    if (io_error.load()) {
      std::cerr << "ids-analyzer: cannot open an input file (--jobs run)\n";
      return 2;
    }
    for (std::unique_ptr<FileData>& fd : slots) {
      corpus.adopt_file(std::move(fd));
    }
  }
  const double lex_seconds = wall_seconds() - lex_start;
  const double corpus_start = wall_seconds();
  corpus.finalize();
  const double corpus_seconds = wall_seconds() - corpus_start;
  const double parse_seconds = lex_seconds + corpus_seconds;

  const double callgraph_start = wall_seconds();
  CallGraph graph;
  graph.build(corpus);
  const double callgraph_seconds = wall_seconds() - callgraph_start;

  Analysis a;
  a.corpus = &corpus;
  a.graph = &graph;
  a.enabled = enabled;

  const double analyze_start = wall_seconds();
  std::size_t cert_violations = 0;
  if (!certify.empty()) {
    // Certificate mode: only the [shared-state] walk runs; stdout carries
    // the inventory, findings go to stderr, the baseline does not apply.
    bool root_found = false;
    cert_violations = run_certificate(a, std::cout, &root_found);
    if (!root_found) {
      std::cerr << "ids-analyzer: --certify=" << certify
                << " found no IdsEngine::execute in the corpus\n";
      return 2;
    }
    sort_findings(a.findings);
  } else {
    run_local_rules(a);
    run_interproc_rules(a);
    run_concurrency_rules(a);
    run_phase_rules(a);
    run_lifetime_rules(a);
    sort_findings(a.findings);

    if (!baseline_path.empty()) {
      std::set<std::string> keys;
      if (!load_baseline(baseline_path, &keys)) return 2;
      apply_baseline(keys, &a.findings);
    }
    if (!write_baseline_path.empty()) {
      if (!write_baseline(write_baseline_path, a.findings)) return 2;
    }
  }
  const double analyze_seconds = wall_seconds() - analyze_start;
  const double total_seconds =
      parse_seconds + callgraph_seconds + analyze_seconds;

  // Per-rule counts: every known rule appears (zeros included) so the CI
  // archive is a stable schema.
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_rule;
  for (const RuleInfo& r : rule_table()) per_rule[r.id];
  std::size_t active = 0, suppressed = 0;
  for (const Finding& fd : a.findings) {
    if (fd.suppressed) {
      ++suppressed;
      per_rule[fd.rule].second += 1;
    } else {
      ++active;
      per_rule[fd.rule].first += 1;
    }
  }

  if (want_stats) {
    const CallGraphStats& s = graph.stats;
    std::fprintf(stderr,
                 "ids-analyzer stats: files=%zu decls=%zu functions=%zu "
                 "bodies=%zu\n"
                 "  call-sites=%zu edges=%zu resolved-unique=%zu "
                 "resolved-overapprox=%zu external=%zu unresolved=%zu\n"
                 "  resolution-ratio=%.4f (resolved / (resolved + "
                 "unresolved))\n"
                 "  parse-seconds=%.3f (jobs=%ld) analyze-seconds=%.3f\n"
                 "  phase-seconds: lex=%.3f corpus=%.3f callgraph=%.3f "
                 "rules=%.3f total=%.3f\n",
                 corpus.files.size(), s.decls, s.functions, s.bodies,
                 s.call_sites, s.edges, s.resolved_unique,
                 s.resolved_overapprox, s.external, s.unresolved,
                 s.resolution_ratio(), parse_seconds, jobs, analyze_seconds,
                 lex_seconds, corpus_seconds, callgraph_seconds,
                 analyze_seconds, total_seconds);
    for (const auto& [rule, counts] : per_rule) {
      if (counts.first == 0 && counts.second == 0) continue;
      std::fprintf(stderr, "  rule %-24s active=%zu suppressed=%zu\n",
                   rule.c_str(), counts.first, counts.second);
    }
  }
  if (!stats_json_path.empty()) {
    std::ofstream js(stats_json_path, std::ios::trunc);
    if (!js) {
      std::cerr << "ids-analyzer: cannot write stats JSON '"
                << stats_json_path << "'\n";
      return 2;
    }
    const CallGraphStats& s = graph.stats;
    char ratio[32], psec[32], asec[32];
    char lsec[32], csec[32], gsec[32], tsec[32];
    std::snprintf(ratio, sizeof(ratio), "%.4f", s.resolution_ratio());
    std::snprintf(psec, sizeof(psec), "%.3f", parse_seconds);
    std::snprintf(asec, sizeof(asec), "%.3f", analyze_seconds);
    std::snprintf(lsec, sizeof(lsec), "%.3f", lex_seconds);
    std::snprintf(csec, sizeof(csec), "%.3f", corpus_seconds);
    std::snprintf(gsec, sizeof(gsec), "%.3f", callgraph_seconds);
    std::snprintf(tsec, sizeof(tsec), "%.3f", total_seconds);
    js << "{\n"
       << "  \"files\": " << corpus.files.size() << ",\n"
       << "  \"decls\": " << s.decls << ",\n"
       << "  \"functions\": " << s.functions << ",\n"
       << "  \"bodies\": " << s.bodies << ",\n"
       << "  \"call_sites\": " << s.call_sites << ",\n"
       << "  \"edges\": " << s.edges << ",\n"
       << "  \"resolved_unique\": " << s.resolved_unique << ",\n"
       << "  \"resolved_overapprox\": " << s.resolved_overapprox << ",\n"
       << "  \"external\": " << s.external << ",\n"
       << "  \"unresolved\": " << s.unresolved << ",\n"
       << "  \"resolution_ratio\": " << ratio << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"parse_seconds\": " << psec << ",\n"
       << "  \"analyze_seconds\": " << asec << ",\n"
       << "  \"phase_seconds\": {\"lex\": " << lsec << ", \"corpus\": "
       << csec << ", \"callgraph\": " << gsec << ", \"rules\": " << asec
       << ", \"total\": " << tsec << "},\n"
       << "  \"findings\": {\"active\": " << active << ", \"suppressed\": "
       << suppressed << "},\n"
       << "  \"per_rule\": {\n";
    std::size_t k = 0;
    for (const auto& [rule, counts] : per_rule) {
      js << "    \"" << rule << "\": {\"active\": " << counts.first
         << ", \"suppressed\": " << counts.second << "}"
         << (++k == per_rule.size() ? "" : ",") << "\n";
    }
    js << "  }\n}\n";
    if (!js.flush()) {
      std::cerr << "ids-analyzer: cannot write stats JSON '"
                << stats_json_path << "'\n";
      return 2;
    }
  }

  if (!certify.empty()) {
    print_text(std::cerr, a.findings);
    if (cert_violations > 0) {
      std::cerr << "ids-analyzer: certificate FAILED: " << cert_violations
                << " violation(s) in " << corpus.files.size()
                << " file(s)\n";
      return 1;
    }
    std::cerr << "ids-analyzer: certificate OK (" << corpus.files.size()
              << " files)\n";
    return 0;
  }

  if (format == "sarif") {
    print_sarif(std::cout, a.findings);
  } else if (format == "github") {
    print_github(std::cout, a.findings);
  } else {
    print_text(std::cout, a.findings);
  }

  if (active > 0) {
    std::cerr << "ids-analyzer: " << active << " finding(s)";
    if (suppressed > 0) std::cerr << " (+" << suppressed << " suppressed)";
    std::cerr << " in " << corpus.files.size() << " file(s)\n";
    return 1;
  }
  std::cerr << "ids-analyzer: OK (" << corpus.files.size() << " files, "
            << corpus.funcs.size() << " functions";
  if (suppressed > 0) std::cerr << ", " << suppressed << " suppressed";
  std::cerr << ")\n";
  return 0;
}

}  // namespace
}  // namespace ids::analyzer

int main(int argc, char** argv) { return ids::analyzer::run(argc, argv); }
