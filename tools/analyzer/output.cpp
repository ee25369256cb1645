#include "output.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <tuple>

namespace ids::analyzer {

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> kTable = {
      {"discarded-status",
       "Status/Result return values must be consumed or wrapped in "
       "IDS_IGNORE_ERROR(...); '(void)' is not an approved discard."},
      {"unchecked-value",
       "Result::value() / .status().message() requires a dominating .ok() "
       "check in the same function."},
      {"lock-order",
       "ids::MutexLock acquisition order must be globally consistent; "
       "calling a function that acquires a held lock is a self-deadlock."},
      {"bare-assert",
       "assert() is banned in analyzed sources; use IDS_CHECK / IDS_DCHECK "
       "or return a Status for recoverable conditions."},
      {"xfile-lock-order",
       "Whole-program lock-order: acquisition chains propagated through "
       "the call graph must stay acyclic across translation units."},
      {"blocking-under-lock",
       "No call that transitively reaches a blocking sink (sleep, join, "
       "file/process I/O, condition waits) while an ids::MutexLock is "
       "held; IDS_MAY_BLOCK declares sanctioned blocking."},
      {"wallclock-in-engine",
       "No wall-clock reads outside src/telemetry/ and no raw randomness "
       "reachable from IdsEngine::execute; IDS_WALLCLOCK_OK sanctions a "
       "deliberate wall-clock read."},
      {"wrapper-discarded-status",
       "Discarding the result of a thin wrapper that forwards its "
       "callee's Status/Result is as bad as discarding the Status "
       "itself."},
      {"guarded-by",
       "Fields of classes that own an ids::Mutex must hold the lock "
       "consistently at every write and carry IDS_GUARDED_BY (or be "
       "atomic/const)."},
      {"thread-escape",
       "State captured by reference (or via 'this') in a task handed to "
       "ThreadPool::submit/parallel_for must not be mutated without a "
       "guarding MutexLock or atomic type; indexed writes into disjoint "
       "per-rank slots are the sanctioned pattern."},
      {"shared-state",
       "--certify=concurrent-exec: every static, global, and member "
       "transitively reachable from IdsEngine::execute must be immutable, "
       "guarded, atomic, internally synchronized, or phase-frozen "
       "(IDS_FROZEN_AFTER)."},
      {"ambiguous-class",
       "--certify=concurrent-exec: no two classes reachable from "
       "IdsEngine::execute may share a short name, or the certificate "
       "merges their fields."},
      {"phase-discipline",
       "An IDS_FROZEN_AFTER(freeze) field's owning class must define the "
       "freeze method, the field must not be mutable (lazy-prepare: "
       "prepare eagerly in freeze() instead), and neither a write to the "
       "field nor the freeze method itself may be reachable from "
       "IdsEngine::execute — the serve phase never mutates frozen "
       "state."},
      {"frozen-ingest-guard",
       "Every ingest-phase write to an IDS_FROZEN_AFTER field outside a "
       "constructor or the freeze method must sit in a function that "
       "checks IDS_CHECK(!frozen()) (IDS_DCHECK for private helpers) so "
       "post-freeze mutation aborts deterministically."},
      {"view-invalidation",
       "A span/string_view/reference/pointer/iterator derived from a "
       "container must not be used after an operation that may reallocate "
       "or destroy the element storage (push_back, rehash, clear, a method "
       "annotated IDS_INVALIDATES, or one inferred to reach such a "
       "mutation); IDS_STABLE_STORAGE exempts a mutator, IDS_VIEW_OK "
       "waives a function with an audit reason."},
      {"dangling-return",
       "Functions must not return a reference, pointer, span, or "
       "string_view bound to a local variable, a by-value parameter, or a "
       "temporary — the storage dies when the frame unwinds."},
      {"temporary-bound-view",
       "string_view/span locals and members must not be bound to rvalue "
       "temporaries (substr results, '+' concatenations, by-value-"
       "returning calls); the owner dies at the end of the statement."},
      {"task-outlives-capture",
       "Tasks handed to ThreadPool::submit must not capture frame state "
       "by reference (or 'this') unless the submitting function joins the "
       "task before returning; IDS_VIEW_OK(reason) records an audited "
       "exception."},
  };
  return kTable;
}

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_table()) {
    if (id == r.id) return true;
  }
  return false;
}

void sort_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.path, a.line, a.rule, a.message) <
                            std::tie(b.path, b.line, b.rule, b.message);
                   });
}

namespace {

std::string squash_digits(const std::string& s) {
  std::string out;
  bool in_run = false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_run) out += '#';
      in_run = true;
    } else {
      out += c;
      in_run = false;
    }
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string full_message(const Finding& fd) {
  std::string msg = fd.message;
  for (const std::string& n : fd.notes) msg += "\n  " + n;
  return msg;
}

}  // namespace

std::string baseline_key(const Finding& fd) {
  return fd.rule + "|" + fd.path + "|" + squash_digits(full_message(fd));
}

bool load_baseline(const std::string& path, std::set<std::string>* keys) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "ids-analyzer: cannot read baseline '" << path << "'\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    keys->insert(line);
  }
  return true;
}

void apply_baseline(const std::set<std::string>& keys,
                    std::vector<Finding>* findings) {
  for (Finding& fd : *findings) {
    if (keys.count(baseline_key(fd)) != 0) fd.suppressed = true;
  }
}

bool write_baseline(const std::string& path,
                    const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "ids-analyzer: cannot write baseline '" << path << "'\n";
    return false;
  }
  out << "# ids-analyzer baseline: one `rule|path|message` key per line\n"
      << "# (digit runs squashed to '#'). Findings matching a key are\n"
      << "# suppressed; regenerate with --write-baseline=FILE.\n";
  std::set<std::string> keys;
  for (const Finding& fd : findings) keys.insert(baseline_key(fd));
  for (const std::string& k : keys) out << k << "\n";
  return static_cast<bool>(out.flush());
}

void print_text(std::ostream& os, const std::vector<Finding>& findings) {
  for (const Finding& fd : findings) {
    if (fd.suppressed) continue;
    os << fd.path << ":" << fd.line << ": [" << fd.rule << "] " << fd.message
       << "\n";
    for (const std::string& n : fd.notes) os << "  " << n << "\n";
  }
}

namespace {

/// Escapes a workflow-command value: GitHub unescapes %25/%0D/%0A, so
/// literal '%', CR, and LF must be encoded (properties additionally need
/// it for ',' and ':', but rule ids and paths never contain those).
std::string github_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

void print_github(std::ostream& os, const std::vector<Finding>& findings) {
  for (const Finding& fd : findings) {
    if (fd.suppressed) continue;
    os << "::error file=" << github_escape(fd.path)
       << ",line=" << (fd.line > 0 ? fd.line : 1)
       << ",title=ids-analyzer/" << github_escape(fd.rule)
       << "::" << github_escape(full_message(fd)) << "\n";
  }
}

void print_sarif(std::ostream& os, const std::vector<Finding>& findings) {
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"ids-analyzer\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/ids/tools/analyzer\",\n"
     << "          \"rules\": [\n";
  const auto& rules = rule_table();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << "            {\n"
       << "              \"id\": \"" << rules[i].id << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(rules[i].summary) << "\" },\n"
       << "              \"defaultConfiguration\": { \"level\": \"error\" }\n"
       << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  bool first = true;
  for (const Finding& fd : findings) {
    if (!first) os << ",\n";
    first = false;
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(fd.rule) << "\",\n"
       << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": \""
       << json_escape(full_message(fd)) << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << json_escape(fd.path) << "\" },\n"
       << "                \"region\": { \"startLine\": "
       << (fd.line > 0 ? fd.line : 1) << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]" << (fd.suppressed ? ",\n          \"suppressions\": "
                                            "[ { \"kind\": \"external\" } ]"
                                          : "")
       << "\n"
       << "        }";
  }
  if (!first) os << "\n";
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
}

}  // namespace ids::analyzer
