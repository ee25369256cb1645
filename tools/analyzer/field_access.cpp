#include "field_access.h"

#include <algorithm>

namespace ids::analyzer {
namespace {

bool is_assign_op(const std::string& t) {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=",  "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>="};
  return kOps.count(t) != 0;
}

/// Lock node for the MutexLock argument list at `open` — mirrors the
/// interprocedural walker's resolution: "mu_" -> "Class::mu_",
/// "peer.mu_" -> "Peer::mu_" when the member type is known.
std::string resolve_lock_arg(const FileData& f, std::size_t open,
                             const std::string& cur_class,
                             const Corpus& corpus) {
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
  return "";
}

}  // namespace

bool parse_decl_span(const FileData& f, std::size_t begin, std::size_t end,
                     const std::string& klass, const Corpus& corpus,
                     FieldInfo* out) {
  std::size_t b = begin, e = end;
  // Cut at the first top-level '=' or '{' (initializer — `T x = ...` or
  // `T x{...}`), skipping balanced groups reached through the declarator.
  for (std::size_t i = b; i < e; ++i) {
    if (tok_is(f.toks[i], "=") || tok_is(f.toks[i], "{")) {
      e = i;
      break;
    }
    if ((tok_is(f.toks[i], "(") || tok_is(f.toks[i], "[")) &&
        f.partner[i] != kNone && f.partner[i] < e) {
      i = f.partner[i];
    }
  }
  // Strip trailing IDS_*(...) annotation groups (after the '='-cut, so an
  // initializer does not hide them), recording the two this layer consumes.
  while (e > b && tok_is(f.toks[e - 1], ")") && f.partner[e - 1] != kNone) {
    std::size_t o = f.partner[e - 1];
    if (o > b && tok_ident(f.toks[o - 1]) &&
        f.toks[o - 1].text.rfind("IDS_", 0) == 0) {
      const std::string& macro = f.toks[o - 1].text;
      std::string arg;
      for (std::size_t k = o + 1; k + 1 < e; ++k) arg += f.toks[k].text;
      if (macro == "IDS_GUARDED_BY" || macro == "IDS_PT_GUARDED_BY") {
        out->guarded_by = arg.empty() ? "?" : arg;
      } else if (macro == "IDS_FROZEN_AFTER") {
        out->frozen_after = arg.empty() ? "?" : arg;
      }
      e = o - 1;
    } else {
      break;
    }
  }
  if (e <= b) return false;
  bool has_amp = false, has_const = false, last_is_star = false;
  bool const_binds = false;  // const not followed by a later '*'
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = f.toks[i];
    if (tok_is(t, "(")) return false;  // function decl / function pointer
    if (tok_ident(t)) {
      const std::string& n = t.text;
      if (n == "operator" || n == "friend" || n == "extern") return false;
      if (n == "const") {
        has_const = true;
        const_binds = true;  // cleared again if a '*' follows
      }
      if (n == "constexpr") out->is_const = true;
      // thread_local storage is per-thread by construction: not shared
      // state, so it classifies with the immutables.
      if (n == "thread_local") out->is_const = true;
      if (n == "static") out->is_static = true;
      if (n == "mutable") out->is_mutable = true;
      if (n.rfind("atomic", 0) == 0) out->is_atomic = true;
      if (n == "Mutex" || n == "CondVar" || n == "mutex" ||
          n == "shared_mutex" || n == "recursive_mutex" ||
          n == "condition_variable" || n == "condition_variable_any") {
        out->is_sync = true;  // ids:: wrappers and the std:: primitives
      }
      if (!is_keyword(n) && n.rfind("IDS_", 0) != 0) out->name = n;
      last_is_star = false;
    } else if (tok_is(t, "*")) {
      const_binds = false;  // the const seen so far qualifies the pointee
      last_is_star = true;
    } else if (tok_is(t, "&") || tok_is(t, "&&")) {
      has_amp = true;
      last_is_star = false;
    }
  }
  (void)last_is_star;
  if (out->name.empty()) return false;
  // `const T x`, `T& x`, and `T* const x` bindings are immutable;
  // `const T* x` is a re-pointable pointer to const and stays mutable.
  if ((has_const && const_binds) || has_amp) out->is_const = true;
  for (std::size_t i = b; i < e; ++i) {
    const Token& t = f.toks[i];
    if (tok_ident(t) && t.text != out->name &&
        corpus.classes.count(t.text) != 0) {
      out->type_class = t.text;
      break;
    }
  }
  out->klass = klass;
  out->path = f.path;
  out->line = f.toks[b].line;
  return true;
}

namespace {

/// Collects write sites for every field, resolving mutating method calls
/// against the current unsafe-class set (one iteration of the fixed point).
std::map<std::size_t, std::vector<WriteSite>> collect_writes(
    const Corpus& corpus, const FieldTable& t,
    const std::set<std::string>& unsafe) {
  std::map<std::size_t, std::vector<WriteSite>> out;
  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const FileData& f = *fn.file;
    const bool in_ctor = !fn.klass.empty() && fn.name == fn.klass;
    LockScope scope(fn, corpus);
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      scope.step(i);
      if (!tok_ident(f.toks[i]) || is_keyword(f.toks[i].text)) continue;
      const std::string& n = f.toks[i].text;
      // Resolve the owner class of a would-be field access.
      std::string owner;
      const bool after_member =
          i > 0 && (tok_is(f.toks[i - 1], ".") || tok_is(f.toks[i - 1], "->"));
      if (i > 0 && tok_is(f.toks[i - 1], "::")) continue;
      if (after_member) {
        if (i >= 2 && tok_ident(f.toks[i - 2])) {
          const std::string& recv = f.toks[i - 2].text;
          if (recv == "this") {
            owner = fn.klass;
          } else {
            auto mi = corpus.members.find(fn.klass);
            if (mi != corpus.members.end()) {
              auto ri = mi->second.find(recv);
              if (ri != mi->second.end()) owner = ri->second;
            }
          }
        }
        if (owner.empty()) continue;
      } else {
        owner = fn.klass;
        // `Type n = ...` declares a local that shadows the field.
        if (i > fn.body_begin && tok_ident(f.toks[i - 1]) &&
            !is_keyword(f.toks[i - 1].text)) {
          continue;
        }
      }
      if (owner.empty()) continue;
      auto ci = t.by_class.find(owner);
      if (ci == t.by_class.end()) continue;
      auto fi = ci->second.find(n);
      if (fi == ci->second.end()) continue;
      const std::size_t idx = fi->second;
      const FieldInfo& field = t.fields[idx];

      // Skip over subscript chains: `f[i] = v` still assigns into the
      // container, so the op after the chain decides.
      std::size_t j = i + 1;
      while (j < fn.body_end && tok_is(f.toks[j], "[") &&
             f.partner[j] != kNone && f.partner[j] < fn.body_end) {
        j = f.partner[j] + 1;
      }
      WriteSite ws;
      ws.path = f.path;
      ws.line = f.toks[i].line;
      ws.in_ctor = in_ctor;
      ws.under_lock = scope.any_held();
      ws.lock = scope.innermost();
      ws.fn = &fn;
      bool is_write = false;
      if (j < fn.body_end) {
        const std::string& op = f.toks[j].text;
        if (is_assign_op(op) || op == "++" || op == "--") {
          is_write = true;
          ws.detail = op;
        } else if ((tok_is(f.toks[j], ".") || tok_is(f.toks[j], "->")) &&
                   j + 2 < fn.body_end && tok_ident(f.toks[j + 1]) &&
                   tok_is(f.toks[j + 2], "(")) {
          const std::string& method = f.toks[j + 1].text;
          const std::string& tc = field.type_class;
          if (tc.empty() || corpus.merged.count(tc) == 0) {
            // External type: fall back to the container-method name list.
            if (is_mutating_container_method(method)) {
              is_write = true;
              ws.via_method = true;
              ws.detail = method;
            }
          } else if (unsafe.count(tc) != 0) {
            // A method call on an object of a class that is not internally
            // synchronized: non-const methods mutate; const methods do too
            // when the class hides unprotected `mutable` state.
            auto mc = corpus.merged.find(tc);
            auto mm = mc->second.find(method);
            const bool non_const = mm == mc->second.end()
                                       ? is_mutating_container_method(method)
                                       : !mm->second.all_const();
            if (non_const || t.mutable_trap.count(tc) != 0) {
              is_write = true;
              ws.via_method = true;
              ws.detail = method;
            }
          }
          // An internally-synchronized (or immutable) class absorbs the
          // call — not a write against this field.
        }
      }
      if (!is_write && i > fn.body_begin &&
          (tok_is(f.toks[i - 1], "++") || tok_is(f.toks[i - 1], "--"))) {
        is_write = true;  // pre-increment/decrement
        ws.detail = f.toks[i - 1].text;
      }
      if (is_write) out[idx].push_back(ws);
    }
  }
  return out;
}

/// One unsafe-set iteration from a write map: a class is unsafe when some
/// field is neither protected nor ctor-confined — or hides unprotected
/// `mutable` state (written from const readers the collector cannot see).
std::set<std::string> compute_unsafe(
    const FieldTable& t,
    const std::map<std::size_t, std::vector<WriteSite>>& writes,
    const std::set<std::string>& prev_unsafe) {
  std::set<std::string> out;
  for (std::size_t idx = 0; idx < t.fields.size(); ++idx) {
    const FieldInfo& fi = t.fields[idx];
    if (fi.protected_state()) continue;
    if (fi.is_mutable &&
        (fi.type_class.empty() || prev_unsafe.count(fi.type_class) != 0 ||
         t.mutable_trap.count(fi.type_class) != 0)) {
      out.insert(fi.klass);
      continue;
    }
    auto wi = writes.find(idx);
    if (wi == writes.end()) continue;
    for (const WriteSite& ws : wi->second) {
      if (!ws.in_ctor) {
        out.insert(fi.klass);
        break;
      }
    }
  }
  return out;
}

}  // namespace

bool is_mutating_container_method(const std::string& name) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "push_front", "pop_front",
      "insert",    "emplace",      "erase",    "clear",      "resize",
      "assign",    "push",         "pop",      "reserve",    "swap",
      "store",     "fetch_add",    "fetch_sub"};
  return kMutators.count(name) != 0;
}

std::vector<std::string> param_names(const FuncDecl& fn) {
  std::vector<std::string> out;
  if (fn.file == nullptr || fn.params_end <= fn.params_begin) return out;
  const FileData& f = *fn.file;
  int depth = 0, angle = 0;
  std::string last_ident;
  bool defaulted = false;
  auto flush = [&] {
    if (!defaulted && !last_ident.empty() && !is_keyword(last_ident)) {
      out.push_back(last_ident);
    }
    last_ident.clear();
    defaulted = false;
  };
  for (std::size_t i = fn.params_begin; i < fn.params_end; ++i) {
    const Token& t = f.toks[i];
    if (t.kind == Token::Kind::kPunct) {
      const std::string& p = t.text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (p == "<") ++angle;
      else if (p == ">") angle = std::max(0, angle - 1);
      else if (p == ">>") angle = std::max(0, angle - 2);
      else if (depth == 0 && angle == 0) {
        if (p == ",") flush();
        else if (p == "=") defaulted = true;  // name precedes the default
      }
      continue;
    }
    if (depth == 0 && angle == 0 && !defaulted && tok_ident(t)) {
      last_ident = t.text;
    }
  }
  flush();
  return out;
}

LockScope::LockScope(const FuncDecl& fn, const Corpus& corpus)
    : fn_(fn), corpus_(corpus), f_(*fn.file) {
  auto ci = corpus.merged.find(fn.klass);
  if (ci != corpus.merged.end()) {
    auto mi = ci->second.find(fn.name);
    if (mi != ci->second.end()) {
      for (const std::string& r : mi->second.requires_held) {
        held_.push_back({qualify_lock(r, fn.klass), -1});
      }
    }
  }
}

void LockScope::step(std::size_t i) {
  const Token& t = f_.toks[i];
  if (tok_is(t, "{")) {
    ++depth_;
    return;
  }
  if (tok_is(t, "}")) {
    held_.erase(std::remove_if(held_.begin(), held_.end(),
                               [&](const Guard& g) {
                                 return g.depth == depth_;
                               }),
                held_.end());
    depth_ = std::max(0, depth_ - 1);
    return;
  }
  if (tok_ident(t) && t.text == "MutexLock" && i + 2 < f_.toks.size() &&
      tok_ident(f_.toks[i + 1]) && tok_is(f_.toks[i + 2], "(")) {
    std::string node = resolve_lock_arg(f_, i + 2, fn_.klass, corpus_);
    if (!node.empty()) held_.push_back({node, depth_});
  }
}

bool LockScope::holds(const std::string& node) const {
  return std::any_of(held_.begin(), held_.end(),
                     [&](const Guard& g) { return g.node == node; });
}

FieldTable build_field_table(const Corpus& corpus) {
  FieldTable t;
  for (const MemberSpan& s : corpus.member_spans) {
    FieldInfo fi;
    if (parse_decl_span(*s.file, s.begin, s.end, s.klass, corpus, &fi)) {
      t.fields.push_back(std::move(fi));
    }
  }
  for (const MemberSpan& s : corpus.global_spans) {
    FieldInfo fi;
    if (parse_decl_span(*s.file, s.begin, s.end, "", corpus, &fi)) {
      t.globals.push_back(std::move(fi));
    }
  }
  auto by_qual = [](const FieldInfo& a, const FieldInfo& b) {
    if (a.klass != b.klass) return a.klass < b.klass;
    if (a.name != b.name) return a.name < b.name;
    return a.path < b.path;
  };
  std::stable_sort(t.fields.begin(), t.fields.end(), by_qual);
  t.fields.erase(std::unique(t.fields.begin(), t.fields.end(),
                             [](const FieldInfo& a, const FieldInfo& b) {
                               return a.klass == b.klass && a.name == b.name;
                             }),
                 t.fields.end());
  std::stable_sort(t.globals.begin(), t.globals.end(),
                   [](const FieldInfo& a, const FieldInfo& b) {
                     if (a.path != b.path) return a.path < b.path;
                     return a.name < b.name;
                   });
  for (std::size_t i = 0; i < t.fields.size(); ++i) {
    const FieldInfo& fi = t.fields[i];
    t.by_class[fi.klass][fi.name] = i;
    if (fi.is_sync && !fi.klass.empty() &&
        fi.guarded_by.empty()) {  // a guarded CondVar is not the lock
      t.class_has_mutex.insert(fi.klass);
    }
    if (fi.is_mutable && !fi.protected_state() &&
        (fi.type_class.empty() || corpus.merged.count(fi.type_class) == 0)) {
      t.mutable_trap.insert(fi.klass);
    }
  }
  // Greatest fixed point on class safety: start from "every class safe",
  // collect writes under that assumption, recompute the unsafe set, and
  // iterate — the set only grows, so this terminates in <= #classes steps.
  std::set<std::string> unsafe;
  for (;;) {
    auto writes = collect_writes(corpus, t, unsafe);
    auto next = compute_unsafe(t, writes, unsafe);
    if (next == unsafe) {
      t.writes = std::move(writes);
      t.unsafe_classes = std::move(next);
      break;
    }
    unsafe = std::move(next);
  }
  return t;
}

}  // namespace ids::analyzer
