#include "corpus.h"

#include <algorithm>

namespace ids::analyzer {
namespace {

/// Pass A: one linear scan per file, recursing into class and namespace
/// bodies, recording function declarations/definitions and class-member
/// declaration spans. Function *bodies* are recorded, not recursed into;
/// the rules walk them later.

void compute_partners(FileData& f) {
  f.partner.assign(f.toks.size(), kNone);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < f.toks.size(); ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind != Token::Kind::kPunct) continue;
    if (t == "(" || t == "{" || t == "[") {
      stack.push_back(i);
    } else if (t == ")" || t == "}" || t == "]") {
      const char open = t == ")" ? '(' : (t == "}" ? '{' : '[');
      // Tolerate mismatches: pop until the matching opener kind.
      while (!stack.empty() && f.toks[stack.back()].text[0] != open) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        f.partner[stack.back()] = i;
        f.partner[i] = stack.back();
        stack.pop_back();
      }
    }
  }
}

/// Skips a template parameter list starting at `i` (which may or may not
/// point at '<'); returns the index after the closing '>'.
std::size_t skip_template_params(const FileData& f, std::size_t i,
                                 std::size_t end) {
  if (i >= end || !tok_is(f.toks[i], "<")) return i;
  int depth = 0;
  while (i < end) {
    const std::string& t = f.toks[i].text;
    if (t == "<") depth += 1;
    else if (t == ">") depth -= 1;
    else if (t == ">>") depth -= 2;
    ++i;
    if (depth <= 0) break;
  }
  return i;
}

/// Splits annotation-macro arguments: tokens between the parens, separated
/// at top-level commas, each joined into a single string ("mu", "a.mu_").
std::vector<std::string> annotation_args(const FileData& f, std::size_t open) {
  std::vector<std::string> out;
  std::size_t close = f.partner[open];
  if (close == kNone) return out;
  std::string cur;
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& t = f.toks[i].text;
    if (t == "(") ++depth;
    if (t == ")") --depth;
    if (t == "," && depth == 0) {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      continue;
    }
    cur += t;
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

/// Return-type classification for the declarator whose name token is at
/// `name_idx`: walk back over `Class::` qualifiers, then look at the token
/// just before — `Status` or `Result<...>`.
Ret classify_return(const FileData& f, std::size_t name_idx) {
  std::size_t q = name_idx;
  while (q >= 2 && tok_is(f.toks[q - 1], "::") && tok_ident(f.toks[q - 2])) {
    q -= 2;
  }
  if (q == 0) return Ret::kOther;
  std::size_t k = q - 1;
  if (tok_is(f.toks[k], "Status")) return Ret::kStatus;
  if (tok_is(f.toks[k], ">") || tok_is(f.toks[k], ">>")) {
    int depth = 0;
    std::size_t m = k;
    while (true) {
      const std::string& t = f.toks[m].text;
      if (t == ">") depth += 1;
      else if (t == ">>") depth += 2;
      else if (t == "<") depth -= 1;
      if (depth <= 0) break;
      if (m == 0) return Ret::kOther;
      --m;
    }
    if (m >= 1 && tok_is(f.toks[m - 1], "Result")) return Ret::kResult;
  }
  return Ret::kOther;
}

/// Head token of the return declarator for FuncDecl::ret_head: walk back
/// over `Class::` qualifiers from the name, then classify the token just
/// before it — "&"/"*" for references and pointers, the template head for
/// `std::vector<T>`/`std::span<T>` ("vector", "span"), otherwise the type
/// ident itself. "" when nothing parseable precedes the name (constructors,
/// macros, operators).
std::string compute_ret_head(const FileData& f, std::size_t name_idx) {
  std::size_t q = name_idx;
  while (q >= 2 && tok_is(f.toks[q - 1], "::") && tok_ident(f.toks[q - 2])) {
    q -= 2;
  }
  if (q == 0) return "";
  std::size_t k = q - 1;
  const std::string& prev = f.toks[k].text;
  if (prev == "&" || prev == "&&") return "&";
  if (prev == "*") return "*";
  if (prev == ">" || prev == ">>") {
    // Template type: walk back to the matching '<', the ident before it is
    // the head ("vector", "span", "unique_ptr", ...).
    int depth = 0;
    std::size_t m = k;
    while (true) {
      const std::string& t = f.toks[m].text;
      if (t == ">") depth += 1;
      else if (t == ">>") depth += 2;
      else if (t == "<") depth -= 1;
      if (depth <= 0) break;
      if (m == 0) return "";
      --m;
    }
    if (m >= 1 && tok_ident(f.toks[m - 1])) return f.toks[m - 1].text;
    return "";
  }
  if (tok_ident(f.toks[k]) && !is_keyword(prev) && prev != "const" &&
      prev != "constexpr" && prev != "inline" && prev != "static" &&
      prev != "virtual" && prev != "explicit" && prev != "friend" &&
      !is_macro_name(prev)) {
    return prev;
  }
  return "";
}

/// Parameter-count range [min, max] for the parameter list at `open`
/// (top-level comma count; '=' defaults lower the minimum; "..." makes the
/// maximum unbounded).
void declared_arity(const FileData& f, std::size_t open, std::size_t* min_out,
                    std::size_t* max_out) {
  std::size_t close = f.partner[open];
  *min_out = 0;
  *max_out = 0;
  if (close == kNone || close <= open + 1) return;  // "()" or unbalanced
  std::size_t params = 1, defaults = 0;
  bool variadic = false;
  int depth = 0, angle = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind == Token::Kind::kPunct) {
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "<") ++angle;
      else if (t == ">") angle = std::max(0, angle - 1);
      else if (t == ">>") angle = std::max(0, angle - 2);
      else if (depth == 0 && angle == 0) {
        if (t == ",") ++params;
        else if (t == "=") ++defaults;
        else if (t == "...") variadic = true;
      }
    }
  }
  *max_out = variadic ? kVariadic : params;
  *min_out = params >= defaults ? params - defaults : 0;
}

void scan_range(FileData& f, std::size_t begin, std::size_t end,
                const std::string& cur_class, Corpus& corpus);

/// Parses one function declarator whose name token is at `i` (followed by
/// '('). Records the FuncDecl and returns the index to resume scanning at.
std::size_t handle_declarator(FileData& f, std::size_t i, std::size_t end,
                              const std::string& cur_class, Corpus& corpus) {
  FuncDecl fn;
  fn.name = f.toks[i].text;
  fn.klass = cur_class;
  fn.file = &f;
  fn.line = f.toks[i].line;
  if (i >= 2 && tok_is(f.toks[i - 1], "::") && tok_ident(f.toks[i - 2])) {
    fn.klass = f.toks[i - 2].text;  // out-of-line Class::name definition
  }
  fn.ret = classify_return(f, i);
  fn.ret_head = compute_ret_head(f, i);

  std::size_t open = i + 1;
  if (f.partner[open] == kNone) return i + 2;  // unbalanced; bail
  declared_arity(f, open, &fn.min_args, &fn.max_args);
  fn.params_begin = open + 1;
  fn.params_end = f.partner[open];
  std::size_t p = f.partner[open] + 1;

  auto record = [&](std::size_t resume) {
    corpus.funcs.push_back(fn);
    return resume;
  };

  while (p < end) {
    const Token& t = f.toks[p];
    if (tok_ident(t)) {
      if (t.text == "const" || t.text == "override" || t.text == "final" ||
          t.text == "mutable" || t.text == "volatile") {
        if (t.text == "const") fn.is_const_method = true;
        ++p;
      } else if (t.text == "noexcept") {
        if (p + 1 < end && tok_is(f.toks[p + 1], "(") &&
            f.partner[p + 1] != kNone) {
          p = f.partner[p + 1] + 1;
        } else {
          ++p;
        }
      } else if (t.text.rfind("IDS_", 0) == 0) {
        if (p + 1 < end && tok_is(f.toks[p + 1], "(") &&
            f.partner[p + 1] != kNone) {
          auto args = annotation_args(f, p + 1);
          if (t.text == "IDS_EXCLUDES") {
            fn.excludes = std::move(args);
          } else if (t.text == "IDS_REQUIRES" ||
                     t.text == "IDS_REQUIRES_SHARED") {
            fn.requires_held = std::move(args);
          } else if (t.text == "IDS_INVALIDATES") {
            fn.invalidates = true;
            fn.invalidates_args = std::move(args);
          } else if (t.text == "IDS_VIEW_OK") {
            fn.view_ok = args.empty() ? "unspecified" : args.front();
          }
          p = f.partner[p + 1] + 1;
        } else {
          // Paren-less contract markers (see common/thread_annotations.h).
          if (t.text == "IDS_MAY_BLOCK") fn.may_block = true;
          if (t.text == "IDS_WALLCLOCK_OK") fn.wallclock_ok = true;
          if (t.text == "IDS_STABLE_STORAGE") fn.stable_storage = true;
          ++p;
        }
      } else {
        // Unrecognized trailing ident (e.g. a type we misparsed): record
        // what we have and let the caller rescan from here.
        return record(p);
      }
    } else if (tok_is(t, "&") || tok_is(t, "&&")) {
      ++p;
    } else if (tok_is(t, "[") && f.partner[p] != kNone) {
      p = f.partner[p] + 1;  // [[attribute]]
    } else if (tok_is(t, "->")) {
      ++p;  // trailing return type: skip to '{' or ';'
      while (p < end && !tok_is(f.toks[p], "{") && !tok_is(f.toks[p], ";")) {
        if ((tok_is(f.toks[p], "(") || tok_is(f.toks[p], "[")) &&
            f.partner[p] != kNone) {
          p = f.partner[p] + 1;
        } else {
          ++p;
        }
      }
    } else if (tok_is(t, "=")) {
      p += 2;  // = default / = delete / = 0
    } else if (tok_is(t, ":")) {
      // Constructor init list: member(init) and member{init} items, then
      // the body brace (whose predecessor is ')' or '}').
      ++p;
      while (p < end) {
        if (tok_is(f.toks[p], "{")) {
          if (p > 0 && tok_ident(f.toks[p - 1])) {
            if (f.partner[p] == kNone) return record(p + 1);
            p = f.partner[p] + 1;  // brace-init of a member
          } else {
            break;  // function body
          }
        } else if (tok_is(f.toks[p], "(") && f.partner[p] != kNone) {
          p = f.partner[p] + 1;
        } else {
          ++p;
        }
      }
    } else if (tok_is(t, "{")) {
      if (f.partner[p] == kNone) return record(p + 1);
      fn.body_begin = p + 1;
      fn.body_end = f.partner[p];
      return record(f.partner[p] + 1);
    } else if (tok_is(t, ";") || tok_is(t, ",")) {
      return record(p + 1);
    } else {
      return record(p);  // something we don't model; stop cleanly
    }
  }
  return record(end);
}

void handle_class(FileData& f, std::size_t i, std::size_t end,
                  const std::string& cur_class, Corpus& corpus,
                  std::size_t* resume) {
  std::size_t j = i + 1;
  // Skip [[attributes]], alignas(...), and IDS_* annotation macros between
  // the class keyword and the name.
  while (j < end) {
    const Token& t = f.toks[j];
    if (tok_is(t, "[") && f.partner[j] != kNone) {
      j = f.partner[j] + 1;
    } else if (tok_ident(t) && (t.text.rfind("IDS_", 0) == 0 ||
                                t.text == "alignas")) {
      if (j + 1 < end && tok_is(f.toks[j + 1], "(") &&
          f.partner[j + 1] != kNone) {
        j = f.partner[j + 1] + 1;
      } else {
        ++j;
      }
    } else {
      break;
    }
  }
  std::string name;
  if (j < end && tok_ident(f.toks[j])) {
    name = f.toks[j].text;
    ++j;
    // `struct Outer::Inner {` defines Inner, out of line.
    while (j + 1 < end && tok_is(f.toks[j], "::") && tok_ident(f.toks[j + 1])) {
      name = f.toks[j + 1].text;
      j += 2;
    }
    corpus.classes.insert(name);
  }
  std::size_t k = j;
  while (k < end && !tok_is(f.toks[k], "{") && !tok_is(f.toks[k], ";")) {
    if ((tok_is(f.toks[k], "(") || tok_is(f.toks[k], "[")) &&
        f.partner[k] != kNone) {
      k = f.partner[k] + 1;
    } else {
      ++k;
    }
  }
  if (k < end && tok_is(f.toks[k], "{") && f.partner[k] != kNone) {
    if (!name.empty()) {
      corpus.class_bodies[name].insert(f.path + ":" +
                                       std::to_string(f.toks[j - 1].line));
    }
    scan_range(f, k + 1, f.partner[k], name.empty() ? cur_class : name,
               corpus);
    *resume = f.partner[k] + 1;
  } else {
    *resume = k < end ? k + 1 : end;
  }
}

void scan_range(FileData& f, std::size_t begin, std::size_t end,
                const std::string& cur_class, Corpus& corpus) {
  std::size_t span_start = kNone;
  auto flush_span = [&](std::size_t span_end) {
    if (span_start != kNone && span_end > span_start) {
      if (!cur_class.empty()) {
        corpus.member_spans.push_back({cur_class, &f, span_start, span_end});
      } else {
        // Namespace-scope declaration: a global-variable candidate for the
        // shared-state certificate (field_access.cpp classifies it).
        corpus.global_spans.push_back({"", &f, span_start, span_end});
      }
    }
    span_start = kNone;
  };
  std::size_t i = begin;
  while (i < end) {
    const Token& t = f.toks[i];
    if (tok_ident(t)) {
      if (t.text == "template") {
        span_start = kNone;
        i = skip_template_params(f, i + 1, end);
        continue;
      }
      if (t.text == "namespace") {
        span_start = kNone;
        std::size_t j = i + 1;
        while (j < end && !tok_is(f.toks[j], "{") && !tok_is(f.toks[j], ";")) {
          ++j;
        }
        if (j < end && tok_is(f.toks[j], "{") && f.partner[j] != kNone) {
          scan_range(f, j + 1, f.partner[j], cur_class, corpus);
          i = f.partner[j] + 1;
        } else {
          i = j < end ? j + 1 : end;
        }
        continue;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union") {
        span_start = kNone;
        std::size_t resume = i + 1;
        handle_class(f, i, end, cur_class, corpus, &resume);
        i = resume;
        continue;
      }
      if (t.text == "enum") {
        span_start = kNone;
        std::size_t j = i + 1;
        while (j < end && !tok_is(f.toks[j], "{") && !tok_is(f.toks[j], ";")) {
          ++j;
        }
        if (j < end && tok_is(f.toks[j], "{") && f.partner[j] != kNone) {
          i = f.partner[j] + 1;  // enumerators are not members
        } else {
          i = j < end ? j + 1 : end;
        }
        continue;
      }
      if (t.text == "using" || t.text == "typedef" ||
          t.text == "static_assert") {
        span_start = kNone;
        std::size_t j = i + 1;
        while (j < end && !tok_is(f.toks[j], ";")) {
          if ((tok_is(f.toks[j], "(") || tok_is(f.toks[j], "{") ||
               tok_is(f.toks[j], "[")) &&
              f.partner[j] != kNone) {
            j = f.partner[j] + 1;
          } else {
            ++j;
          }
        }
        i = j < end ? j + 1 : end;
        continue;
      }
      // Function declarator candidate: ident immediately followed by '('.
      // Not one when an '=' already opened an initializer in this span —
      // `T name_ = make_default();` is a member with a call initializer,
      // and the span must survive intact for the lifetime rules.
      if (i + 1 < end && tok_is(f.toks[i + 1], "(") && !is_keyword(t.text) &&
          !is_macro_name(t.text)) {
        bool in_initializer = false;
        for (std::size_t q = span_start == kNone ? i : span_start; q < i;
             ++q) {
          if (tok_is(f.toks[q], "=")) {
            in_initializer = true;
            break;
          }
        }
        if (!in_initializer) {
          span_start = kNone;
          i = handle_declarator(f, i, end, cur_class, corpus);
          continue;
        }
        // Skip the initializer call opaquely so its arguments cannot look
        // like declarators of their own.
        i = f.partner[i + 1] != kNone && f.partner[i + 1] < end
                ? f.partner[i + 1] + 1
                : i + 2;
        continue;
      }
    } else if (tok_is(t, "{")) {
      // Brace initializer on a declaration span (`atomic<bool> done_{false};`,
      // `std::vector<int> v{1, 2};`): the group closes straight onto the
      // terminating ';', so skip it opaquely and keep the span alive for
      // flush — otherwise brace-initialized members would never reach the
      // field table or the shared-state certificate.
      if (span_start != kNone && f.partner[i] != kNone &&
          f.partner[i] + 1 < end && tok_is(f.toks[f.partner[i] + 1], ";")) {
        i = f.partner[i] + 1;
        continue;
      }
      // Block we did not recognize (operator overload body, extern "C",
      // ...): skip it opaquely.
      span_start = kNone;
      if (f.partner[i] != kNone) {
        i = f.partner[i] + 1;
      } else {
        ++i;
      }
      continue;
    } else if (tok_is(t, ";")) {
      flush_span(i);
      ++i;
      continue;
    }
    if (span_start == kNone) span_start = i;
    ++i;
  }
}

/// Pass B: resolve member declaration spans into class->member->class once
/// every class name in the corpus is known.
void resolve_members(Corpus& corpus) {
  for (const MemberSpan& s : corpus.member_spans) {
    const FileData& f = *s.file;
    std::size_t b = s.begin, e = s.end;
    // Only the declarator matters: `T name_ = make_default();` carries its
    // initializer's parens, so cut at the first top-level '=' before the
    // function-pointer/operator screen below.
    for (std::size_t i = b; i < e; ++i) {
      if (tok_is(f.toks[i], "=")) {
        e = i;
        break;
      }
      if ((tok_is(f.toks[i], "(") || tok_is(f.toks[i], "{") ||
           tok_is(f.toks[i], "[")) &&
          f.partner[i] != kNone && f.partner[i] < e) {
        i = f.partner[i];
      }
    }
    // Strip trailing IDS_* annotation groups: `T name_ IDS_GUARDED_BY(mu_)`
    // (after the '='-cut, so an initializer does not hide them).
    while (e > b && tok_is(f.toks[e - 1], ")") && f.partner[e - 1] != kNone) {
      std::size_t o = f.partner[e - 1];
      if (o > b && tok_ident(f.toks[o - 1]) &&
          f.toks[o - 1].text.rfind("IDS_", 0) == 0) {
        e = o - 1;
      } else {
        break;
      }
    }
    bool has_paren = false;
    for (std::size_t i = b; i < e; ++i) {
      if (tok_is(f.toks[i], "(")) has_paren = true;
    }
    if (has_paren) continue;  // operator decls, function pointers, ...
    std::string member, klass;
    for (std::size_t i = b; i < e; ++i) {
      if (!tok_ident(f.toks[i])) continue;
      if (klass.empty() && corpus.classes.count(f.toks[i].text)) {
        klass = f.toks[i].text;
      }
      if (!is_keyword(f.toks[i].text)) member = f.toks[i].text;
    }
    if (!member.empty() && !klass.empty() && member != klass) {
      corpus.members[s.klass][member] = klass;
    }
  }
}

void build_merged(Corpus& corpus) {
  for (const FuncDecl& fn : corpus.funcs) {
    MergedFunc& m = corpus.merged[fn.klass][fn.name];
    m.name = fn.name;
    m.klass = fn.klass;
    switch (fn.ret) {
      case Ret::kStatus: m.saw_status = true; break;
      case Ret::kResult: m.saw_result = true; break;
      case Ret::kOther: m.saw_other = true; break;
    }
    if (!fn.excludes.empty()) m.excludes = fn.excludes;
    if (!fn.requires_held.empty()) m.requires_held = fn.requires_held;
    m.may_block = m.may_block || fn.may_block;
    m.wallclock_ok = m.wallclock_ok || fn.wallclock_ok;
    m.invalidates = m.invalidates || fn.invalidates;
    for (const std::string& a : fn.invalidates_args) {
      if (std::find(m.invalidates_args.begin(), m.invalidates_args.end(), a) ==
          m.invalidates_args.end()) {
        m.invalidates_args.push_back(a);
      }
    }
    m.stable_storage = m.stable_storage || fn.stable_storage;
    if (m.view_ok.empty()) m.view_ok = fn.view_ok;
    if (m.ret_head.empty()) m.ret_head = fn.ret_head;
    m.min_args = std::min(m.min_args, fn.min_args);
    if (m.max_args != kVariadic) {
      m.max_args = fn.max_args == kVariadic ? kVariadic
                                            : std::max(m.max_args, fn.max_args);
    }
    m.decls.push_back(&fn);
  }
  for (auto& [klass, fns] : corpus.merged) {
    for (auto& [name, m] : fns) corpus.by_name[name].push_back(&m);
  }
}

/// Pass C: thin-wrapper return-kind inference. A body that is exactly
/// `return <call-chain>(...);` whose callee is known to return Status or
/// Result makes the wrapper Status/Result-returning even when its declared
/// spelling (an alias, a typedef) defeated classify_return. Iterated to a
/// fixed point so wrappers of wrappers resolve too.
void infer_wrapper_returns(Corpus& corpus) {
  for (bool changed = true; changed;) {
    changed = false;
    for (const FuncDecl& fn : corpus.funcs) {
      if (!fn.has_body()) continue;
      MergedFunc& m = corpus.merged[fn.klass][fn.name];
      if (m.saw_status || m.saw_result || m.inferred != Ret::kOther) continue;
      const FileData& f = *fn.file;
      std::size_t b = fn.body_begin, e = fn.body_end;
      if (e <= b || !tok_is(f.toks[b], "return")) continue;
      if (e < b + 4 || !tok_is(f.toks[e - 1], ";")) continue;
      // The callee name is the ident right before the final '(' whose close
      // ends the statement; everything before it must be a receiver chain.
      if (!tok_is(f.toks[e - 2], ")")) continue;
      std::size_t open = f.partner[e - 2];
      if (open == kNone || open <= b + 1) continue;
      std::size_t name_idx = open - 1;
      if (!tok_ident(f.toks[name_idx])) continue;
      std::size_t k = name_idx;
      while (k >= b + 3 &&
             (tok_is(f.toks[k - 1], ".") || tok_is(f.toks[k - 1], "->") ||
              tok_is(f.toks[k - 1], "::")) &&
             tok_ident(f.toks[k - 2])) {
        k -= 2;
      }
      if (k != b + 1) continue;  // not a pure forwarding expression
      const std::string& callee = f.toks[name_idx].text;
      if (is_keyword(callee) || is_macro_name(callee)) continue;
      Ret r = resolve_ret(f, name_idx, fn.klass, corpus);
      if (r == Ret::kOther) continue;
      m.inferred = r;
      changed = true;
    }
  }
}

}  // namespace

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if", "while", "for", "switch", "return", "do", "else", "case",
      "default", "break", "continue", "goto", "co_return", "co_await",
      "co_yield", "throw", "new", "delete", "sizeof", "alignof", "typeid",
      "catch", "try", "using", "typedef", "static_assert", "decltype",
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
      "operator", "public", "private", "protected", "this"};
  return kKw.count(s) != 0;
}

bool is_macro_name(const std::string& s) {
  return s.rfind("IDS_", 0) == 0 || s == "RETURN_IF_ERROR" ||
         s == "ASSIGN_OR_RETURN";
}

std::string qualify_lock(const std::string& lock, const std::string& klass) {
  if (klass.empty()) return lock;
  if (lock.find("::") != std::string::npos ||
      lock.find('.') != std::string::npos ||
      lock.find("->") != std::string::npos) {
    return lock;
  }
  return klass + "::" + lock;
}

std::size_t call_arg_count(const FileData& f, std::size_t open) {
  std::size_t close = f.partner[open];
  if (close == kNone || close <= open + 1) return 0;
  std::size_t args = 1;
  int depth = 0, angle = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind != Token::Kind::kPunct) continue;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "<") ++angle;
    else if (t == ">") angle = std::max(0, angle - 1);
    else if (t == ">>") angle = std::max(0, angle - 2);
    else if (t == "," && depth == 0 && angle == 0) ++args;
  }
  return args;
}

std::vector<std::pair<std::size_t, std::size_t>> statements(
    const FileData& f, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t start = begin;
  int depth = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind == Token::Kind::kPunct) {
      if (t == "(") ++depth;
      else if (t == ")") depth = std::max(0, depth - 1);
      else if (t == "{" || t == "}") {
        if (i > start) out.emplace_back(start, i);
        start = i + 1;
        depth = 0;
        continue;
      } else if (t == ";" && depth == 0) {
        if (i > start) out.emplace_back(start, i);
        start = i + 1;
        continue;
      }
    }
  }
  if (end > start) out.emplace_back(start, end);
  return out;
}

const MergedFunc* resolve_call(const FileData& f, std::size_t idx,
                               const std::string& cur_class,
                               const Corpus& corpus) {
  const std::string& name = f.toks[idx].text;
  auto in_class = [&](const std::string& c) -> const MergedFunc* {
    auto ci = corpus.merged.find(c);
    if (ci == corpus.merged.end()) return nullptr;
    auto fi = ci->second.find(name);
    return fi == ci->second.end() ? nullptr : &fi->second;
  };
  if (idx >= 2 &&
      (tok_is(f.toks[idx - 1], ".") || tok_is(f.toks[idx - 1], "->"))) {
    if (!tok_ident(f.toks[idx - 2])) return nullptr;
    const std::string& recv = f.toks[idx - 2].text;
    std::string c;
    if (recv == "this") {
      c = cur_class;
    } else {
      auto mi = corpus.members.find(cur_class);
      if (mi != corpus.members.end()) {
        auto ri = mi->second.find(recv);
        if (ri != mi->second.end()) c = ri->second;
      }
    }
    if (c.empty()) return nullptr;  // receiver of unknown type
    return in_class(c);
  }
  if (idx >= 2 && tok_is(f.toks[idx - 1], "::") && tok_ident(f.toks[idx - 2])) {
    const std::string& qual = f.toks[idx - 2].text;
    if (corpus.classes.count(qual)) return in_class(qual);
    // Namespace qualifier: fall through to the global lookup.
  } else if (!cur_class.empty()) {
    if (const MergedFunc* m = in_class(cur_class)) return m;
  }
  auto bi = corpus.by_name.find(name);
  if (bi == corpus.by_name.end() || bi->second.size() != 1) return nullptr;
  return bi->second[0];
}

Ret resolve_ret(const FileData& f, std::size_t idx,
                const std::string& cur_class, const Corpus& corpus,
                bool* inferred) {
  if (inferred != nullptr) *inferred = false;
  if (const MergedFunc* m = resolve_call(f, idx, cur_class, corpus)) {
    if (m->ambiguous_ret()) return Ret::kOther;
    if (inferred != nullptr) *inferred = m->ret_is_inferred();
    return m->ret();
  }
  // A member call whose receiver we could not type (a local variable, a
  // nested chain) must not fall back to the global name table: `x.f()` on
  // an unrelated type would inherit f's corpus-wide return kind.
  if (idx >= 1 &&
      (tok_is(f.toks[idx - 1], ".") || tok_is(f.toks[idx - 1], "->"))) {
    return Ret::kOther;
  }
  auto bi = corpus.by_name.find(f.toks[idx].text);
  if (bi == corpus.by_name.end() || bi->second.empty()) return Ret::kOther;
  Ret r = bi->second[0]->ret();
  bool inf = bi->second[0]->ret_is_inferred();
  for (const MergedFunc* m : bi->second) {
    if (m->ambiguous_ret() || m->ret() != r) return Ret::kOther;
    inf = inf || m->ret_is_inferred();
  }
  if (inferred != nullptr) *inferred = inf;
  return r;
}

std::unique_ptr<FileData> make_file_data(std::string path,
                                         const std::string& src) {
  auto fd = std::make_unique<FileData>();
  fd->path = std::move(path);
  fd->toks = lex(src);
  compute_partners(*fd);
  return fd;
}

void Corpus::add_file(std::string path, const std::string& src) {
  files.push_back(make_file_data(std::move(path), src));
}

void Corpus::adopt_file(std::unique_ptr<FileData> fd) {
  files.push_back(std::move(fd));
}

void Corpus::finalize() {
  for (auto& fd : files) scan_range(*fd, 0, fd->toks.size(), "", *this);
  resolve_members(*this);
  build_merged(*this);
  infer_wrapper_returns(*this);
}

}  // namespace ids::analyzer
