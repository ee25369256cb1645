#pragma once

// Corpus model for ids-analyzer: every analyzed file lexed into a token
// stream, every function declaration/definition recorded with its
// annotations (IDS_EXCLUDES / IDS_REQUIRES / IDS_MAY_BLOCK /
// IDS_WALLCLOCK_OK), return-type classification (Status / Result<T>),
// parameter-arity range, and class-member typing — the shared substrate
// the file-local rules, the call graph, and the interprocedural rules all
// resolve against. No libclang: parsing is a linear token scan (lexer.h).

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lexer.h"

namespace ids::analyzer {

inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);
/// Arity sentinel for variadic ("...") parameter lists.
inline constexpr std::size_t kVariadic = static_cast<std::size_t>(-1);

struct FileData {
  std::string path;
  std::vector<Token> toks;
  std::vector<std::size_t> partner;  // open<->close indices for () {} []
};

enum class Ret { kOther, kStatus, kResult };

struct FuncDecl {
  std::string name;
  std::string klass;  // enclosing class, or "Class" from Class::name; "" = free
  Ret ret = Ret::kOther;
  std::vector<std::string> excludes;       // raw IDS_EXCLUDES args
  std::vector<std::string> requires_held;  // raw IDS_REQUIRES args
  bool may_block = false;                  // IDS_MAY_BLOCK on this decl
  bool wallclock_ok = false;               // IDS_WALLCLOCK_OK on this decl
  bool invalidates = false;                // IDS_INVALIDATES on this decl
  std::vector<std::string> invalidates_args;  // raw IDS_INVALIDATES args
  bool stable_storage = false;             // IDS_STABLE_STORAGE on this decl
  std::string view_ok;                     // IDS_VIEW_OK reason; "" = none
  /// Head token of the return declarator, walking back from the name over
  /// `Class::` qualifiers: "&" / "*" for references and pointers, the
  /// template head for `std::vector<T>` / `std::span<T>` ("vector",
  /// "span"), otherwise the type ident itself ("Status", "string_view",
  /// "void", "auto", ...). "" when nothing parseable precedes the name.
  std::string ret_head;
  bool is_const_method = false;            // trailing const qualifier
  std::size_t min_args = 0, max_args = 0;  // declared parameter-count range
  const FileData* file = nullptr;
  std::size_t body_begin = 0, body_end = 0;  // token range; begin==end: none
  /// Parameter-list token range (between the declarator's parens).
  std::size_t params_begin = 0, params_end = 0;
  int line = 0;
  bool has_body() const { return body_end > body_begin; }
};

/// Merged view of all declarations of (class, name): definitions usually
/// repeat neither the annotations nor the return type spelling of the
/// header declaration, so resolution wants the union. Overload sets merge
/// into one entry; their arity range is the union of the overloads'.
struct MergedFunc {
  std::string name, klass;
  bool saw_status = false, saw_result = false, saw_other = false;
  std::vector<std::string> excludes, requires_held;
  bool may_block = false;
  bool wallclock_ok = false;
  bool invalidates = false;                   // any decl has IDS_INVALIDATES
  std::vector<std::string> invalidates_args;  // union over declarations
  bool stable_storage = false;                // any decl has IDS_STABLE_STORAGE
  std::string view_ok;  // IDS_VIEW_OK reason from any decl; "" = none
  std::string ret_head;  // first nonempty FuncDecl::ret_head
  std::size_t min_args = kVariadic, max_args = 0;  // union over declarations
  /// Return kind inferred through thin forwarding wrappers
  /// (`X f() { return g(); }` where g returns Status and X is an alias the
  /// token scan cannot classify). Feeds [wrapper-discarded-status].
  Ret inferred = Ret::kOther;
  /// Every declaration/definition that contributed (definitions carry the
  /// bodies the interprocedural rules walk).
  std::vector<const FuncDecl*> decls;

  Ret ret() const {
    // Overload sets that disagree are treated as unresolvable.
    if (saw_status && !saw_result && !saw_other) return Ret::kStatus;
    if (saw_result && !saw_status && !saw_other) return Ret::kResult;
    if (!saw_status && !saw_result && inferred != Ret::kOther) return inferred;
    return Ret::kOther;
  }
  bool ambiguous_ret() const { return (saw_status || saw_result) && saw_other; }
  bool ret_is_inferred() const {
    return !saw_status && !saw_result && inferred != Ret::kOther;
  }
  bool arity_compatible(std::size_t n) const {
    if (min_args == kVariadic) return true;  // no parsed declaration
    return n >= min_args && (max_args == kVariadic || n <= max_args);
  }
  /// Every declaration carries a trailing const qualifier — calling the
  /// method cannot mutate the receiver (mutable members excepted; the
  /// concurrency layer accounts for those separately).
  bool all_const() const {
    for (const FuncDecl* d : decls) {
      if (!d->is_const_method) return false;
    }
    return !decls.empty();
  }
  std::string qualified() const {
    return klass.empty() ? name : klass + "::" + name;
  }
};

struct MemberSpan {
  std::string klass;  // "" for namespace-scope (global) declarations
  const FileData* file = nullptr;
  std::size_t begin = 0, end = 0;
};

struct Corpus {
  std::vector<std::unique_ptr<FileData>> files;
  std::vector<FuncDecl> funcs;  // one per declaration/definition, in order
  std::set<std::string> classes;
  /// Short class name -> "path:line" of every class body defined under
  /// it. The field table keys classes by short name, so a name defined
  /// twice merges two classes' fields (the certificate flags it).
  std::map<std::string, std::set<std::string>> class_bodies;
  std::vector<MemberSpan> member_spans;
  /// Namespace-scope declaration spans (global variables, extern decls):
  /// raw token runs the concurrency layer classifies for the shared-state
  /// certificate.
  std::vector<MemberSpan> global_spans;
  // Resolved after all files are parsed:
  std::map<std::string, std::map<std::string, MergedFunc>> merged;  // class->name
  std::map<std::string, std::vector<MergedFunc*>> by_name;
  std::map<std::string, std::map<std::string, std::string>> members;  // class->member->class

  /// Lexes `src` as `path` and queues it for parsing.
  void add_file(std::string path, const std::string& src);
  /// Queues an already-lexed file (see make_file_data) — the --jobs=N
  /// path, where lexing happens on worker threads and adoption restores
  /// the deterministic file order.
  void adopt_file(std::unique_ptr<FileData> fd);
  /// Parses every queued file and builds the merged/member tables plus the
  /// wrapper return-kind inference. Call exactly once, after all add_file.
  void finalize();
};

/// Lexes `src` as `path` into a FileData with partner indices computed.
/// Pure function of its arguments — safe to call from multiple threads.
std::unique_ptr<FileData> make_file_data(std::string path,
                                         const std::string& src);

// --- token helpers shared by the rules --------------------------------------

bool is_keyword(const std::string& s);
bool is_macro_name(const std::string& s);
inline bool tok_is(const Token& t, const char* text) { return t.text == text; }
inline bool tok_ident(const Token& t) { return t.kind == Token::Kind::kIdent; }

/// Lock name resolution: a bare `mu_` in class C becomes "C::mu_" so two
/// classes that both call their lock `mutex_` stay distinct graph nodes.
std::string qualify_lock(const std::string& lock, const std::string& klass);

/// Number of top-level arguments in the call whose '(' sits at `open`
/// (template angle brackets heuristically skipped); 0 for `()`.
std::size_t call_arg_count(const FileData& f, std::size_t open);

/// Statement boundaries inside a body: split at top-level ';' and at every
/// brace (nested blocks and lambda bodies fall out as their own
/// statements; an unbalanced tail is tolerated).
std::vector<std::pair<std::size_t, std::size_t>> statements(
    const FileData& f, std::size_t begin, std::size_t end);

// --- call resolution --------------------------------------------------------

/// Resolves the call whose callee-name token sits at `idx` to a unique
/// MergedFunc, or nullptr when the analysis cannot be sure (unknown
/// receiver type, ambiguous overload set across classes).
const MergedFunc* resolve_call(const FileData& f, std::size_t idx,
                               const std::string& cur_class,
                               const Corpus& corpus);

/// Like resolve_call but answers only "what does this call return" —
/// usable when the call is ambiguous across classes yet every overload
/// agrees on the return kind. `inferred` (optional) is set when the kind
/// came from wrapper inference rather than a declared spelling.
Ret resolve_ret(const FileData& f, std::size_t idx,
                const std::string& cur_class, const Corpus& corpus,
                bool* inferred = nullptr);

}  // namespace ids::analyzer
