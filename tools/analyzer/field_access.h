#pragma once

// Per-field access model for ids-analyzer's concurrency layer.
//
// Builds on the corpus' member-declaration spans: every data member of
// every class is classified (const, static, atomic, synchronization
// primitive, IDS_GUARDED_BY or IDS_FROZEN_AFTER annotation), and
// every function body is scanned for write sites against those fields —
// direct assignments, increments, and mutating method calls — each tagged
// with whether the site runs inside a constructor/destructor and which
// ids::MutexLock guards (if any) are alive at the site.
//
// Two consumers: [guarded-by] inference (rules_concurrency.cpp) compares
// held-lock sets across a field's write sites, and the
// --certify=concurrent-exec walk classifies every field transitively
// reachable from IdsEngine::execute. The class-safety fixed point lives
// here too: a class is concurrency-safe when every field is const, a sync
// primitive, atomic, lock-annotated, phase-frozen, or never written
// outside its constructor — with mutating method calls resolved against
// the callee class' own safety, iterated until stable.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "corpus.h"

namespace ids::analyzer {

struct FieldInfo {
  std::string klass;       // owning class
  std::string name;        // member name
  std::string type_class;  // corpus class of the declared type ("" = external)
  std::string path;        // file of the declaration
  int line = 0;
  bool is_const = false;    // const/constexpr value or reference binding
  bool is_static = false;   // class-static data member
  bool is_mutable = false;  // declared mutable (writable from const methods)
  bool is_atomic = false;   // std::atomic<...> (or atomic_* alias)
  bool is_sync = false;     // ids::Mutex / ids::CondVar
  std::string guarded_by;   // IDS_GUARDED_BY argument ("" = unannotated)
  std::string frozen_after;  // IDS_FROZEN_AFTER freeze method ("" = none)

  std::string qualified() const { return klass + "::" + name; }
  /// const, sync primitive, atomic, lock-annotated, or phase-frozen —
  /// the field can never be an *unguarded* race by itself (for frozen
  /// fields the phase rules carry the proof obligation).
  bool protected_state() const {
    return is_const || is_sync || is_atomic || !guarded_by.empty() ||
           !frozen_after.empty();
  }
};

struct WriteSite {
  std::string path;
  int line = 0;
  bool in_ctor = false;     // inside a constructor/destructor of the class
  bool under_lock = false;  // some MutexLock / IDS_REQUIRES guard is alive
  std::string lock;         // a held lock node at the site ("" = none)
  bool via_method = false;  // mutation through a non-const method call
  std::string detail;       // operator or method name that mutates
  const FuncDecl* fn = nullptr;  // enclosing function (owned by the corpus)
};

struct FieldTable {
  std::vector<FieldInfo> fields;  // sorted by (class, name); stable once built
  /// Namespace-scope variable declarations (klass == ""), sorted by
  /// (path, name) — the global side of the shared-state certificate.
  std::vector<FieldInfo> globals;
  /// class -> member name -> index into `fields`.
  std::map<std::string, std::map<std::string, std::size_t>> by_class;
  /// field index -> write sites (declaration order of the enclosing funcs).
  std::map<std::size_t, std::vector<WriteSite>> writes;
  /// Classes that directly own an ids::Mutex member.
  std::set<std::string> class_has_mutex;
  /// Classes with an unprotected `mutable` field: their const methods can
  /// mutate shared state, so const-ness alone does not prove a call safe.
  std::set<std::string> mutable_trap;
  /// Complement of the concurrency-safe greatest fixed point: a class in
  /// this set has at least one field that is mutable shared state.
  std::set<std::string> unsafe_classes;

  const FieldInfo* find(const std::string& klass,
                        const std::string& name) const {
    auto ci = by_class.find(klass);
    if (ci == by_class.end()) return nullptr;
    auto fi = ci->second.find(name);
    return fi == ci->second.end() ? nullptr : &fields[fi->second];
  }
  bool class_safe(const std::string& klass) const {
    return unsafe_classes.count(klass) == 0;
  }
  /// Non-ctor write sites of the field at `idx` (empty when never written).
  const std::vector<WriteSite>* sites(std::size_t idx) const {
    auto it = writes.find(idx);
    return it == writes.end() ? nullptr : &it->second;
  }
};

/// Builds the field table, write-site summaries, and the class-safety
/// fixed point for the whole corpus.
FieldTable build_field_table(const Corpus& corpus);

/// Parses one variable-declaration token span (a class-member span, a
/// namespace-scope span, or a function-local `static` declaration) into a
/// FieldInfo: initializer cut at the top-level '=', trailing IDS_*(...)
/// annotation groups recorded, const/static/mutable/atomic/sync flags and
/// the declared type's corpus class resolved. Returns false for spans
/// that are not data declarations.
bool parse_decl_span(const FileData& f, std::size_t begin, std::size_t end,
                     const std::string& klass, const Corpus& corpus,
                     FieldInfo* out);

/// True for method names that mutate their receiver on standard-library
/// containers (push_back, insert, clear, ...) — used when the receiver's
/// class is outside the corpus and const-ness cannot be resolved.
bool is_mutating_container_method(const std::string& name);

/// Parameter names of the declarator's parameter list (last identifier of
/// each top-level comma-separated parameter, defaults skipped).
std::vector<std::string> param_names(const FuncDecl& fn);

/// Scope-aware held-lock tracker, shared by the write-site collector and
/// the escape analysis: feed it every token of a body in order and it
/// maintains the set of ids::MutexLock guards (plus IDS_REQUIRES
/// contracts) alive at the current position, expiring each guard with its
/// enclosing brace scope.
class LockScope {
 public:
  LockScope(const FuncDecl& fn, const Corpus& corpus);

  /// Advances over the token at `i`; call once per index, in order.
  void step(std::size_t i);

  bool any_held() const { return !held_.empty(); }
  /// Most recently acquired lock node ("" when none is held).
  const std::string& innermost() const {
    static const std::string kNone_;
    return held_.empty() ? kNone_ : held_.back().node;
  }
  bool holds(const std::string& node) const;

 private:
  struct Guard {
    std::string node;
    int depth;
  };
  const FuncDecl& fn_;
  const Corpus& corpus_;
  const FileData& f_;
  std::vector<Guard> held_;
  int depth_ = 0;
};

}  // namespace ids::analyzer
