#pragma once

// Clang thread-safety annotations and an annotated mutex wrapper.
//
// Every mutex-protected subsystem in this repository declares its locking
// contract with these macros so that Clang's -Wthread-safety analysis can
// machine-check it at compile time: which members a mutex guards
// (IDS_GUARDED_BY), which private helpers assume the lock is already held
// (IDS_REQUIRES), and which public entry points must never be called with
// it held (IDS_EXCLUDES). On GCC (and any compiler without the capability
// attributes) every macro expands to nothing, so the annotations are
// zero-cost documentation there and enforced contract under Clang.
//
// Use ids::Mutex + ids::MutexLock instead of naked std::mutex +
// std::lock_guard everywhere outside this directory — tools/lint.sh
// enforces that ban so new code cannot silently opt out of the analysis.

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define IDS_THREAD_SAFETY_ANALYSIS_ENABLED 1
#endif
#endif

#ifdef IDS_THREAD_SAFETY_ANALYSIS_ENABLED
#define IDS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define IDS_THREAD_SAFETY_ANALYSIS_ENABLED 0
#define IDS_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a lockable capability ("mutex", "role", ...).
#define IDS_CAPABILITY(x) IDS_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires in its constructor, releases in its
/// destructor.
#define IDS_SCOPED_CAPABILITY IDS_THREAD_ANNOTATION(scoped_lockable)

/// Data member is protected by the given mutex.
#define IDS_GUARDED_BY(x) IDS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex.
#define IDS_PT_GUARDED_BY(x) IDS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function may only be called with the listed mutexes held (exclusive).
#define IDS_REQUIRES(...) \
  IDS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function may only be called with the listed mutexes held (shared).
#define IDS_REQUIRES_SHARED(...) \
  IDS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the mutex and does not release it before returning.
#define IDS_ACQUIRE(...) \
  IDS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a mutex the caller held.
#define IDS_RELEASE(...) \
  IDS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function tries to acquire the mutex; first argument is the success
/// return value.
#define IDS_TRY_ACQUIRE(...) \
  IDS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called with the listed mutexes held (deadlock
/// prevention for non-reentrant locks).
#define IDS_EXCLUDES(...) IDS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given mutex.
#define IDS_RETURN_CAPABILITY(x) IDS_THREAD_ANNOTATION(lock_returned(x))

/// Asserts at runtime that the calling thread holds the mutex, informing
/// the static analysis.
#define IDS_ASSERT_CAPABILITY(x) IDS_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Use sparingly and
/// leave a comment explaining why the contract cannot be expressed.
#define IDS_NO_THREAD_SAFETY_ANALYSIS \
  IDS_THREAD_ANNOTATION(no_thread_safety_analysis)

// --- ids-analyzer contract markers (tools/analyzer, DESIGN.md §8) -----------
//
// These two are consumed by the in-tree interprocedural checker, not by
// Clang: they compile to nothing on every compiler.

/// Declares that a function may block (sleep, wait, join, file/process
/// I/O, or a callee that does). Inside the function, [blocking-under-lock]
/// findings are suppressed — the author has accepted the blocking — and
/// for callers the function counts as a blocking sink: calling it while an
/// ids::MutexLock is held is a finding at the call site.
#define IDS_MAY_BLOCK

/// Declares a sanctioned wall-clock read outside src/telemetry/ (e.g. log
/// timestamps). Suppresses [wallclock-in-engine] for the function.
#define IDS_WALLCLOCK_OK

/// Declares an ingest→freeze→serve epoch for one field: the annotated
/// member is mutable only until the owning class's named freeze method
/// (e.g. `IDS_FROZEN_AFTER(finalize)`) has run, and is immutable — hence
/// safe to read from any number of concurrent queries — afterwards. The
/// phase rule family ([phase-discipline], [frozen-ingest-guard]) verifies
/// the contract: every write site must be ingest-phase (a constructor,
/// the freeze method itself, or a mutator that checks `!frozen()`), and
/// no write may be reachable from `IdsEngine::execute`. On the
/// `--certify=concurrent-exec` ladder these fields land on the
/// `frozen-after-init` rung; a mutable field reachable from execute() with
/// neither this, a guard, nor an atomic type is a violation. Trails the
/// declarator like IDS_GUARDED_BY; expands to nothing on every compiler.
#define IDS_FROZEN_AFTER(freeze_method)

/// Declares that calling this method may invalidate views (spans,
/// string_views, references, pointers, iterators) previously derived from
/// the named container — input for the [view-invalidation] summaries when
/// the inference cannot see it (storage behind an opaque handle, body in a
/// TU the analyzer is not given). Trails the declarator, e.g.
/// `void compact() IDS_INVALIDATES(rows_);`. Expands to nothing.
#define IDS_INVALIDATES(container)

/// Declares that a mutating method preserves existing views into the
/// object (deque-style stable storage, arena append, node-based rehash).
/// The [view-invalidation] summary inference drops the method, so calling
/// it between a view's derivation and use is not a finding. Expands to
/// nothing.
#define IDS_STABLE_STORAGE

/// Audited waiver for the lifetime rule family ([view-invalidation],
/// [dangling-return], [temporary-bound-view], [task-outlives-capture]):
/// suppresses those findings inside the annotated function. The reason is
/// an identifier-style tag recorded in the finding notes, e.g.
/// `IDS_VIEW_OK(span_rederived_after_every_mutation)`. Trails the
/// declarator; expands to nothing on every compiler.
#define IDS_VIEW_OK(reason)

namespace ids {

/// std::mutex with the capability annotation. Satisfies BasicLockable /
/// Lockable, but prefer MutexLock so the scope of the critical section is
/// visible to the analysis.
class IDS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() IDS_ACQUIRE() { mu_.lock(); }
  void unlock() IDS_RELEASE() { mu_.unlock(); }
  bool try_lock() IDS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII guard over ids::Mutex (the annotated std::lock_guard analogue).
class IDS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) IDS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() IDS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with ids::Mutex. Internally drives the
/// wrapped std::mutex directly, so the analysis never sees an
/// unlock-without-hold inside library code.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits for `pred`, reacquires `mu`. Caller
  /// must hold `mu`, and holds it again on return.
  template <typename Pred>
  void wait(Mutex& mu, Pred pred) IDS_REQUIRES(mu) IDS_MAY_BLOCK {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk, std::move(pred));
    lk.release();  // ownership stays with the caller's MutexLock
  }

  /// Timed wait: atomically releases `mu`, waits until `pred` holds or
  /// `timeout` elapses, reacquires `mu`. Returns pred()'s value at wake-up.
  /// This is the sanctioned way to pace a background thread (the sampling
  /// profiler's tick) — tools/lint.sh bans raw host-side sleeps in src/
  /// precisely so pacing stays interruptible through the condvar.
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout,
                Pred pred) IDS_REQUIRES(mu) IDS_MAY_BLOCK {
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    const bool ok = cv_.wait_for(lk, timeout, std::move(pred));
    lk.release();  // ownership stays with the caller's MutexLock
    return ok;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ids
