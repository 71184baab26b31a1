// Clang thread-safety-analysis macros (no-ops on other compilers).
//
// The concurrent subsystems (sim/sweep, server, store, metrics) carry these
// annotations so `clang++ -Wthread-safety -Werror=thread-safety` turns an
// unguarded access to a mutex-protected member into a *build break* instead
// of a code-review comment. GCC compiles the same code unannotated — the
// macros expand to nothing — so the gate costs non-Clang builds nothing.
//
// Conventions used across the codebase:
//  - members owned by a lock:        T x_ AEEP_GUARDED_BY(mutex_);
//  - functions called under a lock:  void f() AEEP_REQUIRES(mutex_);
//    (these are the `*_locked()` helpers)
//  - functions that must NOT hold it: void g() AEEP_EXCLUDES(mutex_);
//  - lock-wrapper methods:           AEEP_ACQUIRE / AEEP_RELEASE
//
// std::mutex is not annotated in libstdc++, so the analysis cannot see a
// std::lock_guard acquire it. common/mutex.hpp provides the annotated
// aeep::Mutex / aeep::MutexLock / aeep::CondVar wrappers the rest of the
// code uses instead.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define AEEP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define AEEP_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define AEEP_CAPABILITY(x) AEEP_THREAD_ANNOTATION_(capability(x))

/// Marks a scoped-lock type (acquires in ctor, releases in dtor).
#define AEEP_SCOPED_CAPABILITY AEEP_THREAD_ANNOTATION_(scoped_lockable)

/// Member may only be touched while `x` is held.
#define AEEP_GUARDED_BY(x) AEEP_THREAD_ANNOTATION_(guarded_by(x))

/// Pointee (not the pointer) is protected by `x`.
#define AEEP_PT_GUARDED_BY(x) AEEP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Caller must hold every listed capability (the `*_locked()` contract).
#define AEEP_REQUIRES(...) \
  AEEP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the capability and returns holding it.
#define AEEP_ACQUIRE(...) \
  AEEP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define AEEP_RELEASE(...) \
  AEEP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define AEEP_TRY_ACQUIRE(result, ...) \
  AEEP_THREAD_ANNOTATION_(try_acquire_capability(result, __VA_ARGS__))

/// Caller must NOT already hold the listed capabilities (deadlock guard).
#define AEEP_EXCLUDES(...) \
  AEEP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Returns a reference to data guarded by the capability.
#define AEEP_RETURN_CAPABILITY(x) \
  AEEP_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's locking is intentionally invisible to the
/// analysis (use sparingly, with a comment saying why).
#define AEEP_NO_THREAD_SAFETY_ANALYSIS \
  AEEP_THREAD_ANNOTATION_(no_thread_safety_analysis)
