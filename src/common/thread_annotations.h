#ifndef NASHDB_COMMON_THREAD_ANNOTATIONS_H_
#define NASHDB_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attribute macros (Abseil style, see
/// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). On Clang with
/// `-Wthread-safety` the compiler statically verifies that every access to
/// a `NASHDB_GUARDED_BY(mu)` field happens while `mu` is held and that
/// functions honor their `NASHDB_REQUIRES` / `NASHDB_EXCLUDES` contracts.
/// On other compilers every macro expands to nothing, so the annotations
/// are pure documentation there.
///
/// The analysis only sees lock acquisitions through annotated primitives —
/// raw std::mutex + std::lock_guard are invisible to it — so annotated
/// code locks through the nashdb::Mutex / MutexLock / CondVar wrappers in
/// common/mutex.h. Conventions: annotate the *field* with GUARDED_BY, the
/// *function contract* with REQUIRES/EXCLUDES, and keep lock scopes as
/// RAII guards (the analysis understands scoped capabilities natively).

#if defined(__clang__) && (!defined(SWIG))
#define NASHDB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NASHDB_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Declares a class to be a lockable capability (e.g. a mutex wrapper).
#define NASHDB_CAPABILITY(x) NASHDB_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define NASHDB_SCOPED_CAPABILITY NASHDB_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated field may only be read or written while the given
/// capability is held.
#define NASHDB_GUARDED_BY(x) NASHDB_THREAD_ANNOTATION_(guarded_by(x))

/// The pointed-to data (not the pointer itself) is guarded by `x`.
#define NASHDB_PT_GUARDED_BY(x) NASHDB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function may only be called while holding the given capabilities.
#define NASHDB_REQUIRES(...) \
  NASHDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Shared (reader) version of NASHDB_REQUIRES.
#define NASHDB_REQUIRES_SHARED(...) \
  NASHDB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and does not release it.
#define NASHDB_ACQUIRE(...) \
  NASHDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

#define NASHDB_ACQUIRE_SHARED(...) \
  NASHDB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (which must be held on entry).
#define NASHDB_RELEASE(...) \
  NASHDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#define NASHDB_RELEASE_SHARED(...) \
  NASHDB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `ret`.
#define NASHDB_TRY_ACQUIRE(ret, ...) \
  NASHDB_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// The function must NOT be called while holding the given capabilities
/// (guards against self-deadlock on non-reentrant mutexes).
#define NASHDB_EXCLUDES(...) \
  NASHDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the capability guarding it.
#define NASHDB_RETURN_CAPABILITY(x) \
  NASHDB_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function intentionally bypasses the analysis (e.g.
/// init/teardown paths that are single-threaded by construction).
#define NASHDB_NO_THREAD_SAFETY_ANALYSIS \
  NASHDB_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Marks a steady-state query-path function or a control-plane kernel's
/// inner loop (DESIGN.md §10/§14/§15.6): the body must be allocation-free
/// — no `new`, no make_unique/make_shared, no std::string construction,
/// no container growth calls. The contract is
/// enforced by tools/nashdb_lint.py (rule `hot-alloc`); deliberate appends
/// into caller-reserved, capacity-reusing buffers carry a
/// `// NASHDB_LINT_ALLOW(hot-alloc): reason` at the call site. On GCC and
/// Clang the marker doubles as the `hot` optimization attribute.
#if defined(__GNUC__) || defined(__clang__)
#define NASHDB_HOT __attribute__((hot))
#else
#define NASHDB_HOT
#endif

#endif  // NASHDB_COMMON_THREAD_ANNOTATIONS_H_
