// Thread-safety annotations + annotated locking primitives.
//
// Locking discipline in this codebase is declared in the types: every
// mutex-protected member says which mutex guards it (SHAREGRID_GUARDED_BY),
// and every function that needs or refuses a lock says so
// (SHAREGRID_REQUIRES / SHAREGRID_EXCLUDES). Under Clang the macros expand
// to the capability attributes consumed by -Wthread-safety, so acquiring the
// wrong mutex — or none — is a compile error; under GCC they expand to
// nothing and the `mutex-annotated` rule in tools/sharegrid_analyze still
// enforces that every mutex member is named by at least one annotation
// (docs/static-analysis.md has the full gating matrix).
//
// The analysis only understands lock/unlock operations that are themselves
// annotated. libstdc++'s std::mutex / std::lock_guard carry no annotations,
// so this header also provides the thin annotated primitives the library
// uses instead: Mutex (a capability wrapping std::mutex) and MutexLock (a
// scoped capability replacing std::lock_guard).
#pragma once

#include <mutex>

#if defined(__clang__)
#define SHAREGRID_THREAD_ATTRIBUTE(x) __attribute__((x))
#else
#define SHAREGRID_THREAD_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability (argument names it in diagnostics).
#define SHAREGRID_CAPABILITY(x) SHAREGRID_THREAD_ATTRIBUTE(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SHAREGRID_SCOPED_CAPABILITY SHAREGRID_THREAD_ATTRIBUTE(scoped_lockable)

/// Member may only be read or written while holding the named mutex.
#define SHAREGRID_GUARDED_BY(x) SHAREGRID_THREAD_ATTRIBUTE(guarded_by(x))

/// Pointee may only be accessed while holding the named mutex.
#define SHAREGRID_PT_GUARDED_BY(x) SHAREGRID_THREAD_ATTRIBUTE(pt_guarded_by(x))

/// Function requires the listed mutexes to be held on entry (and exit).
#define SHAREGRID_REQUIRES(...) \
  SHAREGRID_THREAD_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the listed mutexes held (it acquires
/// them itself; holding one on entry would self-deadlock).
#define SHAREGRID_EXCLUDES(...) \
  SHAREGRID_THREAD_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function acquires the listed mutexes (or `this` when empty) and leaves
/// them held.
#define SHAREGRID_ACQUIRE(...) \
  SHAREGRID_THREAD_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the listed mutexes (or `this` when empty).
#define SHAREGRID_RELEASE(...) \
  SHAREGRID_THREAD_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function acquires the mutex only when it returns the given value.
#define SHAREGRID_TRY_ACQUIRE(...) \
  SHAREGRID_THREAD_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

namespace sharegrid::util {

/// Annotated mutex: std::mutex declared as a Clang capability so
/// -Wthread-safety can track what it guards. Same semantics and cost.
class SHAREGRID_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SHAREGRID_ACQUIRE() { mutex_.lock(); }
  void unlock() SHAREGRID_RELEASE() { mutex_.unlock(); }
  bool try_lock() SHAREGRID_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  // The wrapped handle is only ever touched through the annotated
  // lock()/unlock() above, so it is exempt from the mutex-annotated rule.
  std::mutex mutex_;  // sharegrid-analyze: allow(mutex-annotated)
};

/// Annotated scoped lock: std::lock_guard over Mutex, visible to the
/// analysis as a scoped capability (held from construction to destruction).
class SHAREGRID_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SHAREGRID_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SHAREGRID_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace sharegrid::util
