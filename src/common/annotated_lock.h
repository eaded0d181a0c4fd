// Annotated lock wrappers for Clang thread-safety analysis (TSA).
//
// These are thin, zero-overhead shims over the standard <mutex> /
// <shared_mutex> primitives that carry Clang capability attributes, so
// `-Wthread-safety -Wthread-safety-beta` can prove at compile time that
// every access to a guarded member happens under the right latch and
// that every `*Locked()` helper is only reachable with its capability
// held. Under non-Clang compilers every attribute expands to nothing
// and the wrappers behave exactly like the standard types they wrap.
//
// Usage pattern (see DESIGN.md §14 for the repo-wide lock catalog):
//
//   class Table {
//    public:
//     void Put(int k, int v) {
//       MutexLock lock(mu_);
//       PutLocked(k, v);
//     }
//    private:
//     void PutLocked(int k, int v) VITRI_REQUIRES(mu_);
//     Mutex mu_;
//     std::map<int, int> map_ VITRI_GUARDED_BY(mu_);
//   };
//
// The `-Wthread-safety` gate is promoted to an error in the `clang-tsa`
// CI leg (see .github/workflows/ci.yml); tests/common/ carries a
// negative-compile test proving the analysis rejects seeded violations.

#ifndef VITRI_COMMON_ANNOTATED_LOCK_H_
#define VITRI_COMMON_ANNOTATED_LOCK_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Attribute macros. Kept in one place so every subsystem annotates with the
// same vocabulary; all of them compile away outside Clang.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define VITRI_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VITRI_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// Declares a type to be a capability (a lock).
#define VITRI_CAPABILITY(x) VITRI_THREAD_ANNOTATION(capability(x))

// Declares an RAII type whose lifetime equals a capability's hold.
#define VITRI_SCOPED_CAPABILITY VITRI_THREAD_ANNOTATION(scoped_lockable)

// Data members protected by a capability.
#define VITRI_GUARDED_BY(x) VITRI_THREAD_ANNOTATION(guarded_by(x))

// Pointer members whose *pointee* is protected by a capability (the
// pointer itself may be read freely, e.g. to compare for null).
#define VITRI_PT_GUARDED_BY(x) VITRI_THREAD_ANNOTATION(pt_guarded_by(x))

// Static lock-ordering declarations.
#define VITRI_ACQUIRED_BEFORE(...) \
  VITRI_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define VITRI_ACQUIRED_AFTER(...) \
  VITRI_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Functions callable only with the capability held (exclusive / shared).
#define VITRI_REQUIRES(...) \
  VITRI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VITRI_REQUIRES_SHARED(...) \
  VITRI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Functions that acquire / release a capability.
#define VITRI_ACQUIRE(...) \
  VITRI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VITRI_ACQUIRE_SHARED(...) \
  VITRI_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define VITRI_RELEASE(...) \
  VITRI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VITRI_RELEASE_SHARED(...) \
  VITRI_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define VITRI_RELEASE_GENERIC(...) \
  VITRI_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

// Try-lock functions: first argument is the value returned on success.
#define VITRI_TRY_ACQUIRE(...) \
  VITRI_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define VITRI_TRY_ACQUIRE_SHARED(...) \
  VITRI_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// Functions that must NOT be called with the capability held.
#define VITRI_EXCLUDES(...) VITRI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions returning a reference to a capability.
#define VITRI_RETURN_CAPABILITY(x) VITRI_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch. Budgeted: ≤3 uses repo-wide, each with a one-line
// justification comment (enforced by review; see DESIGN.md §14).
#define VITRI_NO_THREAD_SAFETY_ANALYSIS \
  VITRI_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vitri {

class CondVar;

// ---------------------------------------------------------------------------
// Mutex: std::mutex carrying the "mutex" capability.
// ---------------------------------------------------------------------------
class VITRI_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VITRI_ACQUIRE() { mu_.lock(); }
  void Unlock() VITRI_RELEASE() { mu_.unlock(); }
  bool TryLock() VITRI_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// SharedMutex: std::shared_mutex carrying the "shared_mutex" capability.
// ---------------------------------------------------------------------------
class VITRI_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() VITRI_ACQUIRE() { mu_.lock(); }
  void Unlock() VITRI_RELEASE() { mu_.unlock(); }
  bool TryLock() VITRI_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() VITRI_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() VITRI_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() VITRI_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

 private:
  std::shared_mutex mu_;
};

// ---------------------------------------------------------------------------
// MutexLock: scoped exclusive hold of a Mutex. Wraps std::unique_lock so
// CondVar can wait on it; from the analysis's point of view the mutex is
// held for the whole scope (CondVar::Wait reacquires before returning).
// ---------------------------------------------------------------------------
class VITRI_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) VITRI_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() VITRI_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// ---------------------------------------------------------------------------
// WriterLock / ReaderLock: scoped exclusive / shared holds of a SharedMutex.
// ---------------------------------------------------------------------------
class VITRI_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) VITRI_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() VITRI_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

class VITRI_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) VITRI_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() VITRI_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ---------------------------------------------------------------------------
// CondVar: std::condition_variable bound to MutexLock. Wait() atomically
// releases and reacquires the underlying mutex; since the capability is
// held again on return, the analysis treats the hold as continuous —
// which is exactly the guarantee callers rely on for guarded state, as
// long as predicates are re-checked in a loop (spurious wakeups).
// ---------------------------------------------------------------------------
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  /// Timed wait; returns false on timeout. Same re-check-in-a-loop
  /// contract as Wait() — a true return only means "woken", not
  /// "predicate holds".
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vitri

#endif  // VITRI_COMMON_ANNOTATED_LOCK_H_
