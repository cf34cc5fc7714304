#ifndef SUBSIM_UTIL_MUTEX_H_
#define SUBSIM_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "subsim/util/thread_annotations.h"

namespace subsim {

/// Annotated wrappers around the standard mutexes.
///
/// libstdc++'s `std::mutex` carries no capability attributes, so Clang's
/// Thread Safety Analysis cannot see a `std::lock_guard` acquire anything —
/// every `SUBSIM_GUARDED_BY` member would falsely warn. These wrappers
/// re-export the standard primitives with the capability annotations
/// attached; they are zero-cost (one inline call per operation) and are the
/// only lock types the library's shared-state classes use.
///
/// Lock ordering in the library (declared here so new code has one place to
/// check): `RrSketchCache::mu_` is acquired before `SampleStore::mu_`
/// (budget enforcement walks cached stores); nothing acquires them in the
/// other order. `MetricsRegistry::mu_` and `PhaseTracer::mu_` are leaf
/// locks: no code path acquires another lock while holding them.

class SUBSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SUBSIM_ACQUIRE() { mu_.lock(); }
  void Unlock() SUBSIM_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Reader/writer lock with the same wrapping rationale as `Mutex`.
class SUBSIM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() SUBSIM_ACQUIRE() { mu_.lock(); }
  void Unlock() SUBSIM_RELEASE() { mu_.unlock(); }
  void LockShared() SUBSIM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() SUBSIM_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock over `Mutex` (the annotated `std::lock_guard`).
class SUBSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SUBSIM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SUBSIM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive (writer) lock over `SharedMutex`.
class SUBSIM_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) SUBSIM_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() SUBSIM_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over `SharedMutex`.
class SUBSIM_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) SUBSIM_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() SUBSIM_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to `Mutex`.
///
/// `Wait` borrows the caller's held lock through an adopt/release
/// `std::unique_lock`, so the underlying wait is the plain futex-backed
/// `std::condition_variable` — no `condition_variable_any` overhead — and
/// the annotation contract stays exact: the caller holds `mu` before,
/// during (logically), and after the call.
///
/// Deliberately no predicate overload: evaluate the predicate in the
/// calling function (`while (!pred()) cv.Wait(mu);`) so the guarded reads
/// it makes are visible to the analysis in a context that provably holds
/// the lock — a lambda handed into `wait()` would be analyzed as a separate
/// function with no capability context and falsely warn.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) SUBSIM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's scoped lock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace subsim

#endif  // SUBSIM_UTIL_MUTEX_H_
