// The repo's only sanctioned lock types (tools/analyze `raw-mutex` enforces
// this): thin wrappers over std::mutex / std::condition_variable carrying
// the Thread Safety Analysis annotations from util/annotations.h. Fields
// protected by a cirank::Mutex are declared CIRANK_GUARDED_BY(mu), and the
// `tsa` preset turns any access outside the lock into a compile error —
// the locking comments in thread_pool.h / lru_cache.h are machine-checked,
// not advisory (DESIGN.md §12).
//
// The wrappers are zero-cost forwarding shims: off Clang the annotations
// vanish and MutexLock is exactly a lock_guard.
#ifndef CIRANK_UTIL_MUTEX_H_
#define CIRANK_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/annotations.h"

namespace cirank {

// An exclusive capability. Prefer MutexLock for scoped acquisition; the
// raw Lock()/Unlock() pair exists for hand-over-hand patterns like the
// thread_pool.cc worker loop that releases the lock around each task — the
// analysis checks those paths too.
class CIRANK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CIRANK_ACQUIRE() { mu_.lock(); }
  void Unlock() CIRANK_RELEASE() { mu_.unlock(); }
  bool TryLock() CIRANK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope holding a Mutex for its lifetime (the lock_guard analog).
class CIRANK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CIRANK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() CIRANK_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

// Condition variable bound to cirank::Mutex. Wait atomically releases the
// mutex (which the caller must hold — the analysis enforces it), sleeps,
// and reacquires before returning, so the caller's lock state is unchanged
// and guarded fields stay accessible across the call. There is no
// predicate overload on purpose: spelling the `while (!pred) Wait(mu);`
// loop at the call site keeps the guarded predicate reads inside the
// caller's analyzed scope instead of an unannotated lambda.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) CIRANK_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait,
    // then release ownership back to the caller's scope. The analysis does
    // not see through std::unique_lock; the REQUIRES contract above is the
    // whole story it needs (held on entry, held on return).
    std::unique_lock<std::mutex> lk(mu.mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cirank

#endif  // CIRANK_UTIL_MUTEX_H_
