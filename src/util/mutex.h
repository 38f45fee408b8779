#ifndef TRINIT_UTIL_MUTEX_H_
#define TRINIT_UTIL_MUTEX_H_

#include <chrono>
#include <mutex>

#include "util/thread_annotations.h"

namespace trinit {

/// The repo's annotated exclusive lock: a `std::timed_mutex` wearing the
/// Clang Thread Safety Analysis capability attributes, abseil-style.
/// Every mutex member in the library must be one of these —
/// `tools/lint.py` bans naked `std::mutex` members precisely so the
/// analysis can see every lock.
///
/// The timed base adds deadline acquisition (`TryLockFor`) for
/// serving-path callers that would rather shed a request than queue
/// behind a stuck writer; plain `Lock`/`Unlock` compile down to the
/// same pthread calls as `std::mutex` on the platforms we build.
class TRINIT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TRINIT_ACQUIRE() { mu_.lock(); }
  void Unlock() TRINIT_RELEASE() { mu_.unlock(); }

  /// Non-blocking acquisition; true = acquired.
  bool TryLock() TRINIT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Blocks at most `timeout`; true = acquired. A non-positive timeout
  /// degenerates to `TryLock`.
  ///
  /// Deliberately `try_lock_until` on the system clock, not
  /// `try_lock_for`: libstdc++ implements the `_for` spelling with
  /// `pthread_mutex_clocklock`, which ThreadSanitizer (GCC 12's libtsan)
  /// does not intercept — a successful timed acquisition is invisible
  /// and the later unlock reports "unlock of an unlocked mutex". The
  /// `_until(system_clock)` path goes through the intercepted
  /// `pthread_mutex_timedlock`. The tradeoff (a wall-clock jump warps
  /// the deadline) is acceptable for the shed-don't-queue timeouts this
  /// exists for.
  bool TryLockFor(std::chrono::nanoseconds timeout) TRINIT_TRY_ACQUIRE(true) {
    if (timeout <= std::chrono::nanoseconds::zero()) return mu_.try_lock();
    return mu_.try_lock_until(std::chrono::system_clock::now() + timeout);
  }

 private:
  std::timed_mutex mu_;
};

/// RAII exclusive guard over `Mutex` (the annotated analogue of
/// `std::lock_guard`). Non-copyable, non-movable: the capability is
/// held for exactly this scope.
class TRINIT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TRINIT_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() TRINIT_RELEASE() { mu_.Unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace trinit

#endif  // TRINIT_UTIL_MUTEX_H_
