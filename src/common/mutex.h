#ifndef MOAFLAT_COMMON_MUTEX_H_
#define MOAFLAT_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

/// Annotated, rank-checked mutex primitives.
///
/// Every mutex in the engine is a `Mutex` constructed with a `LockRank` and
/// a name. Two enforcement layers share this one declaration:
///
///  * Statically, `Mutex` is a Clang thread-safety capability: fields marked
///    MOAFLAT_GUARDED_BY(mu_) cannot be touched without holding mu_, and the
///    CI clang job compiles with -Werror=thread-safety.
///  * Dynamically (Debug builds, every compiler), a per-thread lock-rank
///    registry enforces the global acquisition order: a thread may only
///    acquire a Mutex whose rank is *strictly greater* than every rank it
///    already holds. An out-of-rank or re-entrant acquisition aborts
///    immediately, printing the held chain and the attempted lock — a
///    deterministic deadlock detector that runs in every Debug ctest run,
///    not just on interleavings TSan happens to see.
///
/// The global order (see README "Concurrency correctness"):
///
///   wire < scheduler < pool < session < wal < accelerator < cancel
///
/// so e.g. the query service (kSession) may take the WAL lock or probe an
/// accelerator cache while holding its own, but no accelerator path may
/// call back into the TaskPool with its lock held.

namespace moaflat {

/// Global lock ranks, strictly increasing along every legal acquisition
/// chain. Leave gaps so new subsystems can slot in without renumbering.
enum class LockRank : int {
  kWireServer = 5,    // WireServer conn/thread registry
  kScheduler = 10,    // TaskPool queue + stride-scheduler state
  kPool = 20,         // TaskPool per-job completion handshake
  kSession = 30,      // QueryService sessions/queues/catalog
  kWal = 40,          // Wal append + group-commit horizons
  kAccelerator = 60,  // Bat side-aux (hash index / datavector slots)
  kCancel = 70,       // CancelState verdict (leaf: Cancel() fires anywhere)
};

class MOAFLAT_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MOAFLAT_ACQUIRE();
  void Unlock() MOAFLAT_RELEASE();
  /// Rank rules apply to TryLock too: a try-acquisition cannot deadlock,
  /// but allowing it out of rank would silently weaken the documented
  /// order, so it is held to the same standard.
  bool TryLock() MOAFLAT_TRY_ACQUIRE(true);

  int rank_value() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

 private:
  friend class CondVar;

  // Debug-only rank bookkeeping (defined in mutex.cc).
  void RankCheckAcquire() const;
  void RankRecordAcquire() const;
  void RankRecordRelease() const;

  std::mutex mu_;
  const int rank_;
  const char* const name_;
};

/// RAII lock with explicit Unlock()/Lock(), for protocols that drop the
/// lock mid-scope (group-commit fsync, running a query outside the
/// service lock). The destructor releases only if currently held.
class MOAFLAT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MOAFLAT_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
    held_ = true;
  }
  ~MutexLock() MOAFLAT_RELEASE() {
    if (held_) mu_.Unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporarily release the underlying mutex; the caller must not touch
  /// guarded state until Lock() re-acquires it.
  void Unlock() MOAFLAT_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() MOAFLAT_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_;
};

/// Condition variable bound to `Mutex` through `MutexLock`. Waits adopt the
/// already-held std::mutex for the duration of the park and hand it back
/// on wake, so rank bookkeeping is untouched: the waiter still "holds" the
/// mutex for ordering purposes, exactly like std::condition_variable.
///
/// Prefer explicit wait loops over predicate lambdas in annotated code —
///   while (queue_.empty()) cv_.Wait(lock);
/// — because the analysis can prove the guarded access in the enclosing
/// scope but cannot see through a lambda's operator().
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases lock's mutex and parks; re-acquired on return.
  void Wait(MutexLock& lock) {
    std::unique_lock<std::mutex> ul(lock.mu_.mu_, std::adopt_lock);
    cv_.wait(ul);
    ul.release();
  }

  /// Timed wait; returns false on timeout (lock re-acquired either way).
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock, std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> ul(lock.mu_.mu_, std::adopt_lock);
    const bool ok = cv_.wait_for(ul, timeout) == std::cv_status::no_timeout;
    ul.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace moaflat

#endif  // MOAFLAT_COMMON_MUTEX_H_
