// Compile-time lock discipline for the whole stack, built on Clang's
// capability analysis (-Wthread-safety). Every shared field in the
// runtime declares WHICH lock guards it (SHFLBW_GUARDED_BY), every
// private helper declares which locks it assumes held
// (SHFLBW_REQUIRES), and the annotated Mutex / MutexLock / UniqueLock /
// CondVar wrappers below let the analysis track acquisition through
// RAII scopes and condition-variable waits. Under Clang the CI gate
// compiles with -Werror=thread-safety, so a mutex misuse — writing a
// guarded field without the lock, calling a REQUIRES helper unlocked,
// double-acquiring — is a compile error, not a flaky TSan repro. Under
// GCC (which has no capability analysis) every macro expands to
// nothing and the wrappers behave exactly like std::mutex +
// std::lock_guard/std::unique_lock + std::condition_variable_any.
//
// tests/static/probe_*.cpp are negative-compilation probes: CMake
// asserts at configure time (Clang only) that each violation class
// FAILS to compile, so the macros cannot silently rot into no-ops.
//
// ---------------------------------------------------------------------
// GLOBAL MUTEX ACQUISITION ORDER
//
// A thread holding a lock may only acquire locks of strictly greater
// rank. The ranks (and the subsystems that own them):
//
//   kLockRankPool      (10)  WorkerPool::mu_          common/thread_pool.cpp
//   kLockRankServer    (20)  BatchServer::mu_         runtime/server.h
//   kLockRankCache     (30)  PackedWeightCache::mu_   runtime/weight_cache.h
//   kLockRankEvaluator (40)  QualityEvaluator::mu_    quality/quality_evaluator.h
//   kLockRankRegistry  (50)  obs::Registry::mu_       obs/metrics.h
//
// i.e. pool -> server -> cache -> evaluator -> registry. The only
// cross-subsystem nesting today is server -> registry
// (BatchServer::MetricsText refreshes gauges under mu_); everything
// else holds at most one of these locks at a time — kernels run inside
// ParallelFor chunks with NO lock held (the pool mutex is released
// before chunks drain), and the cache and the evaluator hold their
// locks only for table work (lookups, updates, the evaluator's serial
// score synthesis): a pack or a mask search
// (the Shfl-BW row-shuffle search enters ParallelFor) runs with no
// lock held, under a per-key in-flight slot that later callers of the
// same key wait on. The order is enforced two ways:
//
//   1. SHFLBW_ACQUIRED_BEFORE annotations where a class can name the
//      later lock (checked by Clang under -Wthread-safety-beta).
//   2. A runtime rank assertion, always compiled in: Mutex carries an
//      optional rank, and acquiring a rank <= any rank already held by
//      the calling thread throws shflbw::Error BEFORE blocking — a
//      deterministic report of the would-be deadlock instead of a
//      hang. Disable with -DSHFLBW_LOCK_ORDER_CHECKS=0 if a profile
//      ever shows the (one thread_local vector scan per ranked
//      acquisition) cost; it is noise next to the futex transition.
//
// Adding a lock: pick the rank matching where it may nest, document it
// here, and pass it to the Mutex constructor.
// ---------------------------------------------------------------------
#pragma once

#include <condition_variable>
#include <chrono>
#include <mutex>

#include "common/check.h"

// Attribute plumbing: Clang implements the capability analysis; other
// compilers see empty macros (and the wrappers degrade to plain
// std::mutex semantics).
#if defined(__clang__)
#define SHFLBW_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SHFLBW_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex").
#define SHFLBW_CAPABILITY(x) SHFLBW_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type whose lifetime acquires/releases a capability.
#define SHFLBW_SCOPED_CAPABILITY SHFLBW_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written while holding the named capability.
#define SHFLBW_GUARDED_BY(x) SHFLBW_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose POINTEE is protected by the named capability.
#define SHFLBW_PT_GUARDED_BY(x) SHFLBW_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities held on entry (and does
/// not release them).
#define SHFLBW_REQUIRES(...) \
  SHFLBW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define SHFLBW_ACQUIRE(...) \
  SHFLBW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities.
#define SHFLBW_RELEASE(...) \
  SHFLBW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; the first argument is the return
/// value that means success.
#define SHFLBW_TRY_ACQUIRE(...) \
  SHFLBW_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (anti-deadlock: the
/// function acquires them itself).
#define SHFLBW_EXCLUDES(...) SHFLBW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// This capability must be acquired before (after) the listed ones.
/// Checked by Clang under -Wthread-safety-beta; the runtime rank
/// assertion below enforces the same order unconditionally.
#define SHFLBW_ACQUIRED_BEFORE(...) \
  SHFLBW_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SHFLBW_ACQUIRED_AFTER(...) \
  SHFLBW_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define SHFLBW_RETURN_CAPABILITY(x) SHFLBW_THREAD_ANNOTATION(lock_returned(x))

/// Assert-at-runtime that the capability is held (teaches the analysis
/// a fact it cannot see, e.g. across an opaque callback boundary).
#define SHFLBW_ASSERT_CAPABILITY(x) \
  SHFLBW_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables analysis for one function. Every use must
/// carry a comment explaining why the discipline cannot be expressed.
#define SHFLBW_NO_THREAD_SAFETY_ANALYSIS \
  SHFLBW_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Runtime lock-order assertion switch (see header comment). On by
/// default in every build type so the tier-1 suite exercises it.
#ifndef SHFLBW_LOCK_ORDER_CHECKS
#define SHFLBW_LOCK_ORDER_CHECKS 1
#endif

namespace shflbw {

/// The documented global acquisition order (see header comment). Gaps
/// leave room for future locks without renumbering.
inline constexpr int kLockRankPool = 10;
inline constexpr int kLockRankServer = 20;
inline constexpr int kLockRankCache = 30;
inline constexpr int kLockRankEvaluator = 40;
inline constexpr int kLockRankRegistry = 50;
/// Rank of an unordered (leaf, never-nested) mutex: exempt from the
/// order assertion.
inline constexpr int kLockRankUnordered = -1;

namespace lock_order_detail {

/// Ranks of the ordered mutexes this thread currently holds, in
/// acquisition order. Thread-local, so maintenance is race-free.
/// Deliberately a trivially-destructible POD, NOT a std::vector: a
/// vector's TLS destructor runs before atexit-time destructors of
/// process statics (e.g. the worker pool), and a static's destructor
/// locking a ranked mutex would then write into freed storage. The
/// strict ordering bounds the depth at one lock per distinct rank, so
/// a small fixed array loses nothing.
struct HeldRankStack {
  static constexpr int kCapacity = 16;
  int ranks[kCapacity];
  int size = 0;
};

inline HeldRankStack& HeldRanks() {
  thread_local HeldRankStack held;
  return held;
}

/// Throws before a would-be order violation blocks: acquiring rank r
/// is legal only while every held rank is strictly smaller (equal
/// ranks are rejected too — that covers same-mutex recursion, which is
/// UB on std::mutex, and sibling locks that were never meant to nest).
inline void CheckAcquire(int rank) {
  if (rank < 0) return;
  const HeldRankStack& held = HeldRanks();
  for (int i = 0; i < held.size; ++i) {
    SHFLBW_CHECK_MSG(held.ranks[i] < rank,
                     "lock-order violation: acquiring mutex rank "
                         << rank << " while holding rank " << held.ranks[i]
                         << "; the global order is pool(10) -> server(20) -> "
                            "cache(30) -> evaluator(40) -> registry(50) "
                            "(common/thread_annotations.h)");
  }
}

inline void NoteAcquired(int rank) {
  if (rank < 0) return;
  HeldRankStack& held = HeldRanks();
  SHFLBW_CHECK_MSG(held.size < HeldRankStack::kCapacity,
                   "lock-order tracker overflow: " << held.size
                                                   << " ranked locks held");
  held.ranks[held.size++] = rank;
}

inline void NoteReleased(int rank) {
  if (rank < 0) return;
  HeldRankStack& held = HeldRanks();
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.size; ++j) held.ranks[j] = held.ranks[j + 1];
      --held.size;
      return;
    }
  }
}

}  // namespace lock_order_detail

/// std::mutex with a capability annotation (so fields can be
/// SHFLBW_GUARDED_BY it) and an optional lock-order rank. Satisfies
/// Lockable, so std::unique_lock<Mutex> and condition_variable_any
/// work — but prefer MutexLock / UniqueLock below, which the analysis
/// tracks.
class SHFLBW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A ranked mutex participates in the global acquisition-order
  /// assertion (see kLockRank*).
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SHFLBW_ACQUIRE() {
#if SHFLBW_LOCK_ORDER_CHECKS
    lock_order_detail::CheckAcquire(rank_);
#endif
    mu_.lock();
#if SHFLBW_LOCK_ORDER_CHECKS
    lock_order_detail::NoteAcquired(rank_);
#endif
  }

  void unlock() SHFLBW_RELEASE() {
#if SHFLBW_LOCK_ORDER_CHECKS
    lock_order_detail::NoteReleased(rank_);
#endif
    mu_.unlock();
  }

  bool try_lock() SHFLBW_TRY_ACQUIRE(true) {
#if SHFLBW_LOCK_ORDER_CHECKS
    lock_order_detail::CheckAcquire(rank_);
#endif
    if (!mu_.try_lock()) return false;
#if SHFLBW_LOCK_ORDER_CHECKS
    lock_order_detail::NoteAcquired(rank_);
#endif
    return true;
  }

  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  int rank_ = kLockRankUnordered;
};

/// RAII lock held for the full scope (std::lock_guard shape). The
/// analysis sees the capability held from construction to destruction.
class SHFLBW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SHFLBW_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SHFLBW_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII lock that can be released and reacquired mid-scope
/// (std::unique_lock shape, as the scheduler loops need). The analysis
/// tracks the Unlock()/Lock() state transitions; the destructor
/// releases only if currently held.
class SHFLBW_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) SHFLBW_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~UniqueLock() SHFLBW_RELEASE() {
    if (held_) mu_.unlock();
  }

  void Unlock() SHFLBW_RELEASE() {
    SHFLBW_CHECK_MSG(held_, "UniqueLock: unlock of a lock not held");
    held_ = false;
    mu_.unlock();
  }

  void Lock() SHFLBW_ACQUIRE() {
    SHFLBW_CHECK_MSG(!held_, "UniqueLock: recursive lock");
    mu_.lock();
    held_ = true;
  }

  bool held() const { return held_; }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable that waits on an annotated Mutex directly (it is
/// Lockable), so wait sites keep their REQUIRES-visible lock. Callers
/// hold `mu` via a surrounding MutexLock/UniqueLock; Wait atomically
/// releases and reacquires it internally, which the analysis —
/// correctly — models as "held before, held after". Predicates access
/// guarded state, so annotate them at the lambda:
///
///   cv.Wait(mu_, [&]() SHFLBW_REQUIRES(mu_) { return stop_; });
class CondVar {
 public:
  void Wait(Mutex& mu) SHFLBW_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) SHFLBW_REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  /// wait_for with predicate; true iff the predicate held on return.
  template <typename Predicate>
  bool WaitFor(Mutex& mu, double seconds, Predicate pred) SHFLBW_REQUIRES(mu) {
    return cv_.wait_for(mu, std::chrono::duration<double>(seconds),
                        std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace shflbw
