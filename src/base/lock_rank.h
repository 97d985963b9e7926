// Lock-rank checking: the service's lock hierarchy as an enforced order.
//
// The engine's locking discipline spans three layers — the service
// registry lock, each database entry's structure lock and solver-map
// lock, and each incremental solver's own lock — and the only thing that
// keeps them deadlock-free is the *order* they are acquired in. TSan
// finds data races but not lock-order inversions that never happen to
// deadlock during a test run; this header makes the order itself
// machine-checked.
//
// The hierarchy (higher rank = acquired first; a thread may only acquire
// a lock whose rank is strictly below every rank it already holds):
//
//   kServiceRegistry   Service::mutex_ (registry + compile cache). Held
//                      only for map lookups; never while taking any
//                      per-database lock.
//   kDbEntry           DbEntry::structure, the per-database
//                      reader/writer lock. Mutations/compactions hold it
//                      exclusive, solves shared.
//   kWal               DurableStore's mutex serializing WAL appends and
//                      snapshot writes. Mutations take it under the
//                      structure lock (append-then-apply); a snapshot
//                      exports the verdicts before taking it.
//   kComponents        Each IncrementalSolver's one mutex over its
//                      component partition, unsolved list, certain
//                      count, history cache and warm session. Mutations
//                      only *enqueue* deltas (under the exclusive
//                      structure lock, no kComponents acquisition); a
//                      solve holds it while it flushes the queue and
//                      runs the backend on dirty components.
//   kVerdictShard      DbEntry::inc_mu (the solver-map lock). Taken
//                      under the structure lock, and no solver lock is
//                      taken while it is held (Service::Stats snapshots
//                      the solver list under inc_mu, then reads solver
//                      counters after releasing it).
//   kSolverInternal    No user: the lowest rank, for a lock that would
//                      have to nest under a solver's lock during a
//                      backend run.
//
// RankedMutex/RankedSharedMutex wrap std::mutex/std::shared_mutex and, in
// checking builds, maintain a per-thread stack of held ranks; an
// out-of-order acquisition prints the acquisition stack of the violating
// lock AND of the already-held lock, then aborts. In release builds
// (CQA_LOCK_RANK off) the wrappers compile down to the plain standard
// types with zero per-acquisition overhead.
//
// The `Checked` template parameter exists so tests can exercise the
// checking machinery in every build configuration: library code uses the
// build-wide default (kLockRankCheckedByDefault), while lock_rank_test
// instantiates RankedMutex<R, true> explicitly.

#ifndef CQA_BASE_LOCK_RANK_H_
#define CQA_BASE_LOCK_RANK_H_

#include <mutex>
#include <shared_mutex>

namespace cqa {

/// The lock hierarchy, highest (acquired first) to lowest. Numeric value
/// grows with rank so "may acquire" is a plain integer comparison.
enum class LockRank : int {
  kSolverInternal = 0,  ///< Below everything; no user.
  kVerdictShard = 1,    ///< The solver-map lock (DbEntry::inc_mu).
  kComponents = 2,      ///< Each IncrementalSolver's lock: solves,
                        ///< flushes of queued mutation deltas, remaps,
                        ///< audits and counter reads take it.
  kWal = 3,             ///< DurableStore's WAL/snapshot lock. Taken under
                        ///< the structure lock (mutations append before
                        ///< applying).
  kDbEntry = 4,         ///< Per-database structure (reader/writer) lock.
  kServiceRegistry = 5, ///< Service registry / compile-cache lock.
};

/// Stable name of a rank, e.g. "kDbEntry".
const char* ToString(LockRank rank);

#if defined(CQA_LOCK_RANK) && CQA_LOCK_RANK
inline constexpr bool kLockRankCheckedByDefault = true;
#else
inline constexpr bool kLockRankCheckedByDefault = false;
#endif

namespace lock_rank_internal {

// Always compiled (not gated on CQA_LOCK_RANK) so a test can instantiate
// checked wrappers in any build configuration.

/// Records that the current thread is about to acquire `mutex` at `rank`,
/// capturing the acquisition stack. Aborts — printing this stack and the
/// stack that acquired the offending held lock — unless `rank` is
/// strictly below every rank the thread already holds.
void PushRank(LockRank rank, const void* mutex);

/// Records the release of `mutex` (matched by address, so non-LIFO
/// unlock orders are fine).
void PopRank(LockRank rank, const void* mutex);

/// Depth of the calling thread's held-rank stack (tests).
int HeldDepth();

}  // namespace lock_rank_internal

/// std::mutex with rank checking. Satisfies Lockable, so it works with
/// std::lock_guard / std::unique_lock (use CTAD: `std::lock_guard lock(mu)`).
template <LockRank Rank, bool Checked = kLockRankCheckedByDefault>
class RankedMutex {
 public:
  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    return true;
  }
  void unlock() {
    if (Checked) lock_rank_internal::PopRank(Rank, this);
    mu_.unlock();
  }

  static constexpr LockRank rank() { return Rank; }

 private:
  std::mutex mu_;
};

/// std::shared_mutex with rank checking. Shared and exclusive
/// acquisitions obey the same hierarchy (a reader out of order is just as
/// much a deadlock ingredient as a writer — it blocks writers above it).
template <LockRank Rank, bool Checked = kLockRankCheckedByDefault>
class RankedSharedMutex {
 public:
  RankedSharedMutex() = default;
  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock() {
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    return true;
  }
  void unlock() {
    if (Checked) lock_rank_internal::PopRank(Rank, this);
    mu_.unlock();
  }

  void lock_shared() {
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
    if (Checked) lock_rank_internal::PushRank(Rank, this);
    return true;
  }
  void unlock_shared() {
    if (Checked) lock_rank_internal::PopRank(Rank, this);
    mu_.unlock_shared();
  }

  static constexpr LockRank rank() { return Rank; }

 private:
  std::shared_mutex mu_;
};

}  // namespace cqa

#endif  // CQA_BASE_LOCK_RANK_H_
