// IncrementalSolver: certain-answer solving for databases that change
// between solves, at a cost proportional to what changed.
//
// Proposition 10.6(2) makes certain(q) decompose over the q-connected
// components: D |= certain(q) iff some component does. The solver keeps
// the component partition alive across mutations (algo/
// dynamic_components.h) and turns the answer into a maintained
// aggregate:
//
//   certain(D)  = (number of certain live components) > 0
//   witness(D)  = union of the per-component falsifying repairs
//                 (every block lives in exactly one component).
//
// Hot path. Each live component holds its verdict (and, for
// Explain-capable backends, its falsifying-repair witness) next to it in
// the partition, and the solver keeps a count of live certain
// components. A flush of queued deltas reports, through the partition's
// dirty log, which components it created, changed or erased: retired
// verdicts leave the count, and the dirtied roots join the unsolved
// list. A solve re-solves only the unsolved components and reads the
// answer from the count, so a non-witness solve after a delta costs
// O(delta + dirty components), with no term in the total component
// count. A witness-requesting solve whose answer is "not certain" still
// walks every component to assemble the witness — O(blocks), inherent —
// re-solving only components whose stored verdict lacks one.
//
// History cache. A verdict retired by a content change moves into a
// bounded, sharded LRU keyed by the content fingerprint it was solved
// for (CacheOptions{max_entries, max_bytes}, split evenly over the
// shards). Only dirty components probe it, so reverted content,
// recovery imports (ImportVerdicts) and re-solves after compaction cost
// no backend run, while clean components never touch it. Cached
// witnesses are stored as fact tuples (content, not ids), so they
// survive any compaction. Evictions performed by a solve's flush are
// counted in its SolveReport::cache_evictions.
//
// Locking. Mutations are *deferred*: OnInsert/OnRemove only append a
// delta to a per-solver queue (O(1), so the caller's exclusive critical
// section stays short). The queue drains in mutation order under the
// components lock (rank kComponents, exclusive) at the next
// Solve/audit — or via FlushPending, which compaction MUST call before
// Database::Compact (queued deltas hold pre-remap ids and dead facts
// whose tuples a flush still reads). The same exclusive section retires
// verdicts, updates the count and rebuilds the unsolved list. Solve then
// holds the components lock shared while it fills the unsolved
// components: each fill takes the history shard lock of the component's
// fingerprint (rank kVerdictShard) and holds it across the backend run,
// so two solves racing on one component serialize (the loser finds the
// attached verdict) while components on other shards fill in parallel.
// A verdict is written, and the count raised, only under that shard
// lock; the count is lowered only under the exclusive components lock.
// Solve is const and safe to call from any number of threads at once.
// The caller's contract: enqueues require exclusive structure access
// (Service's per-database writer lock); Solve/audit/flush run under
// shared structure access and serialize among themselves on the
// components lock.

#ifndef CQA_ENGINE_INCREMENTAL_H_
#define CQA_ENGINE_INCREMENTAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "algo/dynamic_components.h"
#include "api/report.h"
#include "base/lock_rank.h"
#include "base/lru.h"
#include "data/prepared.h"
#include "engine/solver.h"
#include "store/snapshot.h"

namespace cqa {

/// One component's solved verdict (declared in algo/dynamic_components.h,
/// which stores it next to its component).
struct CachedVerdict {
  bool certain = false;
  bool has_witness = false;
  /// The component's falsifying repair as fact tuples (original element
  /// ids): one chosen fact per component block.
  std::vector<Fact> witness_facts;
};

class IncrementalSolver {
 public:
  /// Warm-session knobs: whether to ask the backend for a per-component
  /// warm-solver session (backends without one are unaffected) and the
  /// caps of its solver pool.
  struct SessionOptions {
    bool enabled = true;
    CacheOptions cache{/*max_entries=*/64, /*max_bytes=*/0};
    /// Per-solver CDCL knobs (clause-DB reduction cadence, restarts).
    CdclOptions solver;
  };

  /// Builds the component partition of the current database state.
  /// `solver` (whose query must have exactly two atoms) and `pdb` must
  /// outlive this object, and `pdb` must stay in sync with the database
  /// through OnInsert/OnRemove/ApplyRemap. `cache_options` caps the
  /// history cache (0 = unbounded); the caps are split over kNumShards
  /// shards, so the effective entry bound rounds up to a multiple of the
  /// shard count.
  IncrementalSolver(const CertainSolver& solver, const PreparedDatabase& pdb,
                    CacheOptions cache_options = {});
  IncrementalSolver(const CertainSolver& solver, const PreparedDatabase& pdb,
                    CacheOptions cache_options, SessionOptions session_options);

  /// Queues a fact insertion/removal delta (O(1)); the partition absorbs
  /// it at the next Solve/audit/FlushPending, in call order. Call after
  /// the database and PreparedDatabase have been updated, with exclusive
  /// structure access (no concurrent Solve/flush).
  void OnInsert(FactId f) { Enqueue(f, /*insert=*/true); }
  void OnRemove(FactId f) { Enqueue(f, /*insert=*/false); }

  /// Drains the queued deltas into the component partition now and
  /// settles the verdict bookkeeping. Called implicitly by Solve and
  /// AuditInto; compaction must call it explicitly *before*
  /// Database::Compact (queued deltas hold pre-remap ids). Safe under
  /// shared structure access.
  void FlushPending() const { (void)Settle(); }

  /// Absorbs a Database::Compact (call once, right after, with the remap
  /// it returned, after PreparedDatabase::ApplyRemap). Requires
  /// FlushPending to have run before the Compact. Verdicts stay attached
  /// to their components and the history cache is content-addressed, so
  /// a compaction costs no re-solve; the warm session's solvers rewrite
  /// their held fact ids. Requires exclusive access.
  void ApplyRemap(const FactIdRemap& remap);

  /// Answers certain(q) on the current state, re-solving only components
  /// dirtied since their verdict was attached and not found in the
  /// history cache. The report's incremental/components_*/
  /// cache_evictions fields record the reuse (components_resolved counts
  /// this call's backend runs; every other component is cached);
  /// parse/classify/prepare timings are the caller's. Thread-safe
  /// against concurrent Solve calls (but not against OnInsert/OnRemove/
  /// ApplyRemap — see above).
  SolveReport Solve(bool want_witness) const;

  /// The settled partition (queued deltas are flushed first). Debug/test
  /// accessor: the reference is only stable while the caller excludes
  /// mutators.
  const DynamicComponents& components() const {
    FlushPending();
    return components_;
  }

  /// Counters of the history cache (entries, bytes, hits, misses,
  /// evictions), summed over the shards. Only dirty components look it
  /// up, so hits + misses grow by at most the dirty count per solve.
  CacheCounters VerdictCacheCounters() const;

  /// True if the backend provided a warm per-component session.
  bool has_session() const { return session_ != nullptr; }

  /// Cumulative solver counters of the warm session (all-zero without
  /// one). Safe alongside concurrent solves.
  CdclStats SatSessionStats() const;

  /// Counters of the warm session's solver pool (all-zero without one).
  CacheCounters SessionCacheCounters() const;

  /// Exports every known verdict — the live components' and the history
  /// cache's — for snapshot persistence. Fingerprints hash element
  /// *names*, so an exported verdict is valid in any future process whose
  /// component reaches the same content. Safe alongside concurrent
  /// solves.
  std::vector<store::PersistedVerdict> ExportVerdicts() const;

  /// Seeds the history cache from persisted verdicts (recovery). Entries
  /// beyond the cache caps evict LRU as usual; the import is an
  /// optimization, so losing some to the cap is fine.
  void ImportVerdicts(const std::vector<store::PersistedVerdict>& verdicts);

  /// Deep-audits this solver's structures into `report` (data/audit.h):
  /// the component partition and partner index against a fresh
  /// re-derivation, every attached verdict against a from-scratch backend
  /// run of its component, the certain count and unsolved list against
  /// the attached verdicts, the warm session's retained state (for the
  /// sat backend: every live falsifier's solution clauses against a
  /// brute-force join), and every history shard's LRU invariants (taken
  /// one shard lock at a time). Requires the caller to exclude mutators,
  /// like Solve.
  void AuditInto(AuditReport& report) const;

  static constexpr std::size_t kNumShards = 16;

 private:
  // audit_test plants a wrong certain count and a stale verdict.
  friend class TestCorruptor;

  /// One history shard: entries whose fingerprint hashes here, plus the
  /// lock that serializes both cache access and the fills of components
  /// whose fingerprint hashes here. Default-constructed (mutexes pin it
  /// in place); the constructor re-seats each shard's cache with the
  /// per-shard slice of the caps. Verdicts are shared_ptr-held, so a hit
  /// is a pointer copy, not a deep copy of witness tuples.
  struct Shard {
    // Rank kVerdictShard: taken under the components lock, never nested
    // with another shard's lock or the solver-map lock.
    mutable RankedMutex<LockRank::kVerdictShard> mu;
    LruCache<ComponentFingerprint, std::shared_ptr<const CachedVerdict>,
             ComponentFingerprintHash>
        cache;
  };

  /// One queued OnInsert/OnRemove, applied at the next flush.
  struct PendingDelta {
    FactId id;
    bool insert;
  };

  void Enqueue(FactId f, bool insert);

  /// SettleLocked under an exclusive components lock, taken only when
  /// deltas are queued or the unsolved list is due for emptying.
  std::size_t Settle() const;

  /// Applies the queued deltas in order, then settles the dirty log:
  /// retired verdicts leave the certain count and enter the history
  /// cache, and the unsolved list is rebuilt. Returns the history
  /// evictions. Caller holds components_mu_ exclusive (or is the
  /// constructor).
  std::size_t SettleLocked() const;

  /// Returns the verdict of the component rooted at `root`, attaching
  /// one first when it has none or (for `want_witness`) lacks a needed
  /// witness: from the history cache if it holds a usable one, else by a
  /// backend run (counted in *resolved). Takes the component's shard
  /// lock; caller holds components_mu_ shared.
  std::shared_ptr<const CachedVerdict> Fill(
      FactId root, const DynamicComponents::Component& comp,
      bool want_witness, std::uint64_t* resolved) const;

  Shard& ShardFor(const ComponentFingerprint& fp) const;

  /// Rough resident size of a cached verdict, for the byte cap.
  static std::size_t VerdictBytes(const CachedVerdict& verdict);

  /// Runs the backend on one component: through the warm session when
  /// there is one, else on a materialized sub-database.
  CachedVerdict SolveComponent(const std::vector<FactId>& members,
                               bool want_witness) const;

  /// The backend on the component copied into its own database (the
  /// cold path, and the auditor's from-scratch reference).
  CachedVerdict SolveMaterialized(const std::vector<FactId>& members,
                                  bool want_witness) const;

  const CertainSolver* solver_;
  const PreparedDatabase* pdb_;

  /// Component-partition lock (rank kComponents, between the structure
  /// lock and the history shards): Solve holds it shared while it fills
  /// unsolved components; flushing the delta queue, ApplyRemap, and the
  /// audit take it exclusive. Enqueues don't touch it — the caller's
  /// exclusive structure lock already excludes every holder.
  mutable RankedSharedMutex<LockRank::kComponents> components_mu_;
  /// Deltas queued since the last flush, in mutation order. Written by
  /// Enqueue (exclusive structure access), drained by SettleLocked
  /// (components_mu_ exclusive, shared structure access) — the structure
  /// lock makes those two mutually exclusive. pending_count_ lets a
  /// solve skip the exclusive acquisition when the queue is empty.
  mutable std::vector<PendingDelta> pending_;
  mutable std::atomic<std::size_t> pending_count_{0};
  mutable DynamicComponents components_;
  /// Roots of live components that had no verdict at the last settle,
  /// ordered by min_member so cache-filling solves of identical content
  /// run backends in the same order. Rebuilt under components_mu_
  /// exclusive; fills only attach verdicts to the listed components.
  mutable std::vector<FactId> unsolved_;
  /// Set once some solve has filled every listed component, so the next
  /// solve takes the exclusive lock to empty the list; clear while fills
  /// may still be needed, so concurrent solves fill in parallel.
  mutable std::atomic<bool> unsolved_filled_{false};
  /// Live components whose attached verdict is certain.
  mutable std::atomic<std::size_t> certain_count_{0};
  mutable std::array<Shard, kNumShards> shards_;

  /// Warm per-component session, when the backend offers one. All access
  /// goes through session_mu_: rank kSolverInternal (0), the innermost
  /// rank, taken while a history-shard lock (rank 1) is held across a
  /// backend run. Serializing the session across shards trades a little
  /// cross-component parallelism for learned-clause reuse.
  mutable RankedMutex<LockRank::kSolverInternal> session_mu_;
  std::unique_ptr<ComponentSession> session_;
};

}  // namespace cqa

#endif  // CQA_ENGINE_INCREMENTAL_H_
