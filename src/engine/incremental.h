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
// bounded LRU keyed by the content fingerprint it was solved for
// (CacheOptions{max_entries, max_bytes}, exact caps). Only dirty
// components probe it, so reverted content, recovery imports
// (ImportVerdicts) and re-solves after compaction cost no backend run,
// while clean components never touch it. Cached witnesses are stored as
// fact tuples (content, not ids), so they survive any compaction.
// Evictions performed by a solve's flush are counted in its
// SolveReport::cache_evictions.
//
// Locking. One mutex per solver (rank kComponents) guards the partition,
// the unsolved list, the certain count, the history cache and the warm
// session. Mutations are *deferred*: OnInsert/OnRemove only append a
// delta to a per-solver queue (O(1) and lock-free here, so the caller's
// exclusive critical section stays short). The queue drains in mutation
// order under the solver lock at the next Solve/audit — or via
// FlushPending, which compaction MUST call before Database::Compact
// (queued deltas hold pre-remap ids and dead facts whose tuples a flush
// still reads). Solve settles the queue, fills the unsolved components
// and empties the list in one critical section, so concurrent solves
// serialize and a later one finds the verdicts an earlier one attached:
// every component is filled once. The caller's contract: enqueues
// require exclusive structure access (Service's per-database writer
// lock); Solve/audit/flush run under shared structure access and
// serialize among themselves on the solver lock.

#ifndef CQA_ENGINE_INCREMENTAL_H_
#define CQA_ENGINE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
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
  /// history cache (0 = unbounded).
  IncrementalSolver(const CertainSolver& solver, const PreparedDatabase& pdb,
                    CacheOptions cache_options = {});
  IncrementalSolver(const CertainSolver& solver, const PreparedDatabase& pdb,
                    CacheOptions cache_options, SessionOptions session_options);

  /// Queues a fact insertion/removal delta (O(1)); the partition absorbs
  /// it at the next Solve/audit/FlushPending, in call order. Call after
  /// the database and PreparedDatabase have been updated, with exclusive
  /// structure access (no concurrent Solve/flush).
  void OnInsert(FactId f) { pending_.push_back({f, /*insert=*/true}); }
  void OnRemove(FactId f) { pending_.push_back({f, /*insert=*/false}); }

  /// Drains the queued deltas into the component partition now and
  /// settles the verdict bookkeeping. Called implicitly by Solve and
  /// AuditInto; compaction must call it explicitly *before*
  /// Database::Compact (queued deltas hold pre-remap ids). Safe under
  /// shared structure access.
  void FlushPending() const;

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
  /// against concurrent Solve calls, which serialize on the solver lock
  /// (but not against OnInsert/OnRemove/ApplyRemap — see above).
  SolveReport Solve(bool want_witness) const;

  /// The settled partition (queued deltas are flushed first). Debug/test
  /// accessor: the reference is only stable while the caller excludes
  /// mutators.
  const DynamicComponents& components() const {
    FlushPending();
    return components_;
  }

  /// Counters of the history cache (entries, bytes, hits, misses,
  /// evictions). Only dirty components look it up, so hits + misses grow
  /// by at most the dirty count per solve.
  CacheCounters VerdictCacheCounters() const;

  /// True if the backend provided a warm per-component session.
  bool has_session() const { return session_ != nullptr; }

  /// Cumulative solver counters of the warm session (all-zero without
  /// one). Waits for an in-flight solve.
  CdclStats SatSessionStats() const;

  /// Counters of the warm session's solver pool (all-zero without one).
  CacheCounters SessionCacheCounters() const;

  /// Exports every known verdict — the live components' and the history
  /// cache's — for snapshot persistence. Fingerprints hash element
  /// *names*, so an exported verdict is valid in any future process whose
  /// component reaches the same content. Waits for an in-flight solve.
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
  /// brute-force join), and the history cache's LRU invariants.
  /// Requires the caller to exclude mutators, like Solve.
  void AuditInto(AuditReport& report) const;

 private:
  // audit_test plants a wrong certain count and a stale verdict.
  friend class TestCorruptor;

  /// One queued OnInsert/OnRemove, applied at the next flush.
  struct PendingDelta {
    FactId id;
    bool insert;
  };

  /// Applies the queued deltas in order, then settles the dirty log:
  /// retired verdicts leave the certain count and enter the history
  /// cache, and the unsolved list is rebuilt. Returns the history
  /// evictions. Caller holds mu_ (or is the constructor).
  std::size_t SettleLocked() const;

  /// Returns the verdict of the component rooted at `root`, attaching
  /// one first when it has none or (for `want_witness`) lacks a needed
  /// witness: from the history cache if it holds a usable one, else by a
  /// backend run (counted in *resolved). Caller holds mu_.
  std::shared_ptr<const CachedVerdict> Fill(
      FactId root, const DynamicComponents::Component& comp,
      bool want_witness, std::uint64_t* resolved) const;

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

  /// The solver lock (rank kComponents, under the structure lock):
  /// guards every member below except pending_. Enqueues don't take it —
  /// the caller's exclusive structure lock already excludes every holder.
  mutable RankedMutex<LockRank::kComponents> mu_;
  /// Deltas queued since the last flush, in mutation order. Written by
  /// Enqueue (exclusive structure access), drained by SettleLocked (mu_,
  /// shared structure access) — the structure lock makes those two
  /// mutually exclusive.
  mutable std::vector<PendingDelta> pending_;
  mutable DynamicComponents components_;
  /// Roots of live components that had no verdict at the last settle,
  /// ordered by min_member so cache-filling solves of identical content
  /// run backends in the same order. Solve fills and empties it.
  mutable std::vector<FactId> unsolved_;
  /// Live components whose attached verdict is certain.
  mutable std::size_t certain_count_ = 0;
  /// Retired verdicts by content fingerprint. Verdicts are
  /// shared_ptr-held, so a hit is a pointer copy, not a deep copy of
  /// witness tuples.
  mutable LruCache<ComponentFingerprint, std::shared_ptr<const CachedVerdict>,
                   ComponentFingerprintHash>
      history_;
  /// Warm per-component session, when the backend offers one.
  std::unique_ptr<ComponentSession> session_;
};

}  // namespace cqa

#endif  // CQA_ENGINE_INCREMENTAL_H_
