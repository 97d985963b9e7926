// Deep cross-structure invariant auditing.
//
// The columnar fact store keeps its structures consistent by hand-rolled
// delta protocols (FactIdRemap / ApplyInsert / ApplyRemove): the argument
// arena + slot columns, the content index, the block partition + key
// index, the PreparedDatabase per-relation indexes, the
// DynamicComponents union-find partition and partner index, and the
// engine's per-component verdicts with their certain count. Each
// protocol is O(1)-ish and therefore easy to get subtly wrong in ways no
// single query notices — a stale key-index entry only misroutes the
// *next* insert with that key; a split component only changes answers
// when the two halves disagree.
//
// The auditors here re-derive every one of those structures from first
// principles and report each disagreement as a structured violation:
//
//   AuditDatabase    arena offsets monotone + dense, slot columns
//                    parallel, alive counts vs tombstones, content index
//                    <-> arena agreement (both directions), block
//                    partition <-> key index <-> per-fact block mapping,
//                    every block's fact list strictly ascending.
//   AuditPrepared    per-relation fact/block indexes and the per-fact
//                    position index vs a fresh scan of the database.
//   AuditComponents  union-find structure, member lists, fingerprints,
//                    and min_member vs a freshly recomputed q-connected
//                    partition (algo/components.h); the partner index vs
//                    a fresh signature bucketing of the alive facts.
//
// IncrementalSolver::AuditInto (engine/incremental.h) adds the engine
// layer: every attached verdict vs a from-scratch backend run of its
// component, the certain count vs the attached verdicts, the history
// cache's LRU invariants, and the warm session's retained state (each
// live SAT falsifier's solution clauses vs a brute-force join).
//
// The functions are friends of the structures they audit, so they check
// the real internals (the position index, the union-find parents, the
// hash buckets) and not just the public views. They take no locks: the
// caller must hold whatever exclusion normally guards the structures
// (cqa::Service::AuditDatabase runs them under the per-database structure
// lock). Cost is O(n log n) plus one fresh component partition (and,
// through AuditInto, one backend run per solved component) — debug and
// test tooling, not a production path.
//
// Wired in: the metamorphic/incremental/compaction/soak suites audit
// after mutation batches, the fuzz/ mutation harness audits after every
// step, and Service::AuditDatabase exposes the same checks per registered
// database with cumulative counters in Service::Stats().

#ifndef CQA_DATA_AUDIT_H_
#define CQA_DATA_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/prepared.h"

namespace cqa {

class ConjunctiveQuery;
class DynamicComponents;

/// One invariant that does not hold: which structure broke and how.
struct AuditViolation {
  std::string structure;  ///< "arena", "slots", "content-index", "blocks",
                          ///< "key-index", "prepared", "components",
                          ///< "partner-index", "verdicts", "lru",
                          ///< "sat-session".
  std::string message;    ///< Human-readable pinpoint (ids, offsets, keys).
};

/// Outcome of one or more audit passes. Violations beyond kMaxRecorded
/// are counted but not stored (a corrupted index tends to fail thousands
/// of ways at once).
struct AuditReport {
  static constexpr std::size_t kMaxRecorded = 64;

  std::vector<AuditViolation> violations;
  /// Total violations found, including ones dropped past kMaxRecorded.
  std::uint64_t total_violations = 0;
  /// Individual invariant evaluations performed (a zero-violation report
  /// with zero checks means "audited nothing", not "clean").
  std::uint64_t checks = 0;

  bool ok() const { return total_violations == 0; }

  /// Records a violation (stored only while under kMaxRecorded).
  void Add(std::string structure, std::string message);

  /// Folds `other` into this report.
  void Merge(const AuditReport& other);

  /// True if any recorded violation names this structure.
  bool Names(std::string_view structure) const;

  /// Multi-line rendering: "clean (N checks)" or one line per violation.
  std::string ToString() const;
};

/// Audits the Database's own structures: arena layout, slot columns,
/// alive accounting, content index, block partition, and key index.
AuditReport AuditDatabase(const Database& db);

/// Audits the PreparedDatabase's per-relation fact/block indexes and
/// position index against a fresh scan of its database.
AuditReport AuditPrepared(const PreparedDatabase& pdb);

/// Audits a DynamicComponents partition: internal consistency (union-find
/// roots, member lists, fingerprints, min_member), the partner index
/// against a fresh bucketing of the alive facts, and equality with the
/// freshly recomputed q-connected partition of the current database.
AuditReport AuditComponents(const ConjunctiveQuery& q,
                            const PreparedDatabase& pdb,
                            const DynamicComponents& components);

}  // namespace cqa

#endif  // CQA_DATA_AUDIT_H_
