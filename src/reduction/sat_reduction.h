// The Section 9 hardness gadget: from 3-SAT (each variable occurring 2 or 3
// times, both polarities) to certain(q) for a 2way-determined query q with
// a *nice* fork-tripath Theta.
//
// For each occurrence of a variable l in a clause C, the database D[phi]
// contains a copy Theta_{l,C} of Theta with the niceness witnesses
// substituted:
//   x, y, z  -> elements annotated <C, l>   (making internal blocks of
//               different copies disjoint),
//   u        -> C                           (roots of the copies of the
//               literals of C become one block: the clause block),
//   v, w     -> leaf labels <Ci, Cj, l>     (chaining the copies of the
//               positive occurrence to those of the negative occurrences,
//               as in Figure 2).
// Finally every singleton block is padded with a fresh fact forming no
// solution. Lemma 9.2: phi is satisfiable iff D[phi] |/= certain(q).

#ifndef CQA_REDUCTION_SAT_REDUCTION_H_
#define CQA_REDUCTION_SAT_REDUCTION_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algo/dynamic_components.h"
#include "data/audit.h"
#include "data/database.h"
#include "data/prepared.h"
#include "query/eval.h"
#include "query/query.h"
#include "sat/cdcl.h"
#include "sat/cnf.h"
#include "tripath/search.h"

namespace cqa {

/// The assembled gadget database plus bookkeeping for tests and demos.
struct SatGadget {
  Database db;
  /// Root fact of the copy Theta_{l,C}, keyed by (clause index, variable).
  /// These are the facts of the clause blocks ("literal facts").
  std::map<std::pair<std::uint32_t, std::uint32_t>, FactId> literal_fact;
  std::size_t num_padding_facts = 0;

  SatGadget() : db(Schema()) {}
};

/// Builds D[phi]. Preconditions (CHECKed): phi.IsReductionReady(), every
/// clause has at least two literals, and `nice_fork` is a nice fork-tripath
/// of q (validation.nice).
SatGadget BuildSatGadget(const ConjunctiveQuery& q,
                         const FoundTripath& nice_fork,
                         const CnfFormula& phi);

/// The reverse direction of the Section 9 connection: encodes the existence
/// of a falsifying repair as propositional satisfiability. One variable per
/// fact; clauses:
///   - at-least-one per block (a repair picks a fact from every block);
///   - a unit ¬x_a for every self-solution fact (q(aa) facts can never be
///     in a falsifying repair);
///   - (¬x_a ∨ ¬x_b) for every cross-block solution pair {a, b}.
/// Satisfiable iff some repair falsifies q, so D |= certain(q) iff the
/// formula is unsatisfiable. At-most-one-per-block constraints are
/// unnecessary: restricting a satisfying assignment to one chosen fact per
/// block keeps it solution-free, and the chosen set is a falsifying repair.
CnfFormula EncodeFalsifierCnf(const SolutionSet& solutions,
                              const PreparedDatabase& pdb);

/// Incremental falsifier search over a persistent CdclSolver: the warm
/// counterpart of EncodeFalsifierCnf + SolveCdcl for repeated solves of a
/// mutating q-connected component, paying for what changed since this
/// instance last saw the component rather than for the component.
///
/// Encoding: one solver variable per fact (allocated on first sight,
/// never freed) plus one *activation* variable per encoded block version.
/// A block's at-least-one constraint is guarded by its activation:
///   (~act v x_f1 v ... v x_fm)
/// and enabled by assuming `act` at solve time. Self-solution facts and
/// deleted facts are pinned with permanent units `~x_f`; cross-block
/// solution pairs get permanent clauses (~x_a v ~x_b). Pair and unit
/// clauses are *globally* true statements about immutable fact tuples, so
/// they — and every clause the solver learns from them — stay valid
/// forever. Only the membership clauses are versioned: when a block's
/// fact list differs from its encoded version, the old version is retired
/// for good with the unit `~act_old` and the block is re-encoded under a
/// fresh activation variable.
///
/// Block::facts is ascending (data/database.h): a block is diffed in
/// place, and first met at its first fact, so blocks are visited in
/// ascending-min-member order (independent of union-find history).
///
/// Solution clauses. Only a *fresh* fact — one that gets its variable in
/// this solve — asks the settled partition's partner index
/// (DynamicComponents::Partners) for its partners; they lie in the same
/// component, so they hold variables by then. Invariant: every solution
/// pair between alive facts holding variables here is encoded. Tuples
/// are immutable and fact ids never come back to life, so when the later
/// of two alive facts got its variable, the earlier one was alive and in
/// the settled partition, and the later one's probe returned it.
/// Compaction renames ids but keeps variables. AuditInto re-checks the
/// invariant against a brute-force join.
///
/// Each solve diffs against the exact current membership and assumes
/// exactly the current blocks' activations, and the invariant holds for
/// any facts with variables, so correctness never depends on which
/// component this instance is paired with (anchor collision, merge or
/// split): reuse is purely a performance heuristic.
///
/// Not thread-safe; the engine serializes access per instance under the
/// incremental solver's lock (LockRank::kComponents).
class IncrementalFalsifier {
 public:
  explicit IncrementalFalsifier(CdclOptions options = CdclOptions());

  /// True iff the component `members` of `components`, the settled
  /// q-connected partition of pdb.db() (no queued deltas), is certain. When
  /// `witness` is non-null and the component is not certain, fills it
  /// with one chosen fact per component block (parent-database ids),
  /// jointly a falsifying repair of the component. Callable any number of
  /// times as the database mutates between calls; fact ids must be stable
  /// since the last ApplyRemap.
  bool SolveComponent(const PreparedDatabase& pdb,
                      const DynamicComponents& components,
                      const std::vector<FactId>& members,
                      std::vector<FactId>* witness);

  /// Mirrors a Database::Compact: rewrites every held FactId. Ids that
  /// vanished (tombstones reclaimed) have their variables pinned false.
  void ApplyRemap(const FactIdRemap& remap);

  /// Checks the encoding invariant into `report` (structure
  /// "sat-session"): every pair of `solutions` (the brute-force solutions
  /// of pdb.db(), self-solutions included) whose facts both hold a
  /// variable here has its clause, unless the two are blockmates.
  void AuditInto(const SolutionSet& solutions, const PreparedDatabase& pdb,
                 AuditReport& report) const;

  /// Cumulative solver counters (solves, warm_solves, learned_kept,
  /// clauses_retracted, ...).
  const CdclStats& stats() const { return solver_.stats(); }

  /// Rough resident size for cache byte-accounting.
  std::size_t MemoryEstimateBytes() const;

 private:
  // audit_test drops a pair clause record to plant an invariant breach.
  friend class TestCorruptor;

  static constexpr std::uint32_t kNoVar = 0xffffffffu;

  struct BlockState {
    RelationId relation = 0;
    std::vector<ElementId> key;
    std::vector<FactId> members;  ///< Ascending, as last encoded.
    std::uint32_t act_var = kNoVar;  ///< kNoVar until first encoded.
  };

  /// The state of `block`, created unencoded on first sight.
  BlockState& StateOf(const Block& block);

  /// Key of solution pair {va, vb} in pair_clauses_.
  static std::uint64_t PairKey(std::uint32_t va, std::uint32_t vb) {
    return (std::uint64_t{std::min(va, vb)} << 32) | std::max(va, vb);
  }

  CdclSolver solver_;
  std::unordered_map<FactId, std::uint32_t> fact_var_;
  /// Block states by HashRelationKey (collisions compare the key).
  std::unordered_multimap<std::size_t, BlockState> blocks_;
  /// Solution clauses already added, keyed by solver-variable pair
  /// (stable across compactions, unlike fact ids); (v, v) for a
  /// self-solution unit.
  std::unordered_set<std::uint64_t> pair_clauses_;
  /// Per-solve scratch, kept for its capacity.
  std::vector<BlockId> visit_;
  std::vector<FactId> fresh_;
  std::vector<Literal> assumptions_;
  Clause clause_;
};

}  // namespace cqa

#endif  // CQA_REDUCTION_SAT_REDUCTION_H_
