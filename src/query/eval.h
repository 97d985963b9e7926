// Query evaluation: matching facts against atoms, enumerating solutions of
// two-atom queries, and general conjunctive-query satisfaction.
//
// Terminology follows Section 2 of the paper: a pair of facts (a, b) is a
// *solution* to q = A B in D, written D |= q(ab), if a single assignment mu
// maps A to a and B to b. q{ab} denotes q(ab) or q(ba).

#ifndef CQA_QUERY_EVAL_H_
#define CQA_QUERY_EVAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "api/status.h"
#include "data/database.h"
#include "data/prepared.h"
#include "data/repair.h"
#include "query/query.h"

namespace cqa {

/// Sentinel for unassigned variables in partial assignments.
inline constexpr ElementId kUnassigned = 0xffffffffu;

/// Resolves the relations of a query against the relations of a database by
/// name, checking that signatures agree. Queries and databases can be built
/// against independent Schema values; this binding is the bridge.
class RelationBinding {
 public:
  /// CHECK-aborts on a mismatch; internal callers reach this point only
  /// with pre-validated pairs. API-boundary callers use Create.
  RelationBinding(const ConjunctiveQuery& query, const Database& db);

  /// Status-returning variant: kSchemaMismatch (naming the offending
  /// relation) instead of aborting, so one bad database is a per-request
  /// error rather than a process death.
  [[nodiscard]] static StatusOr<RelationBinding> Create(const ConjunctiveQuery& query,
                                          const Database& db);

  /// Database relation id corresponding to query relation `query_rel`.
  RelationId Resolve(RelationId query_rel) const { return map_[query_rel]; }

 private:
  RelationBinding() = default;
  std::vector<RelationId> map_;
};

/// Ok iff every relation the query uses exists in db with the same arity
/// and key length (i.e. RelationBinding::Create would succeed).
[[nodiscard]] Status ValidateBinding(const ConjunctiveQuery& query, const Database& db);

/// Tries to extend the partial assignment `mu` (indexed by VarId, with
/// kUnassigned holes) so that `atom` maps onto `fact`. Returns false and
/// leaves `mu` in an unspecified state on failure; callers re-seed `mu`.
bool ExtendMatch(const QueryAtom& atom, FactRef fact,
                 std::vector<ElementId>* mu);

/// True if fact's tuple is consistent with the atom's repeated-variable
/// pattern (ignoring any outer assignment).
bool MatchesPattern(const QueryAtom& atom, FactRef fact);

/// Directed solution test D |= q(a b) for a two-atom query.
bool IsSolution(const ConjunctiveQuery& q, const RelationBinding& binding,
                const Database& db, FactId a, FactId b);

/// Undirected solution test D |= q{a b}.
bool IsSolutionEither(const ConjunctiveQuery& q,
                      const RelationBinding& binding, const Database& db,
                      FactId a, FactId b);

/// All solutions of a two-atom query in a database.
struct SolutionSet {
  /// Directed pairs (a, b) with D |= q(a b); includes a == b.
  std::vector<std::pair<FactId, FactId>> pairs;
  /// self[f] is true iff D |= q(f f).
  std::vector<bool> self;
};

/// Enumerates all solutions via a hash join on the shared variables, using
/// the prepared per-relation fact index (only the facts of the two atoms'
/// relations are scanned). Complexity: O(n + |output|) expected.
SolutionSet ComputeSolutions(const ConjunctiveQuery& q,
                             const PreparedDatabase& pdb);

/// Convenience overload preparing the database on the fly (one extra O(n)
/// indexing pass); batch callers should prepare once and reuse.
SolutionSet ComputeSolutions(const ConjunctiveQuery& q, const Database& db);

/// General conjunctive-query satisfaction over an explicit set of facts
/// (e.g. a repair). Backtracking join; exponential only in the number of
/// atoms, which is fixed.
bool SatisfiesSubset(const ConjunctiveQuery& q, const Database& db,
                     const std::vector<FactId>& facts);

/// D |= q over the full database.
bool Satisfies(const ConjunctiveQuery& q, const Database& db);

/// r |= q for a repair r of db.
bool SatisfiesRepair(const ConjunctiveQuery& q, const Database& db,
                     const Repair& repair);

}  // namespace cqa

#endif  // CQA_QUERY_EVAL_H_
