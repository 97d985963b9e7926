// Dynamically maintained q-connected components (Proposition 10.6).
//
// algo/components.h computes the q-connected partition from scratch; this
// class keeps it alive across single-fact mutations so a streaming
// workload never pays the full O(n + solutions) repartition:
//
//   - insert: the new fact is unioned with its blockmates and with its
//     solution partners — components only merge, so a persistent
//     union-find absorbs the change in near-constant time plus the probe;
//   - delete: components can split, which union-find cannot express, so
//     the deleted fact's component — and only that component — is
//     dissolved and its survivors regrouped through the partner index.
//
// Partner index. Solution partners are found without scanning a
// relation. Two facts f, g form a solution q(f g) iff f matches atom 0,
// g matches atom 1, and they agree on the join signature — the values at
// the variables the two atoms share, in ascending VarId order — the
// buckets query/eval.cc's JoinSolutions builds for a full join. The
// class keeps those buckets alive: per atom, a hash map from a
// signature's hash to the head of an intrusive chain (one next-link per
// fact) of the known facts matching that atom, kept current by
// OnInsert/OnRemove/ApplyRemap. A probe walks one chain per atom the
// fact matches and compares signatures exactly, so hash collisions cost
// a comparison, never a wrong partner. Partners() exposes the probe, over
// the facts this partition knows. The index costs 8 bytes per fact slot
// plus one map node per distinct signature.
//
// Dirty log. Every component a delta creates or changes is logged by
// root, and any verdict attached to a component whose content changes or
// vanishes is moved into the log together with the fingerprint it was
// solved for (TakeDirty drains both). engine/incremental.h stores each
// live component's verdict next to the component and uses the log to
// re-solve only what a flush dirtied and to keep its count of certain
// components exact. This layer never reads a verdict; it only attaches,
// moves, and retires them.
//
// Each component carries a content fingerprint: an order-independent
// combination of its member facts' tuple hashes. A component untouched
// by a delta keeps its fingerprint bit-for-bit, while any member change
// moves it, so equal fingerprints mean "same fact content, verdict
// reusable" (up to 192-bit hash collisions) — the key of the engine's
// history cache of retired verdicts.
//
// The underlying fact-level union-find is sound because a q-connected
// component is a union of blocks closed under solution pairs: key-equal
// facts (blockmates) and solution partners generate exactly that closure.

#ifndef CQA_ALGO_DYNAMIC_COMPONENTS_H_
#define CQA_ALGO_DYNAMIC_COMPONENTS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "data/prepared.h"
#include "query/eval.h"
#include "query/query.h"

namespace cqa {

/// Order-independent digest of a component's member fact tuples.
/// Commutative combines (sum and xor of independently mixed tuple hashes,
/// plus the member count) make membership changes cheap and splits
/// recomputable from member lists. Tuples are hashed by element *names*,
/// not ids, so equal content yields equal fingerprints regardless of
/// interning order (databases that were mutated into a state and
/// databases built directly in it agree).
struct ComponentFingerprint {
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t count = 0;

  void Add(const Database& db, FactId f);
  void Merge(const ComponentFingerprint& other);
  /// Inverse of Merge: `other` must digest a subset of this content.
  void Subtract(const ComponentFingerprint& other);

  bool operator==(const ComponentFingerprint& o) const {
    return sum == o.sum && xr == o.xr && count == o.count;
  }
  bool operator!=(const ComponentFingerprint& o) const {
    return !(*this == o);
  }
};

struct ComponentFingerprintHash {
  std::size_t operator()(const ComponentFingerprint& fp) const {
    return HashCombine(HashCombine(fp.sum, fp.xr), fp.count);
  }
};

/// A component's solved verdict. Defined by the engine
/// (engine/incremental.h); this layer only stores and retires it.
struct CachedVerdict;

/// The q-connected partition of a mutating database, for two-atom queries.
class DynamicComponents {
 public:
  struct Component {
    std::vector<FactId> members;  ///< Alive facts; unsorted.
    FactId min_member = 0;        ///< Smallest member id (order handle).
    ComponentFingerprint fingerprint;
    /// Verdict solved for exactly this content; null until the engine
    /// attaches one (SetVerdict). A content change retires it into the
    /// dirty log.
    std::shared_ptr<const CachedVerdict> verdict;
  };

  /// A verdict whose component changed or vanished, keyed by the content
  /// it was solved for.
  struct RetiredVerdict {
    ComponentFingerprint fingerprint;
    std::shared_ptr<const CachedVerdict> verdict;
  };

  /// What the deltas absorbed since the last TakeDirty changed.
  struct DirtyLog {
    /// Roots of components created or changed, in log order. A root may
    /// repeat, and may have been merged away or dissolved since it was
    /// logged; callers check components().
    std::vector<FactId> roots;
    std::vector<RetiredVerdict> retired;
  };

  /// Builds the partition of the current (alive) facts. `q` and `pdb`
  /// must outlive this object; q must have exactly two atoms and bind to
  /// pdb's schema. Every initial component is logged dirty.
  DynamicComponents(const ConjunctiveQuery& q, const PreparedDatabase& pdb);

  /// Absorbs a Database::AddFact of `f`. Call after the database and the
  /// PreparedDatabase have been updated. O(alpha) plus the partner probe.
  /// Deltas may be applied later than the database updates as long as
  /// they arrive in mutation order (engine/incremental.h queues them):
  /// facts the database already holds beyond this partition's horizon are
  /// not yet in the partner index and connect themselves when their own
  /// delta arrives.
  void OnInsert(FactId f);

  /// Absorbs a Database::RemoveFact of `f`. Call after the database has
  /// tombstoned `f` (its tuple must still be readable — compaction must
  /// not run before the delta is applied) and the PreparedDatabase has
  /// been updated. Dissolves and regroups f's component only.
  void OnRemove(FactId f);

  /// Absorbs a Database::Compact (call once, right after, with the remap
  /// it returned): renumbers the union-find, component members, partner
  /// index and logged roots in place. The remap is monotonic on
  /// survivors, so min_member stays the minimum; fingerprints and
  /// verdicts are content-addressed, so they are untouched. O(alive
  /// facts).
  void ApplyRemap(const FactIdRemap& remap);

  /// All alive known facts g with D |= q{f g}, including g == f when
  /// q(f f), and a g twice when both q(f g) and q(g f) hold. One chain
  /// walk per atom f matches; facts tombstoned by deltas not yet absorbed
  /// are skipped.
  std::vector<FactId> Partners(FactId f) const;

  /// Drains the dirty log.
  DirtyLog TakeDirty();

  /// Attaches the verdict of the component rooted at `root`. The caller
  /// serializes writers of one component and readers of its verdict.
  void SetVerdict(FactId root, std::shared_ptr<const CachedVerdict> verdict) {
    components_.at(root).verdict = std::move(verdict);
  }

  /// Current components, keyed by representative member. Key stability is
  /// not guaranteed across mutations; fingerprints are the stable handle.
  const std::unordered_map<FactId, Component>& components() const {
    return components_;
  }

  std::size_t NumComponents() const { return components_.size(); }

 private:
  // data/audit.h walks parent_ (without path compression) to verify the
  // union-find against the member lists and re-derives the partner
  // index; audit_test corrupts both.
  friend AuditReport AuditComponents(const ConjunctiveQuery& q,
                                     const PreparedDatabase& pdb,
                                     const DynamicComponents& components);
  friend class TestCorruptor;

  FactId Find(FactId f);
  /// Merges the components of a and b (no-op when already joined).
  void Union(FactId a, FactId b);
  /// Connects `facts` (singleton trees in parent_, closed under
  /// blockmates and solution partners) and registers one component per
  /// resulting tree; `fingerprint` digests all of `facts`.
  void Regroup(const std::vector<FactId>& facts,
               ComponentFingerprint fingerprint);
  /// Joins the trees of a and b in parent_ only, leaving components_
  /// alone (Regroup registers the components afterwards).
  void Link(FactId a, FactId b);
  /// A known blockmate of alive fact `f` other than f, or kNoFact.
  FactId KnownBlockmate(FactId f) const;
  /// Moves a component's verdict, if any, into the dirty log.
  void Retire(Component& comp);
  /// True if `fact` matches atom `atom` (relation and repeated-variable
  /// pattern).
  bool Matches(int atom, FactRef fact) const;
  /// Hash of the join signature of `fact` read as atom `atom`.
  std::uint64_t SignatureHash(int atom, FactRef fact) const;
  /// True if `a` read as atom `atom_a` and `b` read as atom `1 - atom_a`
  /// have equal join signatures.
  bool SameSignature(int atom_a, FactRef a, FactRef b) const;
  /// First alive known fact that matches atom `1 - side` with f's
  /// side-`side` signature, or kNoFact.
  FactId FirstPartner(int side, FactId f) const;
  void IndexAdd(FactId f);
  void IndexRemove(FactId f);

  const ConjunctiveQuery* q_;
  const PreparedDatabase* pdb_;
  /// Per atom: the database relation and the argument position of each
  /// shared variable (ascending VarId), i.e. where a signature is read.
  std::array<RelationId, 2> atom_relation_{};
  std::array<std::vector<std::uint32_t>, 2> signature_pos_;
  /// Per atom: signature hash -> first fact of its chain.
  std::array<std::unordered_map<std::uint64_t, FactId>, 2> chain_head_;
  /// Per atom, indexed by FactId: the next fact in the chain, or kNoFact.
  std::array<std::vector<FactId>, 2> chain_next_;
  std::vector<FactId> parent_;  ///< Indexed by FactId; grows on insert.
  std::unordered_map<FactId, Component> components_;  ///< By root.
  DirtyLog dirty_;
};

}  // namespace cqa

#endif  // CQA_ALGO_DYNAMIC_COMPONENTS_H_
