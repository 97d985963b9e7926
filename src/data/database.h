// Databases: finite sets of facts, partitioned into key-equal blocks.
//
// A block (Section 2) is a maximal set of key-equal facts; a repair picks
// exactly one fact from every block. Database owns its element Interner and
// its Schema so that generated instances (reductions, workload generators)
// are self-contained value types.
//
// Storage layout: struct-of-arrays. Every fact's arguments live in one
// contiguous ElementId arena; a fact slot is an (offset, arity) pair plus
// a parallel relation column. fact(id) hands out a FactRef view into the
// arena, so key extraction, block partitioning, Cert_k fixpoints,
// solution-graph building, and component fingerprinting iterate over
// contiguous memory instead of chasing one heap vector per fact.
//
// Mutation model: FactIds are stable between compactions. AddFact appends
// (never reuses a slot); RemoveFact tombstones its slot instead of
// compacting, so ids held by indexes, components, and cached witnesses
// stay valid across deletions. The block partition is built lazily on
// first read (cheap bulk loads) and from then on maintained incrementally:
// an insert appends to its key's block (or opens one) via a persistent key
// index, a delete shrinks its block and swap-removes it when emptied.
//
// Under sustained churn tombstoned slots accumulate; Compact() reclaims
// them in one order-preserving pass — sliding both the slots and their
// argument spans down the arena, so offsets stay monotone in FactId — and
// publishes a FactIdRemap so every structure that holds FactIds
// (PreparedDatabase, DynamicComponents, IncrementalSolver) can delta-patch
// itself via its ApplyRemap instead of rebuilding. Content-addressed state
// (verdict fingerprints, cached witness tuples) survives a compaction
// untouched.

#ifndef CQA_DATA_DATABASE_H_
#define CQA_DATA_DATABASE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/interner.h"
#include "data/fact.h"
#include "data/schema.h"

namespace cqa {

/// A maximal set of key-equal facts.
struct Block {
  RelationId relation = 0;
  std::vector<ElementId> key;   ///< Key tuple shared by all facts.
  /// Members in insertion order, i.e. ascending (ids are append-only,
  /// RemoveFact erases in place, Compact's remap is monotone).
  std::vector<FactId> facts;
};

/// Non-owning view of a fact's key prefix: the same span type as a fact's
/// argument view (a key is a prefix of an argument tuple in the arena).
using KeyView = ArgSpan;

/// The one hash recipe for a (relation, key tuple) pair, shared by the
/// block partition and PreparedDatabase's key index so the two can never
/// drift apart. Identical to FactHash's recipe over a full-argument span.
inline std::size_t HashRelationKey(RelationId relation, KeyView key) {
  return HashCombine(FactHash::HashArgs(key.data, key.len), relation);
}

/// How Compact() renumbered fact slots: the contract between the Database
/// and every structure that holds FactIds. Alive facts keep their relative
/// order (the remap is monotonic on survivors), so min/ordering invariants
/// survive remapping; tombstoned slots map to kNoFact below.
struct FactIdRemap {
  /// new_id[old] is the surviving fact's new id, or Database::kNoFact for
  /// a slot that was tombstoned (and is now gone).
  std::vector<FactId> new_id;
  std::size_t old_slots = 0;  ///< Slot count before the compaction.
  std::size_t new_slots = 0;  ///< Slot count after (== alive facts).

  FactId Apply(FactId old_id) const { return new_id[old_id]; }
  /// True when the compaction reclaimed nothing (no dead slots).
  bool identity() const { return old_slots == new_slots; }
};

struct AuditReport;  // data/audit.h

/// A finite set of facts with set semantics (duplicate inserts are no-ops).
class Database {
 public:
  explicit Database(Schema schema) : schema_(std::move(schema)) {}

  /// Adds a fact given pre-interned element ids; returns its FactId.
  /// Re-adding an identical fact returns the existing id.
  FactId AddFact(RelationId relation, std::vector<ElementId> args);

  /// Adds a fact given element names (interned on the fly).
  FactId AddFactNamed(RelationId relation,
                      const std::vector<std::string>& names);

  /// Convenience: parse "a b c d" (whitespace-separated element names).
  FactId AddFactStr(RelationId relation, std::string_view spaced_names);

  /// What RemoveFact did to the block partition; consumed by
  /// PreparedDatabase::ApplyRemove to mirror the change in O(1) lookups.
  struct RemovedFact {
    BlockId block = 0;          ///< Block the fact was removed from.
    bool block_removed = false; ///< True if that block became empty.
    /// When block_removed: the id the (previously last) block that was
    /// swapped into `block`'s slot used to have; equal to `block` when the
    /// removed block already was the last one (no swap happened).
    BlockId moved_from = 0;
  };

  /// Tombstones an alive fact: its slot, id, and stored tuple remain (so
  /// held FactIds stay valid and the tuple stays printable), but the fact
  /// leaves the block partition, Contains/FindFact, and NumAliveFacts.
  /// Re-adding the same tuple later creates a fresh slot. If the block
  /// partition has been built it is maintained incrementally; an emptied
  /// block is swap-removed (the last block takes its id — see the returned
  /// RemovedFact, which is meaningful only when the partition was built).
  RemovedFact RemoveFact(FactId id);

  /// Number of fact slots ever allocated; the iteration bound for
  /// id-indexed arrays. Tombstoned slots count.
  std::size_t NumFacts() const { return slots_.size(); }

  /// Number of facts currently alive (NumFacts minus tombstones).
  std::size_t NumAliveFacts() const { return num_alive_; }

  /// Number of tombstoned slots awaiting compaction.
  std::size_t NumDeadSlots() const { return slots_.size() - num_alive_; }

  /// Fraction of slots that are tombstoned (0 for an empty database).
  double DeadSlotRatio() const {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(NumDeadSlots()) /
                     static_cast<double>(slots_.size());
  }

  /// Reclaims every tombstoned slot, renumbering the survivors while
  /// preserving their relative order — the argument arena is compacted in
  /// the same pass, so surviving spans slide down and offsets stay
  /// monotone in FactId — and returns the remap. Blocks keep their
  /// BlockIds (only their member ids are rewritten), so block-level
  /// indexes need no patching. Every external structure holding FactIds
  /// must be patched with the returned remap (ApplyRemap protocol) before
  /// its next use; Repair witnesses into this database are invalidated.
  /// O(slots + arena + blocks). A compaction with no dead slots is a
  /// no-op that returns an identity remap.
  FactIdRemap Compact();

  /// True if slot `id` holds a live fact (false after RemoveFact).
  bool alive(FactId id) const { return alive_[id]; }

  /// The fact in slot `id`, viewed in place in the argument arena. The
  /// view is invalidated by AddFact (arena may reallocate) and Compact.
  FactRef fact(FactId id) const {
    const FactSlot& s = slots_[id];
    return FactRef{relation_[id],
                   ArgSpan{arg_arena_.data() + s.offset, s.arity}};
  }

  /// Copies slot `id` out into an owned Fact that survives later mutation
  /// (witness materialization).
  Fact MaterializeFact(FactId id) const { return fact(id).ToFact(); }

  const Schema& schema() const { return schema_; }
  Interner& elements() { return elements_; }
  const Interner& elements() const { return elements_; }

  /// Key tuple of a fact (first key_len args), as an owned vector.
  /// Allocates; hot paths should prefer KeyViewOf.
  std::vector<ElementId> KeyOf(FactId id) const;

  /// Key prefix of a fact as a view into the argument arena; no
  /// allocation. Invalidated by AddFact (the arena may reallocate).
  KeyView KeyViewOf(FactId id) const {
    return KeyView{arg_arena_.data() + slots_[id].offset,
                   schema_.Relation(relation_[id]).key_len};
  }

  /// True if the two facts are key-equal (same relation, same key tuple).
  bool KeyEqual(FactId a, FactId b) const;

  /// The block partition. Built lazily on first read, then maintained
  /// incrementally across AddFact/RemoveFact (never rebuilt from scratch).
  const std::vector<Block>& blocks() const;

  /// Block containing fact `id`. Precondition: alive(id).
  BlockId BlockOf(FactId id) const;

  /// Looks up the block with the given relation and key tuple, or kNoBlock.
  /// Served by the same persistent key index that maintains the partition,
  /// so it stays correct across mutations.
  BlockId FindBlock(RelationId relation, KeyView key) const;

  static constexpr BlockId kNoBlock = 0xffffffffu;

  /// True if no block has two distinct facts.
  bool IsConsistent() const;

  /// Number of repairs as a double (may overflow 64-bit integers).
  double CountRepairs() const;

  /// Pretty-prints fact `id` as "R(a, b | c, d)" with the key before '|'.
  std::string FactToString(FactId id) const;

  /// Pretty-prints the whole database, one fact per line, grouped by block.
  std::string ToString() const;

  /// True if the database contains this exact fact (alive).
  bool Contains(const Fact& f) const;

  /// Looks up the id of an existing alive fact, or kNoFact.
  FactId FindFact(const Fact& f) const;

  static constexpr FactId kNoFact = 0xffffffffu;

  /// Arena introspection (tests, size accounting): total ElementIds
  /// stored, and a fact's span offset within the arena. Offsets are
  /// monotone in FactId right after construction or Compact().
  std::size_t ArgArenaSize() const { return arg_arena_.size(); }
  std::uint32_t ArgOffsetOf(FactId id) const { return slots_[id].offset; }

 private:
  // The deep auditor checks the private indexes (hash buckets, block_of_)
  // directly, and audit_test's corruptor plants targeted inconsistencies
  // for it to find. Neither is a production dependency.
  friend AuditReport AuditDatabase(const Database& db);
  friend class TestCorruptor;

  /// Slot metadata: where a fact's argument span lives in the arena.
  struct FactSlot {
    std::uint32_t offset = 0;  ///< First argument's index in arg_arena_.
    std::uint32_t arity = 0;   ///< Span length (== relation arity).
  };

  void EnsureBlocks() const;
  /// The one (relation, key) -> BlockId probe of the key index, shared by
  /// FindBlock and InsertIntoBlocks so lookup and partition maintenance
  /// can never disagree. Requires the partition to be built.
  BlockId ProbeBlock(RelationId relation, KeyView key) const;
  /// Appends `id` to its key's block (creating the block if needed),
  /// maintaining blocks_, block_of_, and block_index_. Requires the
  /// partition to be built.
  void InsertIntoBlocks(FactId id) const;
  /// Removes `b` from block_index_'s bucket for its key hash.
  void EraseBlockIndexEntry(BlockId b) const;
  /// Looks up an alive fact with this relation and argument span in the
  /// content index, or kNoFact.
  FactId ProbeFact(RelationId relation, ArgSpan args) const;

  Schema schema_;
  Interner elements_;

  // Columnar fact storage: one arena of all argument tuples plus
  // per-slot (offset, arity) and relation columns, indexed by FactId.
  std::vector<ElementId> arg_arena_;
  std::vector<FactSlot> slots_;
  std::vector<RelationId> relation_;
  std::vector<char> alive_;  // vector<char>: mutable per-slot, no bitproxy.
  std::size_t num_alive_ = 0;

  // Content index over alive facts: FactHash-of-span -> candidate ids
  // (collisions resolved by comparing relation + span against the arena).
  // Probing hashes the query tuple directly — no temporary Fact.
  std::unordered_map<std::size_t, std::vector<FactId>> fact_index_;

  // Block partition: lazily built, then incrementally maintained. The key
  // index buckets blocks by HashRelationKey (collisions resolved by
  // comparing stored keys) and is the partition's single source of truth
  // for key lookup, shared with PreparedDatabase::FindBlock.
  mutable bool blocks_dirty_ = true;
  mutable std::vector<Block> blocks_;
  mutable std::vector<BlockId> block_of_;
  mutable std::unordered_map<std::size_t, std::vector<BlockId>> block_index_;
};

/// Copies the facts `facts` of `db` (distinct ids of alive facts) into a
/// fresh database over the same schema, re-interning element names so
/// blocks and solutions carry over verbatim; fact i of the copy is
/// facts[i]. The one materializer of q-connected components and of
/// per-component backend runs.
Database CopyFacts(const Database& db, const std::vector<FactId>& facts);

}  // namespace cqa

#endif  // CQA_DATA_DATABASE_H_
