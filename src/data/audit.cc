#include "data/audit.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "algo/components.h"
#include "algo/dynamic_components.h"
#include "base/hash.h"
#include "query/eval.h"
#include "query/query.h"

namespace cqa {

void AuditReport::Add(std::string structure, std::string message) {
  ++total_violations;
  if (violations.size() < kMaxRecorded) {
    violations.push_back({std::move(structure), std::move(message)});
  }
}

void AuditReport::Merge(const AuditReport& other) {
  total_violations += other.total_violations;
  checks += other.checks;
  for (const AuditViolation& v : other.violations) {
    if (violations.size() >= kMaxRecorded) break;
    violations.push_back(v);
  }
}

bool AuditReport::Names(std::string_view structure) const {
  for (const AuditViolation& v : violations) {
    if (v.structure == structure) return true;
  }
  return false;
}

std::string AuditReport::ToString() const {
  if (ok()) return "audit clean (" + std::to_string(checks) + " checks)";
  std::string out = "audit: " + std::to_string(total_violations) +
                    " violation(s) in " + std::to_string(checks) +
                    " checks\n";
  for (const AuditViolation& v : violations) {
    out += "  [" + v.structure + "] " + v.message + "\n";
  }
  if (total_violations > violations.size()) {
    out += "  ... " +
           std::to_string(total_violations - violations.size()) +
           " more not recorded\n";
  }
  return out;
}

namespace {

/// Counts one invariant evaluation and records it if it failed.
#define CQA_AUDIT(report, cond, structure, msg) \
  do {                                          \
    ++(report)->checks;                         \
    if (!(cond)) (report)->Add(structure, msg); \
  } while (0)

std::string IdStr(std::uint64_t v) { return std::to_string(v); }

}  // namespace

AuditReport AuditDatabase(const Database& db) {
  AuditReport report;
  const std::size_t n = db.slots_.size();

  // -- Slot columns are parallel arrays --------------------------------
  CQA_AUDIT(&report, db.relation_.size() == n, "slots",
            "relation column has " + IdStr(db.relation_.size()) +
                " entries for " + IdStr(n) + " slots");
  CQA_AUDIT(&report, db.alive_.size() == n, "slots",
            "alive column has " + IdStr(db.alive_.size()) + " entries for " +
                IdStr(n) + " slots");
  if (db.relation_.size() != n || db.alive_.size() != n) return report;

  // -- Arena: offsets monotone and dense, arity matches the schema ------
  std::uint32_t expected_offset = 0;
  for (FactId id = 0; id < n; ++id) {
    const auto& slot = db.slots_[id];
    CQA_AUDIT(&report, slot.offset == expected_offset, "arena",
              "slot " + IdStr(id) + " offset " + IdStr(slot.offset) +
                  ", dense layout expects " + IdStr(expected_offset));
    if (db.relation_[id] < db.schema_.NumRelations()) {
      std::uint32_t arity = db.schema_.Relation(db.relation_[id]).arity;
      CQA_AUDIT(&report, slot.arity == arity, "arena",
                "slot " + IdStr(id) + " arity " + IdStr(slot.arity) +
                    " vs schema arity " + IdStr(arity));
    } else {
      report.Add("slots", "slot " + IdStr(id) + " names relation " +
                              IdStr(db.relation_[id]) + " outside the schema");
    }
    // Walk the stored offset (not the expected one) so a single corrupt
    // slot yields one arena violation, not a cascade.
    expected_offset = slot.offset + slot.arity;
  }
  CQA_AUDIT(&report, expected_offset == db.arg_arena_.size(), "arena",
            "last span ends at " + IdStr(expected_offset) + " but arena has " +
                IdStr(db.arg_arena_.size()) + " elements");
  for (ElementId el : db.arg_arena_) {
    if (el >= db.elements_.size()) {
      report.Add("arena", "arena element id " + IdStr(el) +
                              " outside the interner (size " +
                              IdStr(db.elements_.size()) + ")");
      break;  // One dangling id is enough evidence.
    }
  }
  ++report.checks;

  // -- Alive accounting -------------------------------------------------
  std::size_t alive = 0;
  for (FactId id = 0; id < n; ++id) alive += db.alive_[id] ? 1 : 0;
  CQA_AUDIT(&report, alive == db.num_alive_, "slots",
            "alive column counts " + IdStr(alive) + " but num_alive_ is " +
                IdStr(db.num_alive_));
  CQA_AUDIT(&report, db.NumDeadSlots() == n - alive, "slots",
            "NumDeadSlots " + IdStr(db.NumDeadSlots()) + " vs counted " +
                IdStr(n - alive));

  // -- Content index <-> arena, both directions -------------------------
  // Every alive fact must be found under its own content hash (this also
  // proves set semantics: a duplicate pair cannot both probe to
  // themselves), and every id any bucket holds must be an alive fact
  // whose content hashes to that bucket.
  for (FactId id = 0; id < n; ++id) {
    if (!db.alive_[id]) continue;
    FactId probed = db.ProbeFact(db.relation_[id], db.fact(id).args);
    CQA_AUDIT(&report, probed == id, "content-index",
              "alive fact " + IdStr(id) + " probes to " +
                  (probed == Database::kNoFact ? std::string("nothing")
                                               : IdStr(probed)));
  }
  for (const auto& [hash, bucket] : db.fact_index_) {
    CQA_AUDIT(&report, !bucket.empty(), "content-index",
              "empty bucket for hash " + IdStr(hash));
    for (FactId id : bucket) {
      if (id >= n || !db.alive_[id]) {
        report.Add("content-index",
                   "bucket " + IdStr(hash) + " holds " +
                       (id >= n ? "out-of-range" : "tombstoned") + " fact " +
                       IdStr(id));
        ++report.checks;
        continue;
      }
      CQA_AUDIT(&report, FactHash{}(db.fact(id)) == hash, "content-index",
                "fact " + IdStr(id) + " filed under hash " + IdStr(hash) +
                    " but hashes to " + IdStr(FactHash{}(db.fact(id))));
    }
  }

  // -- Block partition <-> key index <-> per-fact mapping ---------------
  const std::vector<Block>& blocks = db.blocks();  // Forces the partition.
  std::vector<std::uint32_t> seen(n, 0);
  for (BlockId b = 0; b < blocks.size(); ++b) {
    const Block& block = blocks[b];
    CQA_AUDIT(&report, !block.facts.empty(), "blocks",
              "block " + IdStr(b) + " is empty");
    // In-place block diffs (reduction/sat_reduction.h) rely on it.
    CQA_AUDIT(&report,
              std::adjacent_find(block.facts.begin(), block.facts.end(),
                                 std::greater_equal<>()) == block.facts.end(),
              "blocks",
              "block " + IdStr(b) + " fact list is not strictly ascending");
    for (FactId f : block.facts) {
      if (f >= n) {
        report.Add("blocks", "block " + IdStr(b) + " holds out-of-range fact " +
                                 IdStr(f));
        ++report.checks;
        continue;
      }
      ++seen[f];
      CQA_AUDIT(&report, db.alive_[f] != 0, "blocks",
                "block " + IdStr(b) + " holds tombstoned fact " + IdStr(f));
      CQA_AUDIT(&report, db.relation_[f] == block.relation, "blocks",
                "block " + IdStr(b) + " (relation " + IdStr(block.relation) +
                    ") holds fact " + IdStr(f) + " of relation " +
                    IdStr(db.relation_[f]));
      if (db.alive_[f]) {
        KeyView key = db.KeyViewOf(f);
        KeyView block_key{block.key.data(),
                          static_cast<std::uint32_t>(block.key.size())};
        CQA_AUDIT(&report, key == block_key, "blocks",
                  "fact " + IdStr(f) + " key differs from its block " +
                      IdStr(b) + " key");
        CQA_AUDIT(&report, db.block_of_[f] == b, "blocks",
                  "block_of_[" + IdStr(f) + "] is " + IdStr(db.block_of_[f]) +
                      ", partition places it in " + IdStr(b));
      }
    }
    // Key-index agreement: probing the block's own key must route here.
    KeyView block_key{block.key.data(),
                      static_cast<std::uint32_t>(block.key.size())};
    BlockId probed = db.ProbeBlock(block.relation, block_key);
    CQA_AUDIT(&report, probed == b, "key-index",
              "block " + IdStr(b) + " key probes to " +
                  (probed == Database::kNoBlock ? std::string("nothing")
                                                : IdStr(probed)));
  }
  for (FactId f = 0; f < n; ++f) {
    std::uint32_t want = db.alive_[f] ? 1 : 0;
    CQA_AUDIT(&report, seen[f] == want, "blocks",
              "fact " + IdStr(f) + " appears in " + IdStr(seen[f]) +
                  " blocks, expected " + IdStr(want));
  }
  // Reverse direction: every key-index entry points at a real block that
  // hashes to its bucket (a stale entry misroutes the next same-key
  // insert into a duplicate block).
  for (const auto& [hash, bucket] : db.block_index_) {
    CQA_AUDIT(&report, !bucket.empty(), "key-index",
              "empty bucket for hash " + IdStr(hash));
    std::unordered_set<BlockId> in_bucket;
    for (BlockId b : bucket) {
      if (b >= blocks.size()) {
        report.Add("key-index", "bucket " + IdStr(hash) +
                                    " holds out-of-range block " + IdStr(b));
        ++report.checks;
        continue;
      }
      CQA_AUDIT(&report, in_bucket.insert(b).second, "key-index",
                "block " + IdStr(b) + " filed twice under hash " +
                    IdStr(hash));
      KeyView key{blocks[b].key.data(),
                  static_cast<std::uint32_t>(blocks[b].key.size())};
      CQA_AUDIT(&report, HashRelationKey(blocks[b].relation, key) == hash,
                "key-index",
                "block " + IdStr(b) + " filed under hash " + IdStr(hash) +
                    " but its key hashes elsewhere");
    }
  }

  return report;
}

AuditReport AuditPrepared(const PreparedDatabase& pdb) {
  AuditReport report;
  const Database& db = pdb.db();
  const std::size_t num_relations = db.schema().NumRelations();

  CQA_AUDIT(&report, pdb.facts_by_relation_.size() == num_relations,
            "prepared",
            "facts_by_relation has " + IdStr(pdb.facts_by_relation_.size()) +
                " entries for " + IdStr(num_relations) + " relations");
  CQA_AUDIT(&report, pdb.blocks_by_relation_.size() == num_relations,
            "prepared",
            "blocks_by_relation has " + IdStr(pdb.blocks_by_relation_.size()) +
                " entries for " + IdStr(num_relations) + " relations");
  CQA_AUDIT(&report, pdb.pos_in_relation_.size() >= db.NumFacts(), "prepared",
            "position index covers " + IdStr(pdb.pos_in_relation_.size()) +
                " of " + IdStr(db.NumFacts()) + " slots");
  if (!report.ok()) return report;

  // Fresh scan: the alive facts of each relation, as a set.
  std::vector<std::size_t> want_counts(num_relations, 0);
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    if (db.alive(f)) ++want_counts[db.fact(f).relation];
  }
  std::vector<char> listed(db.NumFacts(), 0);
  for (RelationId r = 0; r < num_relations; ++r) {
    const std::vector<FactId>& facts = pdb.facts_by_relation_[r];
    CQA_AUDIT(&report, facts.size() == want_counts[r], "prepared",
              "relation " + IdStr(r) + " lists " + IdStr(facts.size()) +
                  " facts, database has " + IdStr(want_counts[r]));
    for (std::uint32_t i = 0; i < facts.size(); ++i) {
      FactId f = facts[i];
      if (f >= db.NumFacts()) {
        report.Add("prepared", "relation " + IdStr(r) +
                                   " lists out-of-range fact " + IdStr(f));
        ++report.checks;
        continue;
      }
      CQA_AUDIT(&report, listed[f] == 0, "prepared",
                "fact " + IdStr(f) + " listed twice");
      listed[f] = 1;
      CQA_AUDIT(&report, db.alive(f), "prepared",
                "relation " + IdStr(r) + " lists tombstoned fact " +
                    IdStr(f));
      CQA_AUDIT(&report, db.alive(f) && db.fact(f).relation == r, "prepared",
                "relation " + IdStr(r) + " lists fact " + IdStr(f) +
                    " of another relation");
      CQA_AUDIT(&report, pdb.pos_in_relation_[f] == i, "prepared",
                "pos_in_relation_[" + IdStr(f) + "] is " +
                    IdStr(pdb.pos_in_relation_[f]) + ", fact sits at index " +
                    IdStr(i));
    }
  }
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    CQA_AUDIT(&report, listed[f] == (db.alive(f) ? 1 : 0), "prepared",
              "alive fact " + IdStr(f) + " missing from its relation list");
  }

  // Block lists: exactly the partition's blocks, grouped by relation.
  const std::vector<Block>& blocks = db.blocks();
  std::vector<char> block_listed(blocks.size(), 0);
  for (RelationId r = 0; r < num_relations; ++r) {
    for (BlockId b : pdb.blocks_by_relation_[r]) {
      if (b >= blocks.size()) {
        report.Add("prepared", "relation " + IdStr(r) +
                                   " lists out-of-range block " + IdStr(b));
        ++report.checks;
        continue;
      }
      CQA_AUDIT(&report, block_listed[b] == 0, "prepared",
                "block " + IdStr(b) + " listed twice");
      block_listed[b] = 1;
      CQA_AUDIT(&report, blocks[b].relation == r, "prepared",
                "relation " + IdStr(r) + " lists block " + IdStr(b) +
                    " of relation " + IdStr(blocks[b].relation));
    }
  }
  for (BlockId b = 0; b < blocks.size(); ++b) {
    CQA_AUDIT(&report, block_listed[b] == 1, "prepared",
              "block " + IdStr(b) + " missing from its relation list");
  }

  return report;
}

namespace {

/// Const union-find walk (no path compression): the root of f.
FactId RootOf(const std::vector<FactId>& parent, FactId f) {
  // Bounded walk so a corrupted parent cycle cannot hang the audit, and
  // bounds-checked so a corrupted link cannot read out of range.
  for (std::size_t steps = 0; steps <= parent.size(); ++steps) {
    if (f >= parent.size()) return Database::kNoFact;
    FactId up = parent[f];
    if (up == f) return f;
    f = up;
  }
  return Database::kNoFact;  // Cycle.
}

}  // namespace

AuditReport AuditComponents(const ConjunctiveQuery& q,
                            const PreparedDatabase& pdb,
                            const DynamicComponents& components) {
  AuditReport report;
  const Database& db = pdb.db();

  // -- Internal consistency --------------------------------------------
  CQA_AUDIT(&report, components.parent_.size() == db.NumFacts(), "components",
            "union-find covers " + IdStr(components.parent_.size()) +
                " ids for " + IdStr(db.NumFacts()) + " fact slots");
  std::vector<char> member_of(db.NumFacts(), 0);
  for (const auto& [root, comp] : components.components_) {
    CQA_AUDIT(&report, !comp.members.empty(), "components",
              "component " + IdStr(root) + " has no members");
    FactId min_member = Database::kNoFact;
    ComponentFingerprint fresh;
    bool members_ok = true;
    for (FactId m : comp.members) {
      if (m >= db.NumFacts()) {
        report.Add("components", "component " + IdStr(root) +
                                     " holds out-of-range fact " + IdStr(m));
        ++report.checks;
        members_ok = false;
        continue;
      }
      CQA_AUDIT(&report, member_of[m] == 0, "components",
                "fact " + IdStr(m) + " belongs to two components");
      ++member_of[m];
      CQA_AUDIT(&report, db.alive(m), "components",
                "component " + IdStr(root) + " holds tombstoned fact " +
                    IdStr(m));
      if (m < components.parent_.size()) {
        FactId found_root = RootOf(components.parent_, m);
        CQA_AUDIT(&report, found_root == root, "components",
                  "member " + IdStr(m) + " of component " + IdStr(root) +
                      " unions to " +
                      (found_root == Database::kNoFact
                           ? std::string("a cycle")
                           : IdStr(found_root)));
      }
      min_member = std::min(min_member, m);
      if (db.alive(m)) fresh.Add(db, m);
    }
    CQA_AUDIT(&report, comp.min_member == min_member, "components",
              "component " + IdStr(root) + " min_member " +
                  IdStr(comp.min_member) + " vs actual " + IdStr(min_member));
    if (members_ok) {
      CQA_AUDIT(&report, fresh == comp.fingerprint, "components",
                "component " + IdStr(root) +
                    " fingerprint differs from one recomputed from its "
                    "members");
    }
  }
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    CQA_AUDIT(&report, member_of[f] == (db.alive(f) ? 1 : 0), "components",
              db.alive(f)
                  ? "alive fact " + IdStr(f) + " is in no component"
                  : "tombstoned fact " + IdStr(f) + " is in a component");
  }
  // -- Partner index vs a fresh matching of the alive facts ------------
  // Every alive fact matching an atom sits exactly once in that atom's
  // index, in the chain of its own signature hash; nothing else does.
  {
    RelationBinding binding(q, db);
    std::vector<ElementId> mu(q.NumVars(), kUnassigned);
    for (int atom = 0; atom < 2; ++atom) {
      const QueryAtom& qa = q.atoms()[atom];
      std::string name = "atom " + std::to_string(atom);
      auto matches = [&](FactId f) {
        FactRef fact = db.fact(f);
        if (fact.relation != binding.Resolve(qa.relation)) return false;
        std::fill(mu.begin(), mu.end(), kUnassigned);
        return ExtendMatch(qa, fact, &mu);
      };
      const std::vector<FactId>& next = components.chain_next_[atom];
      CQA_AUDIT(&report, next.size() == db.NumFacts(), "partner-index",
                name + " chain links cover " + IdStr(next.size()) +
                    " ids for " + IdStr(db.NumFacts()) + " fact slots");
      if (next.size() != db.NumFacts()) continue;
      std::vector<std::uint32_t> seen(db.NumFacts(), 0);
      for (const auto& [hash, head] : components.chain_head_[atom]) {
        std::size_t steps = 0;
        for (FactId g = head; g != Database::kNoFact; g = next[g]) {
          if (g >= db.NumFacts() || ++steps > db.NumFacts()) {
            report.Add("partner-index", name + " chain " + IdStr(hash) +
                                            " is cyclic or leaves the slots");
            ++report.checks;
            break;
          }
          ++seen[g];
          bool member = db.alive(g) && matches(g);
          CQA_AUDIT(&report, member, "partner-index",
                    name + " chain holds fact " + IdStr(g) +
                        ", which is dead or does not match the atom");
          if (member) {
            CQA_AUDIT(&report,
                      components.SignatureHash(atom, db.fact(g)) == hash,
                      "partner-index",
                      name + " fact " + IdStr(g) +
                          " sits in the chain of another signature");
          }
        }
      }
      for (FactId f = 0; f < db.NumFacts(); ++f) {
        std::uint32_t expected = db.alive(f) && matches(f) ? 1 : 0;
        if (seen[f] == 0 && expected == 0) continue;
        CQA_AUDIT(&report, seen[f] == expected, "partner-index",
                  name + " index holds fact " + IdStr(f) + " " +
                      IdStr(seen[f]) + " times, expected " + IdStr(expected));
      }
    }
  }

  if (!report.ok()) return report;  // Partition compare needs sane members.

  // -- Equality with a fresh q-connected repartition --------------------
  std::vector<QConnectedComponent> fresh = QConnectedComponents(q, db);
  CQA_AUDIT(&report, fresh.size() == components.components_.size(),
            "components",
            "partition has " + IdStr(components.components_.size()) +
                " components, fresh recompute has " + IdStr(fresh.size()));
  // Same component count + every fresh component inside one maintained
  // component of the same size => identical partitions.
  std::unordered_map<FactId, FactId> root_of;  // fact -> maintained root.
  std::unordered_map<FactId, std::size_t> size_of;
  for (const auto& [root, comp] : components.components_) {
    size_of[root] = comp.members.size();
    for (FactId m : comp.members) root_of[m] = root;
  }
  for (const QConnectedComponent& fc : fresh) {
    if (fc.original_facts.empty()) continue;
    FactId root = root_of.count(fc.original_facts.front())
                      ? root_of[fc.original_facts.front()]
                      : Database::kNoFact;
    bool together = root != Database::kNoFact;
    for (FactId m : fc.original_facts) {
      together = together && root_of.count(m) != 0 && root_of[m] == root;
    }
    CQA_AUDIT(&report, together, "components",
              "freshly computed component of fact " +
                  IdStr(fc.original_facts.front()) +
                  " is split across maintained components");
    if (together) {
      CQA_AUDIT(&report, size_of[root] == fc.original_facts.size(),
                "components",
                "maintained component " + IdStr(root) + " has " +
                    IdStr(size_of[root]) + " members, fresh recompute has " +
                    IdStr(fc.original_facts.size()));
    }
  }

  return report;
}

}  // namespace cqa
