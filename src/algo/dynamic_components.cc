#include "algo/dynamic_components.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace cqa {
namespace {

/// splitmix64 finalizer: decorrelates FactHash values before the
/// commutative combines so that sum/xor over members behave like
/// independent digests.
std::uint64_t Mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void ComponentFingerprint::Add(const Database& db, FactId f) {
  FactRef fact = db.fact(f);
  std::uint64_t h = fact.relation;
  for (ElementId el : fact.args) {
    const std::string& name = db.elements().Name(el);
    h = HashCombine(h, HashRange(name.begin(), name.end()));
  }
  sum += Mix(h + 0x9e3779b97f4a7c15ULL);
  xr ^= Mix(h + 0x7f4a7c159e3779b9ULL);
  ++count;
}

void ComponentFingerprint::Merge(const ComponentFingerprint& other) {
  sum += other.sum;
  xr ^= other.xr;
  count += other.count;
}

void ComponentFingerprint::Subtract(const ComponentFingerprint& other) {
  sum -= other.sum;
  xr ^= other.xr;
  count -= other.count;
}

DynamicComponents::DynamicComponents(const ConjunctiveQuery& q,
                                     const PreparedDatabase& pdb)
    : q_(&q), pdb_(&pdb) {
  CQA_CHECK(q.NumAtoms() == 2);
  const Database& db = pdb.db();
  RelationBinding binding(q, db);
  VarMask shared = q.VarsOf(0) & q.VarsOf(1);
  for (int atom = 0; atom < 2; ++atom) {
    const QueryAtom& qa = q.atoms()[atom];
    atom_relation_[atom] = binding.Resolve(qa.relation);
    for (VarId v = 0; v < q.NumVars(); ++v) {
      if ((shared & (VarMask{1} << v)) == 0) continue;
      auto pos = std::find(qa.vars.begin(), qa.vars.end(), v);
      signature_pos_[atom].push_back(
          static_cast<std::uint32_t>(pos - qa.vars.begin()));
    }
  }

  parent_.resize(db.NumFacts());
  for (std::vector<FactId>& next : chain_next_) {
    next.assign(db.NumFacts(), Database::kNoFact);
  }
  std::vector<FactId> alive;
  ComponentFingerprint all;
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    parent_[f] = f;
    if (!db.alive(f)) continue;
    IndexAdd(f);
    alive.push_back(f);
    all.Add(db, f);
  }
  Regroup(alive, all);
}

FactId DynamicComponents::Find(FactId f) {
  FactId root = f;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[f] != root) {
    FactId next = parent_[f];
    parent_[f] = root;
    f = next;
  }
  return root;
}

void DynamicComponents::Retire(Component& comp) {
  if (comp.verdict == nullptr) return;
  dirty_.retired.push_back(
      RetiredVerdict{comp.fingerprint, std::move(comp.verdict)});
}

void DynamicComponents::Union(FactId a, FactId b) {
  FactId ra = Find(a);
  FactId rb = Find(b);
  if (ra == rb) return;
  // Splice the smaller member list into the larger: total union work over
  // any merge sequence stays O(n log n).
  if (components_[ra].members.size() < components_[rb].members.size()) {
    std::swap(ra, rb);
  }
  Component& big = components_[ra];
  Component& small = components_[rb];
  Retire(big);
  Retire(small);
  parent_[rb] = ra;
  big.members.insert(big.members.end(), small.members.begin(),
                     small.members.end());
  big.min_member = std::min(big.min_member, small.min_member);
  big.fingerprint.Merge(small.fingerprint);
  components_.erase(rb);
  dirty_.roots.push_back(ra);
}

bool DynamicComponents::Matches(int atom, FactRef fact) const {
  return fact.relation == atom_relation_[atom] &&
         MatchesPattern(q_->atoms()[atom], fact);
}

std::uint64_t DynamicComponents::SignatureHash(int atom, FactRef fact) const {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (std::uint32_t pos : signature_pos_[atom]) {
    h = HashCombine(h, fact.args[pos]);
  }
  return h;
}

bool DynamicComponents::SameSignature(int atom_a, FactRef a, FactRef b) const {
  const std::vector<std::uint32_t>& pos_a = signature_pos_[atom_a];
  const std::vector<std::uint32_t>& pos_b = signature_pos_[1 - atom_a];
  for (std::size_t i = 0; i < pos_a.size(); ++i) {
    if (a.args[pos_a[i]] != b.args[pos_b[i]]) return false;
  }
  return true;
}

void DynamicComponents::IndexAdd(FactId f) {
  FactRef fact = pdb_->db().fact(f);
  for (int atom = 0; atom < 2; ++atom) {
    if (!Matches(atom, fact)) continue;
    auto [it, fresh] =
        chain_head_[atom].try_emplace(SignatureHash(atom, fact), f);
    chain_next_[atom][f] = fresh ? Database::kNoFact : it->second;
    it->second = f;
  }
}

void DynamicComponents::IndexRemove(FactId f) {
  FactRef fact = pdb_->db().fact(f);
  for (int atom = 0; atom < 2; ++atom) {
    if (!Matches(atom, fact)) continue;
    std::vector<FactId>& next = chain_next_[atom];
    auto it = chain_head_[atom].find(SignatureHash(atom, fact));
    CQA_CHECK(it != chain_head_[atom].end());
    if (it->second == f) {
      if (next[f] == Database::kNoFact) {
        chain_head_[atom].erase(it);
      } else {
        it->second = next[f];
      }
    } else {
      // Chains hold one signature (up to hash collisions): short walks.
      FactId prev = it->second;
      while (next[prev] != f) {
        prev = next[prev];
        CQA_CHECK(prev != Database::kNoFact);
      }
      next[prev] = next[f];
    }
    next[f] = Database::kNoFact;
  }
}

std::vector<FactId> DynamicComponents::Partners(FactId f) const {
  const Database& db = pdb_->db();
  FactRef fact = db.fact(f);
  std::vector<FactId> partners;
  // f as atom 0 against the atom-1 chain, then the mirror.
  for (int side = 0; side < 2; ++side) {
    if (!Matches(side, fact)) continue;
    auto it = chain_head_[1 - side].find(SignatureHash(side, fact));
    if (it == chain_head_[1 - side].end()) continue;
    for (FactId g = it->second; g != Database::kNoFact;
         g = chain_next_[1 - side][g]) {
      if (side == 1 && g == f) continue;  // q(f f) already seen as side 0.
      if (db.alive(g) && SameSignature(side, fact, db.fact(g))) {
        partners.push_back(g);
      }
    }
  }
  return partners;
}

FactId DynamicComponents::FirstPartner(int side, FactId f) const {
  const Database& db = pdb_->db();
  FactRef fact = db.fact(f);
  if (!Matches(side, fact)) return Database::kNoFact;
  auto it = chain_head_[1 - side].find(SignatureHash(side, fact));
  if (it == chain_head_[1 - side].end()) return Database::kNoFact;
  for (FactId g = it->second; g != Database::kNoFact;
       g = chain_next_[1 - side][g]) {
    if (db.alive(g) && SameSignature(side, fact, db.fact(g))) return g;
  }
  return Database::kNoFact;
}

FactId DynamicComponents::KnownBlockmate(FactId f) const {
  // The database may be *ahead* of this partition: deltas are queued and
  // flushed in mutation order (engine/incremental.h), so while f's delta
  // flushes, later-inserted facts already sit in the block lists with ids
  // >= parent_.size(). Skip them — each connects itself when its own
  // delta flushes. All known blockmates are mutually connected (blocks
  // are cliques, maintained inductively), so one suffices.
  for (FactId g : pdb_->blocks()[pdb_->BlockOf(f)].facts) {
    if (g != f && g < parent_.size()) return g;
  }
  return Database::kNoFact;
}

void DynamicComponents::Link(FactId a, FactId b) {
  FactId ra = Find(a);
  FactId rb = Find(b);
  if (ra != rb) parent_[rb] = ra;
}

void DynamicComponents::OnInsert(FactId f) {
  CQA_CHECK(f == parent_.size());  // Ids are append-only.
  parent_.push_back(f);
  for (std::vector<FactId>& next : chain_next_) {
    next.push_back(Database::kNoFact);
  }
  Component& comp = components_[f];
  comp.members.assign(1, f);
  comp.min_member = f;
  comp.fingerprint.Add(pdb_->db(), f);
  dirty_.roots.push_back(f);
  IndexAdd(f);
  // A fact inserted and removed by later-queued deltas is already
  // tombstoned here: register it as a singleton (its tuple is still
  // readable) and let its own OnRemove erase it; probing the block
  // partition for a dead fact is meaningless.
  if (!pdb_->db().alive(f)) return;
  FactId mate = KnownBlockmate(f);
  if (mate != Database::kNoFact) Union(f, mate);
  // Facts beyond the horizon are not indexed yet.
  for (FactId g : Partners(f)) Union(f, g);
}

void DynamicComponents::OnRemove(FactId f) {
  CQA_CHECK(f < parent_.size());
  IndexRemove(f);
  const Database& db = pdb_->db();
  auto node = components_.extract(Find(f));
  Component& old = node.mapped();
  Retire(old);

  // Deletion can split the component: dissolve it and regroup the
  // survivors. A survivor's partners and blockmates are survivors (the
  // component was closed under both), so the regrouping stays inside
  // the old member list. Resetting every member's parent also clears
  // any compression chain that ran through f.
  for (FactId m : old.members) parent_[m] = m;
  std::vector<FactId> survivors;
  survivors.reserve(old.members.size() - 1);
  for (FactId m : old.members) {
    if (m != f) survivors.push_back(m);
  }
  ComponentFingerprint removed;
  removed.Add(db, f);
  ComponentFingerprint rest = old.fingerprint;
  rest.Subtract(removed);
  Regroup(survivors, rest);
}

void DynamicComponents::Regroup(const std::vector<FactId>& facts,
                                ComponentFingerprint fingerprint) {
  // Link in parent_ alone (no per-fact component records): every fact
  // joins one known blockmate and the first alive fact of each opposite
  // signature chain. All facts of one signature on both sides are
  // pairwise partners, so those links connect every signature group
  // with O(n) unions instead of one per solution pair. Facts tombstoned
  // by queued deltas have no block slot any more; they stay singletons
  // until their own OnRemove erases them.
  const Database& db = pdb_->db();
  for (FactId m : facts) {
    if (!db.alive(m)) continue;
    FactId mate = KnownBlockmate(m);
    if (mate != Database::kNoFact) Link(m, mate);
    for (int side = 0; side < 2; ++side) {
      FactId g = FirstPartner(side, m);
      if (g != Database::kNoFact) Link(m, g);
    }
  }

  // One component per resulting tree. The largest inherits `fingerprint`
  // minus the other parts, so an unsplit component costs no rehashing.
  std::vector<Component> parts;
  std::vector<FactId> roots;
  std::unordered_map<FactId, std::size_t> part_of;  // Root -> index.
  for (FactId m : facts) {
    FactId root = Find(m);
    auto [it, fresh] = part_of.try_emplace(root, parts.size());
    if (fresh) {
      parts.emplace_back();
      parts.back().min_member = m;
      roots.push_back(root);
    }
    Component& part = parts[it->second];
    part.members.push_back(m);
    part.min_member = std::min(part.min_member, m);
  }
  std::size_t largest = 0;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].members.size() > parts[largest].members.size()) largest = i;
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i == largest) continue;
    for (FactId m : parts[i].members) parts[i].fingerprint.Add(db, m);
    fingerprint.Subtract(parts[i].fingerprint);
  }
  if (!parts.empty()) parts[largest].fingerprint = fingerprint;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    components_.emplace(roots[i], std::move(parts[i]));
    dirty_.roots.push_back(roots[i]);
  }
}

DynamicComponents::DirtyLog DynamicComponents::TakeDirty() {
  return std::exchange(dirty_, DirtyLog());
}

void DynamicComponents::ApplyRemap(const FactIdRemap& remap) {
  CQA_CHECK(parent_.size() == remap.old_slots);
  // Alive facts' parent chains pass only through alive facts (dead slots
  // are reset to singletons at construction and survivors re-rooted on
  // every OnRemove), so every alive parent pointer remaps cleanly.
  std::vector<FactId> parent(remap.new_slots);
  for (FactId old = 0; old < remap.old_slots; ++old) {
    FactId nid = remap.Apply(old);
    if (nid == Database::kNoFact) continue;
    FactId new_parent = remap.Apply(parent_[old]);
    CQA_CHECK(new_parent != Database::kNoFact);
    parent[nid] = new_parent;
  }
  parent_ = std::move(parent);

  std::unordered_map<FactId, Component> components;
  components.reserve(components_.size());
  for (auto& [root, comp] : components_) {
    Component moved = std::move(comp);
    for (FactId& m : moved.members) m = remap.Apply(m);
    moved.min_member = remap.Apply(moved.min_member);
    components.emplace(remap.Apply(root), std::move(moved));
  }
  components_ = std::move(components);

  // Compaction follows a flush, so every indexed fact is alive.
  auto remap_live = [&remap](FactId id) {
    if (id == Database::kNoFact) return id;
    FactId nid = remap.Apply(id);
    CQA_CHECK(nid != Database::kNoFact);
    return nid;
  };
  for (int atom = 0; atom < 2; ++atom) {
    std::vector<FactId> next(remap.new_slots, Database::kNoFact);
    for (FactId old = 0; old < remap.old_slots; ++old) {
      FactId nid = remap.Apply(old);
      if (nid != Database::kNoFact) {
        next[nid] = remap_live(chain_next_[atom][old]);
      }
    }
    chain_next_[atom] = std::move(next);
    for (auto& [hash, head] : chain_head_[atom]) head = remap_live(head);
  }
  // Logged roots of components that have since vanished may be dead.
  std::vector<FactId> roots;
  for (FactId r : dirty_.roots) {
    FactId nid = remap.Apply(r);
    if (nid != Database::kNoFact) roots.push_back(nid);
  }
  dirty_.roots = std::move(roots);
}

}  // namespace cqa
