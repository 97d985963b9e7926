#include "data/database.h"

#include <algorithm>
#include <sstream>

#include "base/check.h"
#include "base/hash.h"
#include "base/strings.h"

namespace cqa {

FactId Database::ProbeFact(RelationId relation, ArgSpan args) const {
  auto it = fact_index_.find(FactHash{}(FactRef{relation, args}));
  if (it == fact_index_.end()) return kNoFact;
  for (FactId id : it->second) {
    if (relation_[id] == relation && fact(id).args == args) return id;
  }
  return kNoFact;
}

FactId Database::AddFact(RelationId relation, std::vector<ElementId> args) {
  const RelationSchema& rel = schema_.Relation(relation);
  CQA_CHECK_MSG(args.size() == rel.arity, "fact arity mismatch");
  ArgSpan span{args.data(), static_cast<std::uint32_t>(args.size())};
  FactId existing = ProbeFact(relation, span);
  if (existing != kNoFact) return existing;

  FactId id = static_cast<FactId>(slots_.size());
  FactSlot slot;
  slot.offset = static_cast<std::uint32_t>(arg_arena_.size());
  slot.arity = rel.arity;
  arg_arena_.insert(arg_arena_.end(), args.begin(), args.end());
  slots_.push_back(slot);
  relation_.push_back(relation);
  alive_.push_back(1);
  ++num_alive_;
  fact_index_[FactHash{}(FactRef{relation, span})].push_back(id);
  // Bulk loads stay lazy (one linear build on first read); once the
  // partition exists it is maintained in place.
  if (!blocks_dirty_) {
    block_of_.push_back(0);
    InsertIntoBlocks(id);
  }
  return id;
}

Database::RemovedFact Database::RemoveFact(FactId id) {
  CQA_CHECK(id < slots_.size());
  CQA_CHECK_MSG(alive_[id], "RemoveFact on a tombstoned fact");
  alive_[id] = 0;
  --num_alive_;
  auto it = fact_index_.find(FactHash{}(fact(id)));
  CQA_CHECK(it != fact_index_.end());
  std::vector<FactId>& bucket = it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), id));
  if (bucket.empty()) fact_index_.erase(it);

  RemovedFact info;
  if (blocks_dirty_) return info;  // Partition not built; nothing to patch.

  BlockId b = block_of_[id];
  info.block = b;
  std::vector<FactId>& members = blocks_[b].facts;
  members.erase(std::find(members.begin(), members.end(), id));
  if (!members.empty()) {
    info.moved_from = b;
    return info;
  }

  // Block emptied: swap-remove it so BlockIds stay dense. The previously
  // last block takes over id `b`; its facts and key-index entry follow.
  info.block_removed = true;
  EraseBlockIndexEntry(b);
  BlockId last = static_cast<BlockId>(blocks_.size() - 1);
  info.moved_from = last;
  if (b != last) {
    EraseBlockIndexEntry(last);
    blocks_[b] = std::move(blocks_[last]);
    for (FactId f : blocks_[b].facts) block_of_[f] = b;
    KeyView key{blocks_[b].key.data(),
                static_cast<std::uint32_t>(blocks_[b].key.size())};
    block_index_[HashRelationKey(blocks_[b].relation, key)].push_back(b);
  }
  blocks_.pop_back();
  return info;
}

FactIdRemap Database::Compact() {
  FactIdRemap remap;
  remap.old_slots = slots_.size();
  remap.new_id.assign(slots_.size(), kNoFact);
  FactId next = 0;
  for (FactId id = 0; id < slots_.size(); ++id) {
    if (alive_[id]) remap.new_id[id] = next++;
  }
  remap.new_slots = next;
  if (remap.identity()) return remap;

  // Slide survivors down in order — slots and their argument spans in the
  // same pass. The remap is monotonic, so a destination span never
  // overlaps a source span that has not been copied yet (dest <= src
  // throughout; std::copy handles the forward-overlapping case).
  std::uint32_t write = 0;
  for (FactId id = 0; id < slots_.size(); ++id) {
    FactId nid = remap.new_id[id];
    if (nid == kNoFact) continue;
    FactSlot s = slots_[id];
    std::copy(arg_arena_.begin() + s.offset,
              arg_arena_.begin() + s.offset + s.arity,
              arg_arena_.begin() + write);
    slots_[nid] = FactSlot{write, s.arity};
    relation_[nid] = relation_[id];
    write += s.arity;
  }
  arg_arena_.resize(write);
  arg_arena_.shrink_to_fit();
  slots_.resize(next);
  slots_.shrink_to_fit();
  relation_.resize(next);
  relation_.shrink_to_fit();
  alive_.assign(next, 1);
  alive_.shrink_to_fit();
  CQA_CHECK(num_alive_ == next);

  // fact_index_ only holds alive facts (RemoveFact erases) and hashes are
  // content-based, so the buckets survive — only the ids move.
  for (auto& [hash, bucket] : fact_index_) {
    for (FactId& id : bucket) id = remap.new_id[id];
  }

  if (!blocks_dirty_) {
    // BlockIds are stable across a compaction: only member ids move.
    for (Block& block : blocks_) {
      for (FactId& f : block.facts) f = remap.new_id[f];
    }
    std::vector<BlockId> block_of(next);
    for (FactId id = 0; id < remap.old_slots; ++id) {
      if (remap.new_id[id] != kNoFact) {
        block_of[remap.new_id[id]] = block_of_[id];
      }
    }
    block_of_ = std::move(block_of);
  }
  return remap;
}

BlockId Database::ProbeBlock(RelationId relation, KeyView key) const {
  auto it = block_index_.find(HashRelationKey(relation, key));
  if (it == block_index_.end()) return kNoBlock;
  for (BlockId b : it->second) {
    const Block& block = blocks_[b];
    if (block.relation != relation) continue;
    KeyView stored{block.key.data(),
                   static_cast<std::uint32_t>(block.key.size())};
    if (stored == key) return b;
  }
  return kNoBlock;
}

void Database::InsertIntoBlocks(FactId id) const {
  KeyView key = KeyViewOf(id);
  RelationId relation = relation_[id];
  BlockId b = ProbeBlock(relation, key);
  if (b != kNoBlock) {
    blocks_[b].facts.push_back(id);
    block_of_[id] = b;
    return;
  }
  b = static_cast<BlockId>(blocks_.size());
  Block block;
  block.relation = relation;
  block.key.assign(key.begin(), key.end());
  block.facts.push_back(id);
  blocks_.push_back(std::move(block));
  block_index_[HashRelationKey(relation, key)].push_back(b);
  block_of_[id] = b;
}

void Database::EraseBlockIndexEntry(BlockId b) const {
  KeyView key{blocks_[b].key.data(),
              static_cast<std::uint32_t>(blocks_[b].key.size())};
  auto it = block_index_.find(HashRelationKey(blocks_[b].relation, key));
  CQA_CHECK(it != block_index_.end());
  std::vector<BlockId>& bucket = it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), b));
  if (bucket.empty()) block_index_.erase(it);
}

FactId Database::AddFactNamed(RelationId relation,
                              const std::vector<std::string>& names) {
  std::vector<ElementId> args;
  args.reserve(names.size());
  for (const std::string& n : names) args.push_back(elements_.Intern(n));
  return AddFact(relation, std::move(args));
}

FactId Database::AddFactStr(RelationId relation,
                            std::string_view spaced_names) {
  std::vector<std::string> names;
  std::string cur;
  for (char c : spaced_names) {
    if (c == ' ' || c == '\t') {
      if (!cur.empty()) names.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) names.push_back(std::move(cur));
  return AddFactNamed(relation, names);
}

std::vector<ElementId> Database::KeyOf(FactId id) const {
  KeyView k = KeyViewOf(id);
  return std::vector<ElementId>(k.begin(), k.end());
}

bool Database::KeyEqual(FactId a, FactId b) const {
  if (relation_[a] != relation_[b]) return false;
  return KeyViewOf(a) == KeyViewOf(b);
}

void Database::EnsureBlocks() const {
  if (!blocks_dirty_) return;
  blocks_.clear();
  block_index_.clear();
  block_index_.reserve(slots_.size() * 2 + 1);
  block_of_.assign(slots_.size(), 0);
  for (FactId id = 0; id < slots_.size(); ++id) {
    if (alive_[id]) InsertIntoBlocks(id);
  }
  blocks_dirty_ = false;
}

BlockId Database::FindBlock(RelationId relation, KeyView key) const {
  EnsureBlocks();
  return ProbeBlock(relation, key);
}

const std::vector<Block>& Database::blocks() const {
  EnsureBlocks();
  return blocks_;
}

BlockId Database::BlockOf(FactId id) const {
  EnsureBlocks();
  CQA_CHECK(id < block_of_.size());
  CQA_DCHECK(alive_[id]);
  return block_of_[id];
}

bool Database::IsConsistent() const {
  for (const Block& b : blocks()) {
    if (b.facts.size() > 1) return false;
  }
  return true;
}

double Database::CountRepairs() const {
  double count = 1.0;
  for (const Block& b : blocks()) count *= static_cast<double>(b.facts.size());
  return count;
}

std::string Database::FactToString(FactId id) const {
  FactRef f = fact(id);
  const RelationSchema& rel = schema_.Relation(f.relation);
  std::ostringstream out;
  out << rel.name << '(';
  for (std::uint32_t i = 0; i < rel.arity; ++i) {
    if (i == rel.key_len && rel.key_len > 0) out << " | ";
    else if (i > 0) out << ", ";
    out << elements_.Name(f.args[i]);
  }
  out << ')';
  return out.str();
}

std::string Database::ToString() const {
  std::ostringstream out;
  for (BlockId b = 0; b < blocks().size(); ++b) {
    out << "block " << b << ":";
    for (FactId id : blocks()[b].facts) out << ' ' << FactToString(id);
    out << '\n';
  }
  return out.str();
}

bool Database::Contains(const Fact& f) const {
  return FindFact(f) != kNoFact;
}

FactId Database::FindFact(const Fact& f) const {
  return ProbeFact(f.relation,
                   ArgSpan{f.args.data(),
                           static_cast<std::uint32_t>(f.args.size())});
}

Database CopyFacts(const Database& db, const std::vector<FactId>& facts) {
  Database copy(db.schema());
  for (FactId f : facts) {
    FactRef fact = db.fact(f);
    std::vector<ElementId> args;
    args.reserve(fact.args.size());
    for (ElementId el : fact.args) {
      args.push_back(copy.elements().Intern(db.elements().Name(el)));
    }
    FactId local = copy.AddFact(fact.relation, std::move(args));
    CQA_CHECK_MSG(local + 1 == copy.NumFacts(), "CopyFacts: repeated fact");
  }
  return copy;
}

}  // namespace cqa
