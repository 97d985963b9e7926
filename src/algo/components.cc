#include "algo/components.h"

#include "algo/combined.h"
#include "base/check.h"
#include "base/union_find.h"
#include "query/eval.h"

namespace cqa {

std::vector<QConnectedComponent> QConnectedComponents(
    const ConjunctiveQuery& q, const Database& db) {
  CQA_CHECK(q.NumAtoms() == 2);
  const auto& blocks = db.blocks();
  UnionFind uf(blocks.size());
  SolutionSet solutions = ComputeSolutions(q, db);
  for (const auto& [a, b] : solutions.pairs) {
    uf.Union(db.BlockOf(a), db.BlockOf(b));
  }

  // Group blocks by component representative, preserving block order.
  std::vector<int> component_index(blocks.size(), -1);
  std::vector<QConnectedComponent> components;
  for (BlockId blk = 0; blk < blocks.size(); ++blk) {
    std::uint32_t rep = uf.Find(blk);
    if (component_index[rep] < 0) {
      component_index[rep] = static_cast<int>(components.size());
      components.emplace_back();
    }
    std::vector<FactId>& facts =
        components[component_index[rep]].original_facts;
    facts.insert(facts.end(), blocks[blk].facts.begin(),
                 blocks[blk].facts.end());
  }
  for (QConnectedComponent& comp : components) {
    comp.db = CopyFacts(db, comp.original_facts);
  }
  return components;
}

bool ComponentwiseCertain(const ConjunctiveQuery& q, const Database& db,
                          std::uint32_t k) {
  for (const QConnectedComponent& comp : QConnectedComponents(q, db)) {
    if (CombinedCertain(q, comp.db, k)) return true;
  }
  return false;
}

}  // namespace cqa
