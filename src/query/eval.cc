#include "query/eval.h"

#include <algorithm>
#include <unordered_map>

#include "base/check.h"
#include "base/hash.h"

namespace cqa {

StatusOr<RelationBinding> RelationBinding::Create(
    const ConjunctiveQuery& query, const Database& db) {
  RelationBinding binding;
  binding.map_.resize(query.schema().NumRelations());
  for (RelationId r = 0; r < query.schema().NumRelations(); ++r) {
    const RelationSchema& qrel = query.schema().Relation(r);
    RelationId db_rel = db.schema().Find(qrel.name);
    if (db_rel == Schema::kNotFound) {
      return Status(StatusCode::kSchemaMismatch,
                    "database lacks relation '" + qrel.name +
                        "' used by the query");
    }
    const RelationSchema& drel = db.schema().Relation(db_rel);
    if (drel.arity != qrel.arity || drel.key_len != qrel.key_len) {
      return Status(
          StatusCode::kSchemaMismatch,
          "relation '" + qrel.name + "' signature mismatch: query wants " +
              std::to_string(qrel.arity) + "/" +
              std::to_string(qrel.key_len) + " (arity/key), database has " +
              std::to_string(drel.arity) + "/" +
              std::to_string(drel.key_len));
    }
    binding.map_[r] = db_rel;
  }
  return binding;
}

Status ValidateBinding(const ConjunctiveQuery& query, const Database& db) {
  StatusOr<RelationBinding> created = RelationBinding::Create(query, db);
  return created.ok() ? Status::Ok() : created.status();
}

RelationBinding::RelationBinding(const ConjunctiveQuery& query,
                                 const Database& db) {
  StatusOr<RelationBinding> created = Create(query, db);
  CQA_CHECK_MSG(created.ok(), "relation binding failed (see Create)");
  *this = std::move(created).value();
}

bool ExtendMatch(const QueryAtom& atom, FactRef fact,
                 std::vector<ElementId>* mu) {
  CQA_DCHECK(atom.vars.size() == fact.args.size());
  for (std::size_t i = 0; i < atom.vars.size(); ++i) {
    ElementId& slot = (*mu)[atom.vars[i]];
    if (slot == kUnassigned) {
      slot = fact.args[i];
    } else if (slot != fact.args[i]) {
      return false;
    }
  }
  return true;
}

bool MatchesPattern(const QueryAtom& atom, FactRef fact) {
  for (std::size_t i = 0; i < atom.vars.size(); ++i) {
    for (std::size_t j = i + 1; j < atom.vars.size(); ++j) {
      if (atom.vars[i] == atom.vars[j] && fact.args[i] != fact.args[j]) {
        return false;
      }
    }
  }
  return true;
}

bool IsSolution(const ConjunctiveQuery& q, const RelationBinding& binding,
                const Database& db, FactId a, FactId b) {
  CQA_CHECK(q.NumAtoms() == 2);
  FactRef fa = db.fact(a);
  FactRef fb = db.fact(b);
  if (fa.relation != binding.Resolve(q.atoms()[0].relation)) return false;
  if (fb.relation != binding.Resolve(q.atoms()[1].relation)) return false;
  std::vector<ElementId> mu(q.NumVars(), kUnassigned);
  return ExtendMatch(q.atoms()[0], fa, &mu) && ExtendMatch(q.atoms()[1], fb, &mu);
}

bool IsSolutionEither(const ConjunctiveQuery& q,
                      const RelationBinding& binding, const Database& db,
                      FactId a, FactId b) {
  return IsSolution(q, binding, db, a, b) || IsSolution(q, binding, db, b, a);
}

namespace {

/// Shared hash-join core: candidates for each atom are given explicitly
/// (per-relation index for the prepared path, a linear scan for the
/// convenience path).
SolutionSet JoinSolutions(const ConjunctiveQuery& q, const Database& db,
                          const std::vector<FactId>& a_facts,
                          const std::vector<FactId>& b_facts) {
  SolutionSet out;
  out.self.assign(db.NumFacts(), false);

  // Shared variables, in ascending VarId order, define the join signature.
  VarMask shared = q.VarsOf(0) & q.VarsOf(1);
  std::vector<VarId> shared_vars;
  for (VarId v = 0; v < q.NumVars(); ++v) {
    if (shared & (VarMask{1} << v)) shared_vars.push_back(v);
  }

  auto signature = [&](const std::vector<ElementId>& mu) {
    std::vector<ElementId> sig;
    sig.reserve(shared_vars.size());
    for (VarId v : shared_vars) {
      CQA_DCHECK(mu[v] != kUnassigned);
      sig.push_back(mu[v]);
    }
    return sig;
  };

  // Bucket the facts matching each atom by their shared-variable signature.
  std::unordered_map<std::vector<ElementId>, std::vector<FactId>, VectorHash>
      a_side;
  std::unordered_map<std::vector<ElementId>, std::vector<FactId>, VectorHash>
      b_side;
  std::vector<ElementId> mu(q.NumVars(), kUnassigned);
  for (FactId f : a_facts) {
    std::fill(mu.begin(), mu.end(), kUnassigned);
    if (ExtendMatch(q.atoms()[0], db.fact(f), &mu)) {
      a_side[signature(mu)].push_back(f);
    }
  }
  for (FactId f : b_facts) {
    std::fill(mu.begin(), mu.end(), kUnassigned);
    if (ExtendMatch(q.atoms()[1], db.fact(f), &mu)) {
      b_side[signature(mu)].push_back(f);
    }
  }

  for (const auto& [sig, as] : a_side) {
    auto it = b_side.find(sig);
    if (it == b_side.end()) continue;
    for (FactId a : as) {
      for (FactId b : it->second) {
        out.pairs.emplace_back(a, b);
        if (a == b) out.self[a] = true;
      }
    }
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  return out;
}

}  // namespace

SolutionSet ComputeSolutions(const ConjunctiveQuery& q,
                             const PreparedDatabase& pdb) {
  CQA_CHECK(q.NumAtoms() == 2);
  RelationBinding binding(q, pdb.db());
  return JoinSolutions(q, pdb.db(),
                       pdb.FactsOf(binding.Resolve(q.atoms()[0].relation)),
                       pdb.FactsOf(binding.Resolve(q.atoms()[1].relation)));
}

SolutionSet ComputeSolutions(const ConjunctiveQuery& q, const Database& db) {
  CQA_CHECK(q.NumAtoms() == 2);
  RelationBinding binding(q, db);
  // One linear scan instead of a throwaway PreparedDatabase: callers on
  // this path (tripath validation, component analysis) neither need nor
  // want the block partition forced.
  RelationId rel_a = binding.Resolve(q.atoms()[0].relation);
  RelationId rel_b = binding.Resolve(q.atoms()[1].relation);
  std::vector<FactId> a_facts;
  std::vector<FactId> b_facts;
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    if (!db.alive(f)) continue;
    RelationId rel = db.fact(f).relation;
    if (rel == rel_a) a_facts.push_back(f);
    if (rel == rel_b) b_facts.push_back(f);
  }
  return JoinSolutions(q, db, a_facts, b_facts);
}

namespace {

bool SatisfiesRec(const ConjunctiveQuery& q,
                  const std::vector<std::vector<FactRef>>& by_relation,
                  std::size_t atom_index, std::vector<ElementId>* mu) {
  if (atom_index == q.NumAtoms()) return true;
  const QueryAtom& atom = q.atoms()[atom_index];
  std::vector<ElementId> saved = *mu;
  for (FactRef fact : by_relation[atom.relation]) {
    *mu = saved;
    if (ExtendMatch(atom, fact, mu) &&
        SatisfiesRec(q, by_relation, atom_index + 1, mu)) {
      return true;
    }
  }
  *mu = saved;
  return false;
}

bool SatisfiesFacts(const ConjunctiveQuery& q, const Database& db,
                    const std::vector<FactId>& facts) {
  RelationBinding binding(q, db);
  // by_relation is indexed by *query* relation id.
  std::vector<std::vector<FactRef>> by_relation(q.schema().NumRelations());
  for (FactId f : facts) {
    FactRef fact = db.fact(f);
    for (RelationId r = 0; r < q.schema().NumRelations(); ++r) {
      if (binding.Resolve(r) == fact.relation) {
        by_relation[r].push_back(fact);
      }
    }
  }
  std::vector<ElementId> mu(q.NumVars(), kUnassigned);
  return SatisfiesRec(q, by_relation, 0, &mu);
}

}  // namespace

bool SatisfiesSubset(const ConjunctiveQuery& q, const Database& db,
                     const std::vector<FactId>& facts) {
  return SatisfiesFacts(q, db, facts);
}

bool Satisfies(const ConjunctiveQuery& q, const Database& db) {
  std::vector<FactId> all;
  all.reserve(db.NumAliveFacts());
  for (FactId f = 0; f < db.NumFacts(); ++f) {
    if (db.alive(f)) all.push_back(f);
  }
  return SatisfiesFacts(q, db, all);
}

bool SatisfiesRepair(const ConjunctiveQuery& q, const Database& db,
                     const Repair& repair) {
  return SatisfiesFacts(q, db, repair.Facts());
}

}  // namespace cqa
