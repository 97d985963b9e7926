#include "reduction/sat_reduction.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "query/eval.h"

namespace cqa {
namespace {

std::string LeafName(std::uint32_t ci, std::uint32_t cj, std::uint32_t var) {
  return "lf:" + std::to_string(ci) + ":" + std::to_string(cj) + ":v" +
         std::to_string(var);
}

}  // namespace

SatGadget BuildSatGadget(const ConjunctiveQuery& q,
                         const FoundTripath& nice_fork,
                         const CnfFormula& phi) {
  CQA_CHECK_MSG(nice_fork.validation.nice && !nice_fork.validation.triangle,
                "the reduction needs a nice fork-tripath");
  CQA_CHECK_MSG(phi.IsReductionReady(),
                "formula must have 2-3 occurrences per variable, both "
                "polarities (run LimitOccurrences + "
                "EliminatePureAndSingletons first)");
  for (const Clause& c : phi.clauses) {
    CQA_CHECK_MSG(c.size() >= 2,
                  "unit clauses must be propagated away before the gadget");
  }

  const Tripath& theta = nice_fork.tripath;
  const TripathValidation& val = nice_fork.validation;

  SatGadget out;
  out.db = Database(q.schema());

  // Instantiates Theta[alpha_x, alpha_y, alpha_z, alpha_u, alpha_v,
  // alpha_w] into the target database. Non-witness elements are shared
  // verbatim across all copies (the paper's construction).
  auto add_copy = [&](std::uint32_t var, std::uint32_t clause,
                      const std::string& alpha_v,
                      const std::string& alpha_w) {
    std::map<ElementId, ElementId> rename;
    auto map_role = [&](ElementId el, const std::string& name) {
      // alpha_x = alpha_y iff x = y: first mapping wins for shared roles.
      rename.emplace(el, out.db.elements().Intern(name));
    };
    std::string tag = "C" + std::to_string(clause) + ",v" +
                      std::to_string(var);
    map_role(val.x, "<" + tag + ">x");
    map_role(val.y, "<" + tag + ">y");
    map_role(val.z, "<" + tag + ">z");
    map_role(val.u, "cl:" + std::to_string(clause));
    map_role(val.v, alpha_v);
    map_role(val.w, alpha_w);

    FactId root_copy = Database::kNoFact;
    for (FactId fid = 0; fid < theta.db.NumFacts(); ++fid) {
      FactRef fact = theta.db.fact(fid);
      std::vector<ElementId> args;
      args.reserve(fact.args.size());
      for (ElementId el : fact.args) {
        auto it = rename.find(el);
        args.push_back(it != rename.end()
                           ? it->second
                           : out.db.elements().Intern(
                                 "sh:" + theta.db.elements().Name(el)));
      }
      FactId nid = out.db.AddFact(fact.relation, std::move(args));
      if (fid == theta.u0()) root_copy = nid;
    }
    CQA_CHECK(root_copy != Database::kNoFact);
    auto inserted =
        out.literal_fact.emplace(std::make_pair(clause, var), root_copy);
    CQA_CHECK_MSG(inserted.second, "duplicate (clause, variable) copy");
  };

  // Occurrence lists per variable.
  std::vector<std::vector<std::uint32_t>> pos(phi.num_vars);
  std::vector<std::vector<std::uint32_t>> neg(phi.num_vars);
  for (std::uint32_t c = 0; c < phi.clauses.size(); ++c) {
    for (const Literal& lit : phi.clauses[c]) {
      (lit.positive ? pos : neg)[lit.var].push_back(c);
    }
  }

  for (std::uint32_t var = 0; var < phi.num_vars; ++var) {
    std::size_t total = pos[var].size() + neg[var].size();
    if (total == 0) continue;
    CQA_CHECK(total == 2 || total == 3);
    if (total == 2) {
      // V2: one occurrence per polarity; copies coupled via the w-leaf.
      std::uint32_t c = pos[var][0];
      std::uint32_t cp = neg[var][0];
      add_copy(var, c, LeafName(c, c, var), LeafName(c, cp, var));
      add_copy(var, cp, LeafName(cp, cp, var), LeafName(c, cp, var));
    } else {
      // V3: the minority polarity occurs once (its clause is C), the
      // majority twice (C1, C2).
      std::uint32_t c, c1, c2;
      if (pos[var].size() == 1) {
        c = pos[var][0];
        c1 = neg[var][0];
        c2 = neg[var][1];
      } else {
        CQA_CHECK(neg[var].size() == 1);
        c = neg[var][0];
        c1 = pos[var][0];
        c2 = pos[var][1];
      }
      add_copy(var, c, LeafName(c, c2, var), LeafName(c, c1, var));
      add_copy(var, c1, LeafName(c1, c1, var), LeafName(c, c1, var));
      add_copy(var, c2, LeafName(c, c2, var), LeafName(c2, c2, var));
    }
  }

  // Structural sanity: each clause block holds one fact per literal.
  for (std::uint32_t c = 0; c < phi.clauses.size(); ++c) {
    FactId first = out.literal_fact.at(
        {c, phi.clauses[c].front().var});
    BlockId blk = out.db.BlockOf(first);
    CQA_CHECK_MSG(
        out.db.blocks()[blk].facts.size() == phi.clauses[c].size(),
        "clause block size mismatch: literal facts collided or split");
    for (const Literal& lit : phi.clauses[c]) {
      FactId lf = out.literal_fact.at({c, lit.var});
      CQA_CHECK_MSG(out.db.BlockOf(lf) == blk,
                    "literal fact landed outside its clause block");
    }
  }

  // Padding: every singleton block gets a fresh fact that forms no
  // solution with anything.
  std::set<FactId> padding;
  {
    std::vector<Block> snapshot = out.db.blocks();
    for (const Block& b : snapshot) {
      if (b.facts.size() != 1) continue;
      FactRef orig = out.db.fact(b.facts[0]);
      const RelationSchema& rel = out.db.schema().Relation(b.relation);
      std::vector<ElementId> args(orig.args.begin(),
                                  orig.args.begin() + rel.key_len);
      for (std::uint32_t i = rel.key_len; i < rel.arity; ++i) {
        args.push_back(out.db.elements().Fresh("pad"));
      }
      FactId pid = out.db.AddFact(b.relation, std::move(args));
      padding.insert(pid);
      ++out.num_padding_facts;
    }
  }

  // Verify the padding facts are solution-inert (the paper asserts such
  // facts always exist; fresh non-key elements achieve it for
  // 2way-determined queries because every solution shares key elements).
  SolutionSet solutions = ComputeSolutions(q, out.db);
  for (const auto& [a, b] : solutions.pairs) {
    CQA_CHECK_MSG(padding.find(a) == padding.end() &&
                      padding.find(b) == padding.end(),
                  "a padding fact participates in a solution");
  }
  return out;
}

CnfFormula EncodeFalsifierCnf(const SolutionSet& solutions,
                              const PreparedDatabase& pdb) {
  CnfFormula f;
  f.num_vars = static_cast<std::uint32_t>(pdb.NumFacts());

  // A repair selects at least one fact from every block.
  for (const Block& block : pdb.blocks()) {
    Clause at_least_one;
    at_least_one.reserve(block.facts.size());
    for (FactId fact : block.facts) {
      at_least_one.push_back(Literal{fact, true});
    }
    f.clauses.push_back(std::move(at_least_one));
  }

  // Self-solution facts are unusable.
  for (FactId fact = 0; fact < solutions.self.size(); ++fact) {
    if (solutions.self[fact]) f.clauses.push_back({Literal{fact, false}});
  }

  // No two selected facts may form a solution. Directed pairs (a, b) and
  // (b, a) yield the same clause; normalize and dedupe. Same-block pairs
  // are skipped: they never co-occur in the chosen one-per-block subset.
  std::vector<std::pair<FactId, FactId>> edges;
  edges.reserve(solutions.pairs.size());
  for (const auto& [a, b] : solutions.pairs) {
    if (a == b || pdb.BlockOf(a) == pdb.BlockOf(b)) continue;
    edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (const auto& [a, b] : edges) {
    f.clauses.push_back({Literal{a, false}, Literal{b, false}});
  }
  return f;
}

IncrementalFalsifier::IncrementalFalsifier(CdclOptions options)
    : solver_(options) {}

IncrementalFalsifier::BlockState& IncrementalFalsifier::StateOf(
    const Block& block) {
  KeyView key{block.key.data(), static_cast<std::uint32_t>(block.key.size())};
  std::size_t hash = HashRelationKey(block.relation, key);
  auto [first, last] = blocks_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.relation == block.relation && it->second.key == block.key) {
      return it->second;
    }
  }
  return blocks_.emplace(hash, BlockState{block.relation, block.key, {}, kNoVar})
      ->second;
}

bool IncrementalFalsifier::SolveComponent(const PreparedDatabase& pdb,
                                          const DynamicComponents& components,
                                          const std::vector<FactId>& members,
                                          std::vector<FactId>* witness) {
  const std::vector<Block>& blocks = pdb.blocks();
  // Whole blocks (Prop 10.6), each first met at its first fact, visited by
  // min member so the solver's search bias ignores union-find history.
  visit_.clear();
  for (FactId f : members) {
    BlockId b = pdb.BlockOf(f);
    if (blocks[b].facts.front() == f) visit_.push_back(b);
  }
  std::sort(visit_.begin(), visit_.end(), [&blocks](BlockId a, BlockId b) {
    return blocks[a].facts.front() < blocks[b].facts.front();
  });

  // Diff each block against its last encoded version. A changed block
  // retires the old activation variable for good (permanent unit ~act)
  // and re-encodes under a fresh one; vanished facts are pinned false.
  assumptions_.clear();
  fresh_.clear();
  for (BlockId b : visit_) {
    const Block& block = blocks[b];
    BlockState& state = StateOf(block);
    if (state.act_var != kNoVar) {
      if (state.members == block.facts) {
        assumptions_.push_back(Literal{state.act_var, true});
        continue;
      }
      solver_.AddClause({Literal{state.act_var, false}});
      solver_.NoteRetraction(1);
      for (FactId old : state.members) {
        if (!std::binary_search(block.facts.begin(), block.facts.end(), old)) {
          solver_.AddClause({Literal{fact_var_.at(old), false}});
        }
      }
    }
    std::uint32_t act = solver_.AddVars(1);
    clause_.assign(1, Literal{act, false});
    for (FactId f : block.facts) {
      auto [it, fresh] = fact_var_.try_emplace(f, 0);
      if (fresh) {
        it->second = solver_.AddVars(1);
        fresh_.push_back(f);
      }
      clause_.push_back(Literal{it->second, true});
    }
    solver_.AddClause(clause_);
    state.members = block.facts;
    state.act_var = act;
    assumptions_.push_back(Literal{act, true});
  }

  // Solution clauses of fresh facts (the class comment's invariant covers
  // the rest); same-block pairs are skipped, as in EncodeFalsifierCnf.
  for (FactId f : fresh_) {
    std::uint32_t vf = fact_var_.at(f);
    for (FactId g : components.Partners(f)) {
      if (g != f && pdb.BlockOf(g) == pdb.BlockOf(f)) continue;
      std::uint32_t vg = fact_var_.at(g);  // g is a member too.
      if (!pair_clauses_.insert(PairKey(vf, vg)).second) continue;
      if (vf == vg) {
        solver_.AddClause({Literal{vf, false}});
      } else {
        solver_.AddClause({Literal{vf, false}, Literal{vg, false}});
      }
    }
  }

  // Every permanent clause is satisfied by the all-false assignment, so
  // the solver can never become unconditionally unsatisfiable.
  CQA_CHECK(solver_.ok());
  bool sat = solver_.SolveUnderAssumptions(assumptions_);
  if (sat && witness != nullptr) {
    // Restricting the model to one chosen fact per block keeps it
    // solution-free (same argument as EncodeFalsifierCnf), so the chosen
    // set is a falsifying repair of the component.
    witness->clear();
    for (BlockId b : visit_) {
      const std::vector<FactId>& facts = blocks[b].facts;
      auto chosen = std::find_if(facts.begin(), facts.end(), [&](FactId f) {
        return solver_.ValueOf(fact_var_.at(f));
      });
      CQA_CHECK_MSG(chosen != facts.end(),
                    "activated block has no selected fact in the model");
      witness->push_back(*chosen);
    }
  }
  return !sat;
}

void IncrementalFalsifier::AuditInto(const SolutionSet& solutions,
                                     const PreparedDatabase& pdb,
                                     AuditReport& report) const {
  for (const auto& [a, b] : solutions.pairs) {
    auto ia = fact_var_.find(a);
    auto ib = fact_var_.find(b);
    if (ia == fact_var_.end() || ib == fact_var_.end()) continue;
    if (a != b && pdb.BlockOf(a) == pdb.BlockOf(b)) continue;
    ++report.checks;
    if (pair_clauses_.count(PairKey(ia->second, ib->second)) == 0) {
      report.Add("sat-session",
                 "solution (" + std::to_string(a) + ", " + std::to_string(b) +
                     ") between encoded facts has no clause");
    }
  }
}

void IncrementalFalsifier::ApplyRemap(const FactIdRemap& remap) {
  // Variables of reclaimed tombstones are pinned false: their old pair
  // clauses become vacuous and any at-least-one clause still listing them
  // effectively shrinks to the survivors.
  std::unordered_map<FactId, std::uint32_t> next;
  next.reserve(fact_var_.size());
  for (const auto& [fid, var] : fact_var_) {
    FactId nid = remap.Apply(fid);
    if (nid == Database::kNoFact) {
      solver_.AddClause({Literal{var, false}});
    } else {
      next.emplace(nid, var);
    }
  }
  fact_var_.swap(next);

  // Member lists stay sorted: the remap is monotone on survivors.
  for (auto& [hash, state] : blocks_) {
    std::size_t keep = 0;
    for (FactId m : state.members) {
      FactId nid = remap.Apply(m);
      if (nid != Database::kNoFact) state.members[keep++] = nid;
    }
    state.members.resize(keep);
  }
}

std::size_t IncrementalFalsifier::MemoryEstimateBytes() const {
  std::size_t bytes = sizeof(IncrementalFalsifier);
  bytes += solver_.ArenaWords() * sizeof(std::uint32_t);
  bytes += solver_.num_vars() * 32;  // Per-var solver columns, roughly.
  bytes += fact_var_.size() * (sizeof(FactId) + sizeof(std::uint32_t) + 16);
  bytes += pair_clauses_.size() * (sizeof(std::uint64_t) + 16);
  for (const auto& [hash, state] : blocks_) {
    bytes += sizeof(hash) + sizeof(BlockState) +
             state.key.size() * sizeof(ElementId) +
             state.members.size() * sizeof(FactId);
  }
  return bytes;
}

}  // namespace cqa
