// The six built-in certain-answer backends and the fixed table that
// names them.

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algo/certk.h"
#include "algo/combined.h"
#include "algo/exhaustive.h"
#include "algo/trivial.h"
#include "base/check.h"
#include "engine/backend.h"
#include "query/hom.h"
#include "reduction/sat_reduction.h"
#include "sat/cdcl.h"

namespace cqa {
namespace {

/// Common Prepare bookkeeping: all built-in backends answer two-atom
/// queries bound once at prepare time.
class TwoAtomBackend : public CertainBackend {
 public:
  bool Prepare(const ConjunctiveQuery& query) override {
    CQA_CHECK_MSG(!query_.has_value(), "Prepare called twice");
    if (query.NumAtoms() != 2) return false;
    query_.emplace(query);
    return PrepareImpl(*query_);
  }

 protected:
  virtual bool PrepareImpl(const ConjunctiveQuery&) { return true; }

  const ConjunctiveQuery& query() const {
    CQA_CHECK_MSG(query_.has_value(), "Solve before Prepare");
    return *query_;
  }

 private:
  std::optional<ConjunctiveQuery> query_;
};

class TrivialScanBackend : public TwoAtomBackend {
 public:
  std::string_view name() const override { return "trivial"; }
  SolverAlgorithm algorithm() const override {
    return SolverAlgorithm::kTrivialScan;
  }
  bool Solve(const PreparedDatabase& pdb) const override {
    return TrivialCertain(query(), reason_, pdb);
  }
  bool CanExplain() const override { return true; }
  std::optional<Repair> Explain(const PreparedDatabase& pdb) const override {
    return TrivialFalsifyingRepair(query(), reason_, pdb);
  }

 protected:
  bool PrepareImpl(const ConjunctiveQuery& q) override {
    reason_ = ClassifyTrivial(q);
    return reason_ != TrivialReason::kNotTrivial;
  }

 private:
  TrivialReason reason_ = TrivialReason::kNotTrivial;
};

class Cert2Backend : public TwoAtomBackend {
 public:
  std::string_view name() const override { return "cert2"; }
  SolverAlgorithm algorithm() const override { return SolverAlgorithm::kCert2; }
  bool Solve(const PreparedDatabase& pdb) const override {
    return CertK(query(), pdb, 2);
  }
};

class CertKBackend : public TwoAtomBackend {
 public:
  explicit CertKBackend(std::uint32_t k) : k_(k) {}
  std::string_view name() const override { return "certk"; }
  SolverAlgorithm algorithm() const override { return SolverAlgorithm::kCertK; }
  bool Solve(const PreparedDatabase& pdb) const override {
    return CertK(query(), pdb, k_);
  }

 private:
  std::uint32_t k_;
};

class CertKOrMatchingBackend : public TwoAtomBackend {
 public:
  explicit CertKOrMatchingBackend(std::uint32_t k) : k_(k) {}
  std::string_view name() const override { return "certk+matching"; }
  SolverAlgorithm algorithm() const override {
    return SolverAlgorithm::kCertKOrMatching;
  }
  bool Solve(const PreparedDatabase& pdb) const override {
    return CombinedCertain(query(), pdb, k_);
  }

 private:
  std::uint32_t k_;
};

class ExhaustiveBackend : public TwoAtomBackend {
 public:
  std::string_view name() const override { return "exhaustive"; }
  SolverAlgorithm algorithm() const override {
    return SolverAlgorithm::kExhaustive;
  }
  bool Solve(const PreparedDatabase& pdb) const override {
    return ExhaustiveCertain(query(), pdb);
  }
  bool CanExplain() const override { return true; }
  std::optional<Repair> Explain(const PreparedDatabase& pdb) const override {
    return FindFalsifyingRepair(query(), pdb);
  }
};

/// Warm per-component session of the sat backend: an LRU pool of
/// IncrementalFalsifier instances, one per component lineage, keyed by a
/// content *anchor* — the (relation, key) hash of the smallest member's
/// block. Element ids are immutable and block keys survive compaction, so
/// the anchor is stable where fact ids are not; and because a falsifier's
/// encoding is exact for whatever component it is handed (see its class
/// comment), a wrong pairing (component merged, split, or anchor hash
/// collision) costs only warmth, never correctness.
class SatSession : public ComponentSession {
 public:
  SatSession(ConjunctiveQuery query, const CacheOptions& cache_options,
             const CdclOptions& solver_options)
      : query_(std::move(query)),
        cache_(cache_options),
        solver_options_(solver_options) {}

  ComponentVerdict SolveComponent(const PreparedDatabase& pdb,
                                  const DynamicComponents& components,
                                  const std::vector<FactId>& members,
                                  bool want_witness) override {
    const Database& db = pdb.db();
    FactId min_f = *std::min_element(members.begin(), members.end());
    std::size_t anchor =
        HashRelationKey(db.fact(min_f).relation, db.KeyViewOf(min_f));

    std::shared_ptr<IncrementalFalsifier> falsifier;
    if (std::shared_ptr<IncrementalFalsifier>* hit = cache_.Find(anchor)) {
      falsifier = *hit;
    } else {
      falsifier = std::make_shared<IncrementalFalsifier>(solver_options_);
    }
    ComponentVerdict v;
    v.certain = falsifier->SolveComponent(pdb, components, members,
                                          want_witness ? &v.witness : nullptr);
    // (Re-)insert with a fresh byte estimate; salvage the counters of any
    // solver the insertion evicts so session stats stay cumulative.
    cache_.InsertWithEvictions(
        anchor, falsifier, falsifier->MemoryEstimateBytes(),
        [this](const std::size_t&,
               const std::shared_ptr<IncrementalFalsifier>& evicted) {
          retired_ += evicted->stats();
        });
    return v;
  }

  void ApplyRemap(const FactIdRemap& remap) override {
    // Anchors are content hashes — no rekeying, only the held fact ids.
    cache_.ForEach([&](const std::size_t&,
                       const std::shared_ptr<IncrementalFalsifier>& f) {
      f->ApplyRemap(remap);
    });
  }

  CdclStats Stats() const override {
    CdclStats total = retired_;
    cache_.ForEach([&](const std::size_t&,
                       const std::shared_ptr<IncrementalFalsifier>& f) {
      total += f->stats();
    });
    return total;
  }

  CacheCounters CacheStats() const override { return cache_.Counters(); }

  void AuditInto(const PreparedDatabase& pdb,
                 AuditReport& report) const override {
    SolutionSet solutions = ComputeSolutions(query_, pdb);
    cache_.ForEach([&](const std::size_t&,
                       const std::shared_ptr<IncrementalFalsifier>& f) {
      f->AuditInto(solutions, pdb, report);
    });
  }

 private:
  ConjunctiveQuery query_;
  LruCache<std::size_t, std::shared_ptr<IncrementalFalsifier>> cache_;
  CdclOptions solver_options_;
  CdclStats retired_;  ///< Counters of evicted falsifiers.
};

class SatBackend : public TwoAtomBackend {
 public:
  std::string_view name() const override { return "sat"; }
  SolverAlgorithm algorithm() const override { return SolverAlgorithm::kSat; }
  bool Solve(const PreparedDatabase& pdb) const override {
    return !Explain(pdb).has_value();
  }
  bool CanExplain() const override { return true; }
  std::optional<Repair> Explain(const PreparedDatabase& pdb) const override {
    SolutionSet solutions = ComputeSolutions(query(), pdb);
    CnfFormula falsifier = EncodeFalsifierCnf(solutions, pdb);
    SatResult sat = SolveCdcl(falsifier);
    if (!sat.satisfiable) return std::nullopt;
    // CNF variables are fact ids; the at-least-one clauses guarantee a
    // true fact in every block, and restricting the satisfying assignment
    // to one true fact per block stays solution-free (see
    // EncodeFalsifierCnf), so any such restriction is a falsifying repair.
    std::vector<std::uint32_t> choice(pdb.blocks().size(), 0);
    for (BlockId b = 0; b < pdb.blocks().size(); ++b) {
      const std::vector<FactId>& facts = pdb.blocks()[b].facts;
      auto chosen = std::find_if(facts.begin(), facts.end(),
                                 [&sat](FactId f) { return sat.assignment[f]; });
      CQA_CHECK_MSG(chosen != facts.end(),
                    "satisfying assignment misses a block");
      choice[b] = static_cast<std::uint32_t>(chosen - facts.begin());
    }
    return Repair(&pdb.db(), std::move(choice));
  }
  std::unique_ptr<ComponentSession> NewSession(
      const CacheOptions& cache_options,
      const CdclOptions& solver_options) const override {
    return std::make_unique<SatSession>(query(), cache_options,
                                        solver_options);
  }
};

/// The built-in backends by name, in lexicographic order.
struct BackendEntry {
  std::string_view name;
  std::unique_ptr<CertainBackend> (*make)(std::uint32_t practical_k);
};

const BackendEntry kBackends[] = {
    {"cert2", [](std::uint32_t) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<Cert2Backend>();
     }},
    {"certk", [](std::uint32_t k) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<CertKBackend>(k);
     }},
    {"certk+matching", [](std::uint32_t k) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<CertKOrMatchingBackend>(k);
     }},
    {"exhaustive", [](std::uint32_t) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<ExhaustiveBackend>();
     }},
    {"sat", [](std::uint32_t) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<SatBackend>();
     }},
    {"trivial", [](std::uint32_t) -> std::unique_ptr<CertainBackend> {
       return std::make_unique<TrivialScanBackend>();
     }},
};

}  // namespace

std::unique_ptr<CertainBackend> MakeBackend(std::string_view name,
                                            std::uint32_t practical_k) {
  for (const BackendEntry& entry : kBackends) {
    if (entry.name == name) return entry.make(practical_k);
  }
  return nullptr;
}

std::vector<std::string> BackendNames() {
  std::vector<std::string> names;
  for (const BackendEntry& entry : kBackends) names.emplace_back(entry.name);
  return names;
}

std::string ToString(SolverAlgorithm a) {
  switch (a) {
    case SolverAlgorithm::kTrivialScan: return "trivial per-block scan";
    case SolverAlgorithm::kCert2: return "Cert_2 greedy fixpoint";
    case SolverAlgorithm::kCertK: return "Cert_k greedy fixpoint";
    case SolverAlgorithm::kCertKOrMatching:
      return "Cert_k OR NOT matching";
    case SolverAlgorithm::kExhaustive: return "exhaustive falsifier search";
    case SolverAlgorithm::kSat: return "falsifier CNF + CDCL";
  }
  return "?";
}

}  // namespace cqa
