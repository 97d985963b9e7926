// Pluggable certain-answer backends.
//
// A backend is one algorithm for answering certain(q): it is bound to a
// query once (Prepare) and then answers any number of prepared databases
// (Solve). The uniform interface makes the dichotomy's algorithms
// interchangeable and benchmarkable against each other, and lets the
// dispatcher (engine/solver.h) and the incremental solver
// (engine/incremental.h) treat them opaquely.
//
// Thread-safety contract: after Prepare returns, Solve must be const and
// safe to call concurrently from multiple threads on distinct
// PreparedDatabase instances. All built-in backends keep their per-call
// state on the stack.

#ifndef CQA_ENGINE_BACKEND_H_
#define CQA_ENGINE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/lru.h"
#include "data/prepared.h"
#include "data/repair.h"
#include "query/query.h"
#include "sat/cdcl.h"

namespace cqa {

struct AuditReport;       // data/audit.h
class DynamicComponents;  // algo/dynamic_components.h

/// Which algorithm actually answered.
enum class SolverAlgorithm {
  kTrivialScan,
  kCert2,
  kCertK,
  kCertKOrMatching,
  kExhaustive,
  kSat,
};

std::string ToString(SolverAlgorithm a);

/// Verdict of one in-place component solve through a warm session.
struct ComponentVerdict {
  bool certain = false;
  /// When not certain and a witness was requested: one chosen fact per
  /// component block (parent-database ids), jointly a falsifying repair
  /// of the component. Empty otherwise.
  std::vector<FactId> witness;
};

/// A per-database warm-solver session: state a backend keeps alive across
/// repeated component solves of one mutating database (e.g. the sat
/// backend's per-component incremental CDCL solvers, which retain learned
/// clauses across mutations). Sessions solve components *in place* over
/// the parent database — no sub-database materialization.
///
/// Not internally synchronized: the engine serializes all calls on one
/// session instance (IncrementalSolver calls it under the solver lock,
/// LockRank::kComponents).
class ComponentSession {
 public:
  virtual ~ComponentSession() = default;

  /// Decides certainty of the component `members` of `components`, the
  /// settled (every delta absorbed) q-connected partition of pdb.db(),
  /// whose partner index a session may probe for facts it has not seen.
  /// Repeated calls across mutations of the same database are the point;
  /// results must equal the backend's Solve/Explain on the materialized
  /// component, whatever earlier solves left in the session.
  virtual ComponentVerdict SolveComponent(const PreparedDatabase& pdb,
                                          const DynamicComponents& components,
                                          const std::vector<FactId>& members,
                                          bool want_witness) = 0;

  /// Mirrors a Database::Compact (ApplyRemap protocol): every held FactId
  /// must be rewritten before the next SolveComponent.
  virtual void ApplyRemap(const FactIdRemap& remap) = 0;

  /// Aggregated solver counters over the session's lifetime (including
  /// solvers that have since been evicted from its internal cache).
  virtual CdclStats Stats() const = 0;

  /// Counters of the session's warm-solver cache.
  virtual CacheCounters CacheStats() const = 0;

  /// Deep-audits the session's retained state against pdb.db() into
  /// `report` (data/audit.h).
  virtual void AuditInto(const PreparedDatabase& pdb,
                         AuditReport& report) const = 0;
};

/// One certain-answer algorithm behind a uniform prepare/solve interface.
class CertainBackend {
 public:
  virtual ~CertainBackend() = default;

  /// Backend name, e.g. "cert2" (see MakeBackend).
  virtual std::string_view name() const = 0;

  /// Provenance tag reported in SolveReport::algorithm.
  virtual SolverAlgorithm algorithm() const = 0;

  /// Binds the backend to a query. Must be called exactly once, before any
  /// Solve. Returns false if the backend cannot answer this query (e.g.
  /// the trivial scan on a query that is not one-atom-equivalent).
  virtual bool Prepare(const ConjunctiveQuery& query) = 0;

  /// Decides certain(query) on a prepared database. Exactness depends on
  /// the backend and the query's dichotomy class; every built-in backend
  /// is at least sound (a true answer implies certainty).
  virtual bool Solve(const PreparedDatabase& pdb) const = 0;

  /// True if Explain is implemented. For such backends Explain is an
  /// exact replacement for Solve (certain iff no witness), so callers
  /// wanting a witness ask Explain once instead of Solve + Explain.
  virtual bool CanExplain() const { return false; }

  /// Optional witness hook: a repair of pdb.db() that falsifies the query,
  /// i.e. the evidence behind a Solve(pdb) == false answer. Backends that
  /// cannot exhibit one (the Cert_k family decides via a fixpoint, not a
  /// repair) return nullopt; so does every backend when the answer is
  /// certain. The returned Repair points into pdb.db() and is valid while
  /// that database lives. Same thread-safety contract as Solve.
  virtual std::optional<Repair> Explain(const PreparedDatabase& pdb) const {
    (void)pdb;
    return std::nullopt;
  }

  /// The one Explain-or-Solve decision every caller shares: when a
  /// witness is wanted and the backend can explain, one Explain pass
  /// answers both questions (certain iff no falsifier; the falsifier
  /// lands in *witness), never Solve *and* Explain, which would double
  /// the expensive searches. Otherwise Solve answers and *witness is left
  /// as it was.
  bool Answer(const PreparedDatabase& pdb, bool want_witness,
              std::optional<Repair>* witness) const {
    if (!want_witness || !CanExplain()) return Solve(pdb);
    *witness = Explain(pdb);
    return !witness->has_value();
  }

  /// Optional warm-session hook: a backend that can amortize state across
  /// repeated component solves returns a fresh session (cache caps bound
  /// its per-component solver pool; solver_options tunes each solver's
  /// clause-DB reduction cadence); backends without one return nullptr
  /// and the engine falls back to materialized Solve/Explain calls.
  virtual std::unique_ptr<ComponentSession> NewSession(
      const CacheOptions& cache_options,
      const CdclOptions& solver_options) const {
    (void)cache_options;
    (void)solver_options;
    return nullptr;
  }
};

/// Makes the built-in backend called `name`, unprepared; the Cert_k-based
/// ones run at `practical_k`. nullptr when no backend has that name. The
/// six built-ins (engine/backends.cc):
///   cert2           Cert_2 greedy fixpoint (Theorem 6.1 classes)
///   certk           Cert_k at `practical_k` (Theorem 8.1)
///   certk+matching  Cert_k OR NOT matching (Theorem 10.5)
///   exhaustive      backtracking falsifier search (exact, exponential)
///   sat             falsifier-existence CNF solved by CDCL (exact,
///                   exponential; cross-checks `exhaustive`)
///   trivial         per-block pattern scan (exact on trivial queries)
std::unique_ptr<CertainBackend> MakeBackend(std::string_view name,
                                            std::uint32_t practical_k);

/// The built-in backend names in lexicographic order (the
/// forced_backend vocabulary).
std::vector<std::string> BackendNames();

}  // namespace cqa

#endif  // CQA_ENGINE_BACKEND_H_
