// Top-level certain-answer solver: classifies the query once, then
// dispatches every database to the backend the dichotomy prescribes.
//
//   trivial            -> "trivial" (per-block pattern scan; exact, linear)
//   Theorem 6.1 class  -> "cert2" (exact)
//   no-tripath class   -> "certk" (exact for k at the Proposition 8.2
//                         bound; the configured practical k is used, which
//                         is exact on all workloads we generate and always
//                         sound)
//   triangle-only      -> "certk+matching" (Theorem 10.5)
//   coNP-hard classes  -> "exhaustive" (exact, exponential)
//   sjf classes        -> "cert2" for PTime/FO, "exhaustive" for coNP.
//
// The dichotomy, and so every backend, covers exactly the Boolean CQs
// with two atoms; Create rejects any other query before classifying it.
// Backends come from the fixed table of built-ins (MakeBackend in
// engine/backend.h); SolverOptions::forced_backend picks one by name
// instead of the dispatch (e.g. "sat", to cross-check "exhaustive"). A
// new backend is one more class and one more table row in
// engine/backends.cc.
//
// Two paths run the bound backend: Solve answers one caller-owned
// database whole (Service::Solve(q, db)), and IncrementalSolver
// (engine/incremental.h) answers a registered database component by
// component.

#ifndef CQA_ENGINE_SOLVER_H_
#define CQA_ENGINE_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "api/report.h"
#include "api/status.h"
#include "classify/classifier.h"
#include "data/database.h"
#include "engine/backend.h"
#include "query/query.h"

namespace cqa {

/// Options for the solver.
struct SolverOptions {
  /// Practical k for Cert_k in the no-tripath class. The theoretical bound
  /// of Proposition 8.2 (already 8 for key length 1) is exact but usually
  /// overkill; Cert_k is sound for every k.
  std::uint32_t practical_k = 4;
  TripathSearchLimits tripath_limits;
  /// When nonempty, bypass the dichotomy dispatch and answer every
  /// database with this built-in backend (e.g. "sat", "exhaustive").
  std::string forced_backend;
};

/// Classify-once, solve-many certain-answer engine for two-atom queries.
class CertainSolver {
 public:
  /// Exception-free construction: classifies the query and binds its
  /// backend. Errors: kInvalidQuery when `query` does not have exactly
  /// two atoms, kUnknownBackend when `options.forced_backend` names no
  /// built-in backend, kCapabilityMismatch when the chosen backend cannot
  /// answer `query`.
  [[nodiscard]] static StatusOr<CertainSolver> Create(
      ConjunctiveQuery query, const SolverOptions& options = {});

  /// Answers certain(query()) on a caller-owned database, start to
  /// finish: binds the query to db's schema (the binding error, e.g.
  /// kSchemaMismatch, when it cannot), prepares db, and runs the backend
  /// through CertainBackend::Answer, which attaches a falsifying repair
  /// when `want_witness`, the answer is not certain and the backend
  /// supports Explain. The report carries provenance, size counters and
  /// the prepare and solve timings; parse and classify timings are the
  /// caller's. Const and lock-free: safe from several threads on distinct
  /// databases, or on one whose block partition is already built
  /// (preparing builds db's lazy partition).
  [[nodiscard]] StatusOr<SolveReport> Solve(const Database& db,
                                            bool want_witness) const;

  const Classification& classification() const { return classification_; }
  const ConjunctiveQuery& query() const { return query_; }
  const CertainBackend& backend() const { return *backend_; }

 private:
  CertainSolver(ConjunctiveQuery query, Classification classification,
                std::unique_ptr<CertainBackend> backend);

  ConjunctiveQuery query_;
  Classification classification_;
  std::unique_ptr<CertainBackend> backend_;
};

}  // namespace cqa

#endif  // CQA_ENGINE_SOLVER_H_
