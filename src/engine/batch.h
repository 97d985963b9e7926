// BatchSolver: answers one prepared query on N databases with a fixed-size
// thread pool.
//
// The query is classified and its backend prepared exactly once (by the
// CertainSolver the batch is built around); each job then builds its own
// PreparedDatabase and solves independently. Answers are bit-identical to
// calling CertainSolver::Solve per database — the pool only changes the
// schedule, never the algorithm.
//
// Thread-safety: the bound backend's Solve/Explain are const and
// stateless, so one solver is shared across all workers. The Database
// objects themselves must be distinct per job (their lazy block index is
// forced from the worker thread that prepares them); a pointer passed
// twice is a per-slot error.

#ifndef CQA_ENGINE_BATCH_H_
#define CQA_ENGINE_BATCH_H_

#include <cstdint>
#include <vector>

#include "api/report.h"
#include "api/status.h"
#include "data/database.h"
#include "engine/solver.h"

namespace cqa {

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::uint32_t num_threads = 0;
  /// SolveAllReports: attach falsifying-repair witnesses to non-certain
  /// reports (backends without Explain still report no witness).
  bool want_witness = true;
};

/// Throughput accounting for one SolveAllReports call.
struct BatchStats {
  std::uint32_t threads_used = 0;
  std::uint64_t queries = 0;
  double wall_seconds = 0.0;
  double queries_per_sec = 0.0;
};

class BatchSolver {
 public:
  /// The solver must outlive the BatchSolver.
  explicit BatchSolver(const CertainSolver& solver, BatchOptions options = {});

  /// Answers every database: one report per database, in input order. A
  /// poisoned entry — null pointer, duplicate pointer (whose lazy block
  /// index two workers would race on), or a database whose schema cannot
  /// be bound to the query — yields an error Status in its slot and never
  /// takes down the rest of the batch. Non-certain answers carry the
  /// backend's falsifying-repair witness when it supports Explain.
  /// BatchStats counts only the slots actually solved.
  std::vector<StatusOr<SolveReport>> SolveAllReports(
      const std::vector<const Database*>& dbs,
      BatchStats* stats = nullptr) const;

  /// Convenience overload for owned databases.
  std::vector<StatusOr<SolveReport>> SolveAllReports(
      const std::vector<Database>& dbs, BatchStats* stats = nullptr) const;

  std::uint32_t num_threads() const { return num_threads_; }

 private:
  const CertainSolver* solver_;
  std::uint32_t num_threads_;
  bool want_witness_;
};

/// One ad-hoc database, start to finish: binds the query to its schema
/// (the binding error when it cannot), prepares it, runs the solver's
/// backend (ExecuteReport) and stamps the prepare timing. Every
/// SolveAllReports job and Service::Solve on a caller-owned database are
/// this call.
StatusOr<SolveReport> SolveDatabase(const CertainSolver& solver,
                                    const Database& db, bool want_witness);

}  // namespace cqa

#endif  // CQA_ENGINE_BATCH_H_
