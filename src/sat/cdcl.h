// CDCL SAT solver: two-watched-literal propagation, first-UIP clause
// learning with non-chronological backjumping, VSIDS-style activity
// ordering with phase saving, and Luby restarts.
//
// The solver is persistent and incremental. A `CdclSolver` keeps its
// watched-literal structures, activity scores, saved phases, and learned
// clauses alive across calls: grow the variable space with `AddVars`, add
// clauses at any point between solves with `AddClause`, and decide
// satisfiability under a set of assumption literals with
// `SolveUnderAssumptions`. Assumptions are handled MiniSat-style, as
// pseudo-decisions at successive decision levels, so an UNSAT-under-
// assumptions answer leaves the clause database (and everything learned
// while refuting them) intact for the next call. Clauses cannot be
// removed, but a clause guarded by an activation literal `a` — encoded as
// `(~a v ...)` and enabled by assuming `a` — is retracted for good by
// adding the unit clause `~a`.
//
// The learned-clause database is kept bounded by LBD/activity-based
// reduction: every learned clause records its literal-block distance
// (number of distinct decision levels at learn time) and an activity
// bumped whenever the clause participates in conflict analysis. At
// restart boundaries, once enough conflicts have accumulated, the worst
// half (highest LBD, then lowest activity) is deleted and the arena is
// garbage-collected; "glue" clauses (LBD <= CdclOptions::glue_lbd) are
// kept forever. Reduction never changes any verdict — learned clauses
// are logical consequences, so deleting them only costs search time.
//
// This is the production satisfiability oracle behind the `sat` backend
// (engine/backends.cc) and the incremental per-component falsifier
// sessions (reduction/sat_reduction.h). The legacy one-shot entry point
// `SolveCdcl` remains as a thin wrapper that builds a fresh solver; the
// chronological DPLL (sat/dpll.h) is kept as an A/B baseline for the
// benchmarks and as a differential oracle in sat_test.

#ifndef CQA_SAT_CDCL_H_
#define CQA_SAT_CDCL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sat/cnf.h"
#include "sat/dpll.h"  // SatResult

namespace cqa {

/// Cumulative search counters of one CdclSolver (or one SolveCdcl call).
struct CdclStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned_clauses = 0;   ///< Total ever learned.
  std::uint64_t learned_literals = 0;
  std::uint64_t restarts = 0;

  // Incremental-lifecycle counters.
  std::uint64_t solves = 0;            ///< Solve/SolveUnderAssumptions calls.
  std::uint64_t warm_solves = 0;       ///< Solves after the first, i.e. calls
                                       ///< that reused a warm database.
  std::uint64_t learned_kept = 0;      ///< Gauge: learned clauses currently
                                       ///< in the database.
  std::uint64_t learned_deleted = 0;   ///< Total deleted by DB reduction.
  std::uint64_t db_reductions = 0;     ///< Reduction passes run.
  std::uint64_t clauses_retracted = 0; ///< Clauses retired by activation-
                                       ///< literal retraction (caller-counted
                                       ///< via NoteRetraction).

  CdclStats& operator+=(const CdclStats& o) {
    decisions += o.decisions;
    propagations += o.propagations;
    conflicts += o.conflicts;
    learned_clauses += o.learned_clauses;
    learned_literals += o.learned_literals;
    restarts += o.restarts;
    solves += o.solves;
    warm_solves += o.warm_solves;
    learned_kept += o.learned_kept;
    learned_deleted += o.learned_deleted;
    db_reductions += o.db_reductions;
    clauses_retracted += o.clauses_retracted;
    return *this;
  }
};

/// Tuning knobs. The defaults suit the falsifier workloads; tests lower
/// the reduction thresholds to force aggressive deletion churn.
struct CdclOptions {
  /// Conflicts accumulated before the first learned-DB reduction.
  std::uint64_t first_reduce_conflicts = 2000;
  /// Added to the threshold after every reduction (slows the cadence as
  /// the solver matures).
  std::uint64_t reduce_increment = 1000;
  /// Learned clauses with LBD <= glue_lbd are never deleted.
  std::uint32_t glue_lbd = 2;
  /// Luby restart unit (conflicts per base restart interval).
  std::uint64_t restart_base = 64;
};

/// A persistent incremental CDCL solver.
///
/// Not thread-safe; callers serialize access (the engine holds such
/// solvers under the incremental solver's lock, LockRank::kComponents).
class CdclSolver {
 public:
  explicit CdclSolver(CdclOptions options = CdclOptions());
  ~CdclSolver();
  CdclSolver(CdclSolver&&) noexcept;
  CdclSolver& operator=(CdclSolver&&) noexcept;
  CdclSolver(const CdclSolver&) = delete;
  CdclSolver& operator=(const CdclSolver&) = delete;

  /// Number of variables currently allocated.
  std::uint32_t num_vars() const;

  /// Grows the variable space by `n`; returns the index of the first new
  /// variable. Existing state is untouched.
  std::uint32_t AddVars(std::uint32_t n);

  /// Adds a clause (callable only between solves). Tautologies are
  /// dropped and duplicate/level-0-false literals removed. Returns false
  /// iff the solver is now (or already was) permanently unsatisfiable.
  bool AddClause(const Clause& clause);

  /// False once the clause set is unsatisfiable regardless of assumptions.
  bool ok() const;

  /// Decides satisfiability of the current clause set. Equivalent to
  /// SolveUnderAssumptions({}).
  bool Solve();

  /// Decides satisfiability under the given assumption literals. The
  /// clause database, learned clauses, scores, and phases persist across
  /// calls either way. Returns false if unsatisfiable under the
  /// assumptions (check ok() to distinguish permanent unsatisfiability).
  bool SolveUnderAssumptions(const std::vector<Literal>& assumptions);

  /// Value of `var` in the model of the last successful solve. Only valid
  /// after a solve that returned true, for vars allocated at that time.
  bool ValueOf(std::uint32_t var) const;

  const CdclStats& stats() const;

  /// Current size of the clause arena in 32-bit words (problem + learned
  /// clauses + headers). The clause-DB reduction keeps this bounded;
  /// cache byte-accounting and the soak memory assertions read it.
  std::size_t ArenaWords() const;

  /// Records `clauses` permanently retired via activation-literal units.
  /// The solver cannot see retraction itself — a `~a` unit looks like any
  /// other clause — so the encoder layer reports it for observability.
  void NoteRetraction(std::uint64_t clauses);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Decides satisfiability with conflict-driven clause learning. On a
/// satisfiable formula the returned assignment is total and verified
/// against the input (same contract as SolveDpll). Thin wrapper over a
/// fresh CdclSolver.
SatResult SolveCdcl(const CnfFormula& f, CdclStats* stats = nullptr);

}  // namespace cqa

#endif  // CQA_SAT_CDCL_H_
