#include "engine/solver.h"

#include <chrono>
#include <string>
#include <utility>

#include "base/check.h"
#include "data/prepared.h"
#include "query/eval.h"

namespace cqa {
namespace {

/// The dichotomy dispatch: which built-in backend answers each class.
std::string_view BackendNameFor(QueryClass query_class) {
  switch (query_class) {
    case QueryClass::kTrivial:
      return "trivial";
    case QueryClass::kPTimeCert2:
    case QueryClass::kSjfFirstOrder:
    case QueryClass::kSjfPTime:
      // [3] shows Cert_2 captures all PTime self-join-free two-atom cases;
      // Theorem 6.1 covers the self-join ones.
      return "cert2";
    case QueryClass::kPTimeNoTripath:
      return "certk";
    case QueryClass::kPTimeTriangleOnly:
      return "certk+matching";
    case QueryClass::kCoNPHardCondition:
    case QueryClass::kCoNPForkTripath:
    case QueryClass::kSjfCoNPComplete:
    case QueryClass::kUnresolved:
      return "exhaustive";
  }
  CQA_CHECK_MSG(false, "unhandled query class");
}

}  // namespace

StatusOr<CertainSolver> CertainSolver::Create(ConjunctiveQuery query,
                                              const SolverOptions& options) {
  // The two-atom gate: the classifier and every backend assume it, and
  // query text is user input, so reject it like a parse error.
  if (query.NumAtoms() != 2) {
    return Status(StatusCode::kInvalidQuery,
                  "certain answering covers Boolean queries with exactly two "
                  "atoms; got " + std::to_string(query.NumAtoms()) +
                      (query.NumAtoms() == 1 ? " atom in " : " atoms in ") +
                      query.ToString());
  }
  Classification classification =
      ClassifyQuery(query, options.tripath_limits);
  std::string_view name = options.forced_backend.empty()
                              ? BackendNameFor(classification.query_class)
                              : std::string_view(options.forced_backend);
  std::unique_ptr<CertainBackend> backend =
      MakeBackend(name, options.practical_k);
  // forced_backend is user input; reject it like the parser rejects bad
  // query text rather than aborting.
  if (backend == nullptr) {
    std::string known;
    for (const std::string& n : BackendNames()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status(StatusCode::kUnknownBackend,
                  "unknown certain-answer backend \"" + std::string(name) +
                      "\" (built-in: " + known + ")");
  }
  if (!backend->Prepare(query)) {
    return Status(StatusCode::kCapabilityMismatch,
                  "backend \"" + std::string(name) +
                      "\" cannot answer query " + query.ToString());
  }
  return CertainSolver(std::move(query), std::move(classification),
                       std::move(backend));
}

CertainSolver::CertainSolver(ConjunctiveQuery query,
                             Classification classification,
                             std::unique_ptr<CertainBackend> backend)
    : query_(std::move(query)),
      classification_(std::move(classification)),
      backend_(std::move(backend)) {}

StatusOr<SolveReport> CertainSolver::Solve(const Database& db,
                                           bool want_witness) const {
  Status bound = ValidateBinding(query_, db);
  if (!bound.ok()) return bound;
  auto prepare_start = std::chrono::steady_clock::now();
  PreparedDatabase pdb(db);
  std::chrono::duration<double> prepare_time =
      std::chrono::steady_clock::now() - prepare_start;
  SolveReport report = ReportHeader(classification_, *backend_, pdb);
  auto solve_start = std::chrono::steady_clock::now();
  report.certain = backend_->Answer(pdb, want_witness, &report.witness);
  std::chrono::duration<double> solve_time =
      std::chrono::steady_clock::now() - solve_start;
  report.timings.prepare_seconds = prepare_time.count();
  report.timings.solve_seconds = solve_time.count();
  return report;
}

}  // namespace cqa
