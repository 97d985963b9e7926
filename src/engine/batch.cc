#include "engine/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_set>

#include "data/prepared.h"
#include "query/eval.h"

namespace cqa {
namespace {

/// Runs `worker(job)` for jobs 0..num_jobs-1 on up to `num_threads`
/// threads (work stealing via a shared atomic cursor; workers write to
/// disjoint slots, so no further synchronization is needed). Returns the
/// number of threads actually used.
template <typename Worker>
std::uint32_t RunJobs(std::size_t num_jobs, std::uint32_t num_threads,
                      const Worker& worker) {
  std::atomic<std::size_t> next{0};
  auto loop = [&]() {
    for (;;) {
      std::size_t job = next.fetch_add(1, std::memory_order_relaxed);
      if (job >= num_jobs) return;
      worker(job);
    }
  };
  std::uint32_t spawned = static_cast<std::uint32_t>(
      std::min<std::size_t>(num_threads, num_jobs));
  if (spawned <= 1) {
    loop();
    return num_jobs == 0 ? 0 : 1;
  }
  std::vector<std::thread> pool;
  pool.reserve(spawned);
  for (std::uint32_t t = 0; t < spawned; ++t) pool.emplace_back(loop);
  for (std::thread& t : pool) t.join();
  return spawned;
}

void FillStats(BatchStats* stats, std::uint32_t threads_used,
               std::uint64_t queries,
               std::chrono::steady_clock::time_point start) {
  if (stats == nullptr) return;
  auto elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start);
  stats->threads_used = threads_used;
  stats->queries = queries;
  stats->wall_seconds = elapsed.count();
  stats->queries_per_sec =
      stats->wall_seconds > 0.0
          ? static_cast<double>(queries) / stats->wall_seconds
          : 0.0;
}

}  // namespace

BatchSolver::BatchSolver(const CertainSolver& solver, BatchOptions options)
    : solver_(&solver),
      num_threads_(options.num_threads),
      want_witness_(options.want_witness) {
  if (num_threads_ == 0) {
    num_threads_ = std::thread::hardware_concurrency();
    if (num_threads_ == 0) num_threads_ = 1;
  }
}

StatusOr<SolveReport> SolveDatabase(const CertainSolver& solver,
                                    const Database& db, bool want_witness) {
  Status bound = ValidateBinding(solver.query(), db);
  if (!bound.ok()) return bound;
  auto prepare_start = std::chrono::steady_clock::now();
  PreparedDatabase pdb(db);
  double prepare_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - prepare_start)
                               .count();
  SolveReport report = ExecuteReport(solver.classification(), solver.backend(),
                                     pdb, want_witness);
  report.timings.prepare_seconds = prepare_seconds;
  return report;
}

std::vector<StatusOr<SolveReport>> BatchSolver::SolveAllReports(
    const std::vector<const Database*>& dbs, BatchStats* stats) const {
  // Pre-screen null and duplicate pointers on the caller's thread (a
  // duplicate's lazy block index is a data race between workers); those
  // slots get their error here and are skipped by the workers, which
  // report schema mismatches per slot themselves.
  std::vector<std::optional<StatusOr<SolveReport>>> results(dbs.size());
  std::unordered_set<const Database*> seen;
  for (std::size_t i = 0; i < dbs.size(); ++i) {
    if (dbs[i] == nullptr) {
      results[i] = Status(StatusCode::kInvalidArgument,
                          "null database in batch slot " + std::to_string(i));
    } else if (!seen.insert(dbs[i]).second) {
      results[i] = Status(
          StatusCode::kInvalidArgument,
          "duplicate database pointer in batch slot " + std::to_string(i) +
              " (each job must own its lazy block index)");
    }
  }

  auto start = std::chrono::steady_clock::now();
  std::uint32_t spawned =
      RunJobs(dbs.size(), num_threads_, [&](std::size_t job) {
        if (results[job].has_value()) return;
        results[job] = SolveDatabase(*solver_, *dbs[job], want_witness_);
      });

  FillStats(stats, spawned,
            std::count_if(results.begin(), results.end(),
                          [](const auto& result) { return result->ok(); }),
            start);

  std::vector<StatusOr<SolveReport>> out;
  out.reserve(dbs.size());
  for (std::optional<StatusOr<SolveReport>>& result : results) {
    out.push_back(std::move(*result));
  }
  return out;
}

std::vector<StatusOr<SolveReport>> BatchSolver::SolveAllReports(
    const std::vector<Database>& dbs, BatchStats* stats) const {
  std::vector<const Database*> pointers;
  pointers.reserve(dbs.size());
  for (const Database& db : dbs) pointers.push_back(&db);
  return SolveAllReports(pointers, stats);
}

}  // namespace cqa
