// cqabench: the repository's end-to-end benchmark.
//
// A workload is a seeded generator of databases and of a request stream
// (solves and mutation batches) with the expected answer of every solve
// computed off the clock. Two runners consume it:
//
//   - wire.cc drives the real serving path, server::Client -> socketpair ->
//     server::Server (Workload::workers() workers) -> cqa::Service, as a
//     closed loop from one client thread, and reports the end-to-end metrics;
//   - replay.cc replays the same stream single-threaded and in-process,
//     through the codec, the Service, and a hand composition of the data,
//     store and engine layers, recording a span around every call, and
//     reports the per-layer metrics.

#ifndef CQABENCH_BENCH_H_
#define CQABENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/report.h"
#include "api/service.h"
#include "data/database.h"

namespace cqabench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One request of a workload's stream.
struct Op {
  enum class Kind : std::uint8_t { kSolve, kInsert, kDelete };
  Kind kind = Kind::kSolve;
  std::uint32_t db = 0;     ///< Index into Workload::db_names().
  std::uint32_t query = 0;  ///< Index into Workload::queries() (solves).
  bool want_witness = false;
  bool expect_certain = false;  ///< Solves: the answer computed off the clock.
  /// Solves: which content the database has (Workload::StateDatabase
  /// rebuilds it to check a returned witness). Mutations: unused.
  std::uint32_t state = 0;
  /// Mutations: the batch, shared with the generator's tables.
  std::shared_ptr<const std::vector<cqa::FactSpec>> facts;
};

/// A query as a client sends it: text plus the forced backend (empty
/// lets the dichotomy choose).
struct QuerySpec {
  std::string text;
  std::string forced_backend;
};

/// The observable outcome of one solve, as the wire or the replay saw it.
struct SolveCounts {
  bool certain = false;
  std::uint64_t components_total = 0;
  std::uint64_t components_cached = 0;
  bool operator==(const SolveCounts& o) const {
    return certain == o.certain && components_total == o.components_total &&
           components_cached == o.components_cached;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::vector<std::string>& db_names() const = 0;
  virtual const std::vector<QuerySpec>& queries() const = 0;
  /// Requests in flight on the connection (never two on one database).
  virtual std::size_t window() const = 0;
  /// Server worker threads. A workload with one request in flight uses
  /// one: a second worker would only toss a coin for which thread, and
  /// so which vCPU's caches, serves the next request.
  virtual std::uint32_t workers() const { return 2; }
  /// Service options, with `data_dir` as the durability root when the
  /// workload is durable.
  virtual cqa::ServiceOptions Options(const std::string& data_dir) const = 0;
  /// Durable workloads write the on-disk state the timed set-up recovers
  /// from (off the clock), into `data_dir`.
  virtual bool durable() const { return false; }
  virtual void WriteDurableState(const std::string& data_dir) {
    (void)data_dir;
  }
  /// Hands a fresh set of input databases to `install` for registration
  /// (built off the clock); empty for durable workloads, which recover.
  virtual std::vector<std::pair<std::string, cqa::Database>> FreshDatabases()
      const = 0;
  /// The solves that end the set-up: one cold solve per database.
  virtual std::vector<Op> SetupOps() const = 0;
  /// The next request of the seeded stream.
  virtual Op Next() = 0;
  /// The content of database `db` in `state`, for witness checks; null
  /// when the workload never expects a witness there.
  virtual const cqa::Database* StateDatabase(std::uint32_t db,
                                             std::uint32_t state) const {
    (void)db;
    (void)state;
    return nullptr;
  }
  /// Requests per round after the set-up solves; the traced replay
  /// covers the same number.
  virtual std::size_t RoundOps() const = 0;
  /// Requests of the first round after which the untraced run reads its
  /// peak RSS.
  virtual std::size_t MemoryOps() const = 0;
  /// A copy at the current position of the stream; each round runs on a
  /// fresh copy of the same state.
  virtual std::unique_ptr<Workload> Clone() const = 0;
  /// Plants a wrong expected answer on the `n`-th solve of the stream
  /// (self-test of the checker).
  void PlantWrongVerdict(std::uint64_t n) { plant_at_ = n; }

 protected:
  /// Applies the planted fault to a solve as Next() emits it.
  void MaybePlant(Op* op) {
    if (op->kind != Op::Kind::kSolve) return;
    if (solves_emitted_++ == plant_at_) op->expect_certain = !op->expect_certain;
  }

 private:
  std::uint64_t plant_at_ = ~std::uint64_t{0};
  std::uint64_t solves_emitted_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);
std::vector<std::string> WorkloadNames();

/// Checks a named witness against the database content it was computed
/// for: it must rebuild into a repair (WitnessFromSpecs) that falsifies
/// the query (VerifyWitness).
bool WitnessHolds(const std::string& query_text, const cqa::Database& db,
                  const std::vector<cqa::FactSpec>& witness);

// -- Results ---------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> values, double pct);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< Printed beside the value, not in the JSON.
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Printed before the JSON line.
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch space inside the checkout.
  std::uint64_t plant_wrong_verdict = ~std::uint64_t{0};
};

/// wire.cc: the untraced end-to-end run.
RunResult RunWire(const RunConfig& config);

/// The timed latencies of one round's request phase.
struct RoundStats {
  std::vector<double> solve_micros;
  std::vector<double> mutate_micros;
  double seconds = 0.0;
  /// Share of the vCPU time during the round (set-up and requests) that
  /// the hypervisor gave to other work (steal time, /proc/stat).
  double steal_share = 0.0;
};

/// The wire phase itself, shared with the traced run. It runs rounds
/// until `seconds` have passed and at least `min_rounds` are done. A
/// round starts from the same workload state each time: a fresh stack is
/// set up (timed), then the next RoundOps() requests of the stream are
/// sent. Every round is the same work, so the cost of a request does not
/// depend on how many requests a fast or slow host got through before it.
struct WireStats {
  std::vector<double> setup_seconds;  ///< One per round.
  std::vector<RoundStats> rounds;
  double rss_mib = 0.0;  ///< VmHWM after MemoryOps() requests of round 1.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t witnesses_checked = 0;
  /// Per solve, in stream order (each round's set-up solves first).
  std::vector<SolveCounts> solve_counts;
  std::vector<std::string> failures;  ///< First few, for the log.
};
WireStats RunWirePhase(const Workload& workload, const std::string& work_dir,
                       double seconds, std::size_t min_rounds);

/// replay.cc: the traced run.
RunResult RunTraced(const RunConfig& config);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB();

}  // namespace cqabench

#endif  // CQABENCH_BENCH_H_
