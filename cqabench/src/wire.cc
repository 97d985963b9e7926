// The untraced end-to-end run: one client thread drives the real serving
// path (server::Client -> socketpair -> server::Server, 1 or 2 workers,
// -> cqa::Service) as a closed loop with a small in-flight window, and
// checks every response against the workload's expected answers.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "base/check.h"
#include "bench.h"
#include "server/client.h"
#include "server/server.h"

namespace cqabench {
namespace {

namespace server = cqa::server;

bool SameSpecs(const std::vector<cqa::FactSpec>& a,
               const std::vector<cqa::FactSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].relation != b[i].relation || a[i].args != b[i].args) return false;
  }
  return true;
}

/// An untraced run repeats rounds until its seconds are spent, and at
/// least this many.
constexpr std::size_t kMinRounds = 5;

/// A round that lost at most this share of the machine's vCPU time to
/// steal is calm; see RunWire.
constexpr double kMaxCalmSteal = 0.01;

/// Steal time of the whole machine so far, in vCPU-seconds: time its
/// vCPUs had work but the hypervisor ran something else (the eighth
/// number of the "cpu" line of /proc/stat, in clock ticks).
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double field = 0.0;
  stat >> label;
  for (int i = 0; i < 8 && stat >> field; ++i) {
  }
  return stat ? field / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

/// One live Service behind a Server, with a connected client.
struct Stack {
  std::unique_ptr<cqa::Service> service;
  std::unique_ptr<server::Server> server;
  server::Client client;

  void Stop() {
    client.Close();
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
  }
};

/// The client side of the closed loop: sends ops with at most `window`
/// in flight (never two on one database), records latencies, and checks
/// every response.
class Driver {
 public:
  /// Timed latencies go to `round`, which may be null when nothing is
  /// timed.
  Driver(const Workload& workload, server::Client* client, WireStats* stats,
         RoundStats* round = nullptr)
      : workload_(workload), client_(client), stats_(stats), round_(round),
        busy_(workload.db_names().size(), 0) {}

  /// Sends `op`, first collecting responses until the window has room
  /// and its database is idle. `timed` selects whether its latency is a
  /// sample. False if the connection failed.
  bool Submit(const Op& op, bool timed) {
    while (inflight_.size() >= workload_.window() || busy_[op.db] != 0) {
      if (!Collect()) return false;
    }
    server::Request req;
    req.request_id = next_id_++;
    req.db_name = workload_.db_names()[op.db];
    if (op.kind == Op::Kind::kSolve) {
      const QuerySpec& q = workload_.queries()[op.query];
      req.query_text = q.text;
      req.forced_backend = q.forced_backend;
      req.want_witness = op.want_witness;
    } else {
      req.mutation_kind = op.kind == Op::Kind::kInsert
                              ? server::MutationKind::kInsert
                              : server::MutationKind::kDelete;
      req.mutation = *op.facts;
    }
    Pending pending{op, timed, Clock::time_point{}, 0};
    if (op.kind == Op::Kind::kSolve) {
      pending.solve_index = stats_->solve_counts.size();
      stats_->solve_counts.emplace_back();
    }
    ++stats_->attempted;
    ++busy_[op.db];
    pending.sent = Clock::now();
    if (!client_->Send(req).ok()) {
      Fail("send failed");
      return false;
    }
    inflight_.emplace(req.request_id, std::move(pending));
    return true;
  }

  /// Collects every outstanding response.
  bool Drain() {
    while (!inflight_.empty()) {
      if (!Collect()) return false;
    }
    return true;
  }

  /// Verifies every distinct witness seen (off the clock); each solve
  /// that returned a failing one counts as failed.
  void VerifyWitnesses() {
    for (auto& [key, seen] : witnesses_) {
      const cqa::Database* db = workload_.StateDatabase(key.first, key.second);
      const std::string& text =
          workload_.queries()[seen.query].text;
      for (Seen::Entry& entry : seen.entries) {
        stats_->witnesses_checked += entry.count;
        if (db == nullptr || !WitnessHolds(text, *db, entry.specs)) {
          stats_->failed += entry.count;
          Note("witness failed verification on " +
               workload_.db_names()[key.first]);
        }
      }
    }
  }

 private:
  struct Pending {
    Op op;
    bool timed;
    Clock::time_point sent;
    std::size_t solve_index;
  };
  struct Seen {
    struct Entry {
      std::vector<cqa::FactSpec> specs;
      std::uint64_t count = 0;
    };
    std::uint32_t query = 0;
    std::vector<Entry> entries;
  };

  bool Collect() {
    cqa::StatusOr<server::Response> resp = client_->Receive();
    Clock::time_point now = Clock::now();
    if (!resp.ok()) {
      Fail("receive failed: " + resp.status().ToString());
      return false;
    }
    auto it = inflight_.find(resp->request_id);
    if (it == inflight_.end()) {
      Fail("response to an unknown request id");
      return false;
    }
    Pending pending = std::move(it->second);
    inflight_.erase(it);
    --busy_[pending.op.db];
    const Op& op = pending.op;
    bool solve = op.kind == Op::Kind::kSolve;
    if (pending.timed) {
      (solve ? round_->solve_micros : round_->mutate_micros)
          .push_back(MicrosBetween(pending.sent, now));
    }
    if (resp->code != cqa::StatusCode::kOk) {
      ++stats_->failed;
      Note("status " + std::string(cqa::ToString(resp->code)) +
           ": " + resp->message);
      return true;
    }
    if (!solve) {
      if (!resp->mutated) {
        ++stats_->failed;
        Note("mutation not acknowledged as applied");
      }
      return true;
    }
    stats_->solve_counts[pending.solve_index] = {
        resp->certain, resp->components_total, resp->components_cached};
    if (resp->certain != op.expect_certain) {
      ++stats_->failed;
      Note("wrong verdict on " + workload_.db_names()[op.db] + ": got " +
           (resp->certain ? "certain" : "not certain"));
      return true;
    }
    if (resp->has_witness) {
      if (resp->certain) {
        ++stats_->failed;
        Note("witness attached to a certain answer");
        return true;
      }
      Remember(op, std::move(resp->witness));
    }
    return true;
  }

  /// Keeps one copy per distinct witness of a database state; identical
  /// ones only bump a count (they are verified once, after the phase).
  void Remember(const Op& op, std::vector<cqa::FactSpec> specs) {
    Seen& seen = witnesses_[{op.db, op.state}];
    seen.query = op.query;
    for (Seen::Entry& entry : seen.entries) {
      if (SameSpecs(entry.specs, specs)) {
        ++entry.count;
        return;
      }
    }
    seen.entries.push_back({std::move(specs), 1});
  }

  void Fail(const std::string& message) {
    ++stats_->failed;
    Note(message);
  }
  void Note(const std::string& message) {
    if (stats_->failures.size() < 8) stats_->failures.push_back(message);
  }

  const Workload& workload_;
  server::Client* client_;
  WireStats* stats_;
  RoundStats* round_;
  std::vector<int> busy_;
  std::unordered_map<std::uint64_t, Pending> inflight_;
  std::uint64_t next_id_ = 1;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Seen> witnesses_;
};

/// Builds a Service, installs the workload's databases (register, or
/// recover when durable) and connects a client through a Server with
/// the workload's worker count. `fresh` holds the databases to register (built off the clock).
Stack StartStack(const Workload& workload, const std::string& data_dir,
                 std::vector<std::pair<std::string, cqa::Database>> fresh) {
  Stack stack;
  stack.service = std::make_unique<cqa::Service>(workload.Options(data_dir));
  for (auto& [name, db] : fresh) {
    CQA_CHECK(stack.service->RegisterDatabase(name, std::move(db)).ok());
  }
  if (workload.durable()) {
    for (const std::string& name : workload.db_names()) {
      CQA_CHECK(stack.service->RecoverDatabase(name).ok());
    }
  }
  server::ServerOptions options;
  options.num_workers = workload.workers();
  stack.server = std::make_unique<server::Server>(*stack.service, options);
  int client_fd = -1;
  int server_fd = -1;
  CQA_CHECK(server::LocalSocketPair(&client_fd, &server_fd).ok());
  CQA_CHECK(stack.server->ServeFd(server_fd).ok());
  stack.client = server::Client::FromFd(client_fd);
  return stack;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

}  // namespace

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      pct * static_cast<double>(values.size()) + 0.999999);
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  return values[rank - 1];
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

WireStats RunWirePhase(const Workload& workload, const std::string& work_dir,
                       double seconds, std::size_t min_rounds) {
  WireStats stats;
  const std::string data_dir = work_dir + "/wire-data";
  // Every round starts from the same workload state: the one right after
  // the durable state was written (that advances the stream).
  std::unique_ptr<Workload> initial = workload.Clone();
  std::filesystem::remove_all(data_dir);
  if (initial->durable()) initial->WriteDurableState(data_dir);
  const std::string state_dir = work_dir + "/wire-state";
  if (initial->durable()) {
    std::filesystem::remove_all(state_dir);
    std::filesystem::copy(data_dir, state_dir,
                          std::filesystem::copy_options::recursive);
  }

  Clock::time_point run_start = Clock::now();
  const Clock::duration budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  while (stats.rounds.size() < min_rounds ||
         Clock::now() - run_start < budget) {
    // Off the clock: a fresh copy of the stream and of the on-disk state.
    std::unique_ptr<Workload> round = initial->Clone();
    if (round->durable()) {
      std::filesystem::remove_all(data_dir);
      std::filesystem::copy(state_dir, data_dir,
                            std::filesystem::copy_options::recursive);
    }
    std::vector<std::pair<std::string, cqa::Database>> fresh =
        round->FreshDatabases();

    // Set-up: Service construction -> every database has given one
    // correct wire answer.
    double steal_before = StealSeconds();
    Clock::time_point round_start = Clock::now();
    Clock::time_point start = round_start;
    Stack stack = StartStack(*round, data_dir, std::move(fresh));
    Driver setup(*round, &stack.client, &stats);
    for (const Op& op : round->SetupOps()) {
      if (!setup.Submit(op, /*timed=*/false)) break;
    }
    bool ok = setup.Drain();
    stats.setup_seconds.push_back(SecondsBetween(start, Clock::now()));

    // The request phase: a closed loop over the next RoundOps() requests,
    // then every outstanding response is collected.
    RoundStats rs;
    Driver driver(*round, &stack.client, &stats, &rs);
    start = Clock::now();
    for (std::size_t sent = 0; ok && sent < round->RoundOps();) {
      ok = driver.Submit(round->Next(), /*timed=*/true);
      if (++sent == round->MemoryOps() && stats.rounds.empty()) {
        stats.rss_mib = PeakRssMiB();
      }
    }
    if (ok) driver.Drain();
    Clock::time_point end = Clock::now();
    rs.seconds = SecondsBetween(start, end);
    rs.steal_share = (StealSeconds() - steal_before) /
                     (SecondsBetween(round_start, end) *
                      std::max(1u, std::thread::hardware_concurrency()));
    stack.Stop();
    setup.VerifyWitnesses();
    driver.VerifyWitnesses();
    stats.rounds.push_back(std::move(rs));
    if (!ok) break;
  }
  if (stats.rss_mib == 0.0) stats.rss_mib = PeakRssMiB();
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(state_dir);
  return stats;
}

RunResult RunWire(const RunConfig& config) {
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload, config.seed);
  workload->PlantWrongVerdict(config.plant_wrong_verdict);
  WireStats stats =
      RunWirePhase(*workload, config.work_dir, config.seconds, kMinRounds);

  // Each metric but setup_s is the mean, over the kept rounds, of that
  // round's figure; setup_s is the median of the kept rounds' set-ups.
  // The mean, not the median: a host that slows by ~1.4x for stretches
  // of a fraction of a second puts each round's p50 and p90 in one of two
  // modes. A median over rounds jumps between the modes when half of the
  // rounds change mode; a mean moves in proportion to how many did
  // (README, noise record).
  //
  // A round whose vCPUs were taken away (steal time) measures the host,
  // not the program. The kept rounds are those whose steal share is at
  // most the run's median steal share or kMaxCalmSteal, whichever is
  // larger: at least half of the rounds, and every round of a calm run.
  // Which rounds those are is read from the kernel's steal counter, never
  // from the round's own figures.
  std::vector<double> steal_all;
  for (const RoundStats& r : stats.rounds) steal_all.push_back(r.steal_share);
  const double steal_limit =
      std::max(kMaxCalmSteal, Percentile(steal_all, 0.5));
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < stats.rounds.size(); ++i) {
    if (stats.rounds[i].steal_share <= steal_limit) kept.push_back(i);
  }
  std::vector<double> solve_p50, solve_p90, solve_p99, mutate_p50,
      mutate_p90, mutate_p99, throughput, setup, steal_kept;
  std::uint64_t solves = 0;
  std::uint64_t mutations = 0;
  for (std::size_t i : kept) {
    const RoundStats& r = stats.rounds[i];
    setup.push_back(stats.setup_seconds[i]);
    steal_kept.push_back(r.steal_share);
    solve_p50.push_back(Percentile(r.solve_micros, 0.5));
    solve_p90.push_back(Percentile(r.solve_micros, 0.9));
    solve_p99.push_back(Percentile(r.solve_micros, 0.99));
    mutate_p50.push_back(Percentile(r.mutate_micros, 0.5));
    mutate_p90.push_back(Percentile(r.mutate_micros, 0.9));
    mutate_p99.push_back(Percentile(r.mutate_micros, 0.99));
    std::size_t requests = r.solve_micros.size() + r.mutate_micros.size();
    throughput.push_back(static_cast<double>(requests) / r.seconds);
    solves += r.solve_micros.size();
    mutations += r.mutate_micros.size();
  }
  RunResult result;
  result.attempted = stats.attempted;
  result.failed = stats.failed;
  result.correct = stats.failed == 0;
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 std::uint64_t samples) {
    result.metrics.push_back({name, value, unit, samples});
  };
  add("solve_p50_us", Mean(solve_p50), "us", solves);
  add("solve_p90_us", Mean(solve_p90), "us", solves);
  add("mutate_p50_us", Mean(mutate_p50), "us", mutations);
  add("throughput_rps", Mean(throughput), "1/s", solves + mutations);
  add("setup_s", Percentile(setup, 0.5), "s", setup.size());
  add("rss_peak_mb", stats.rss_mib, "MiB", 1);

  char line[256];
  std::snprintf(line, sizeof(line),
                "not gated, means of %zu rounds: solve_p99_us %.1f "
                "(n=%llu), mutate_p90_us %.1f, mutate_p99_us %.1f (n=%llu)",
                kept.size(), Mean(solve_p99),
                static_cast<unsigned long long>(solves), Mean(mutate_p90),
                Mean(mutate_p99),
                static_cast<unsigned long long>(mutations));
  result.notes.push_back(line);
  auto samples = [&](const char* label, const std::vector<double>& values,
                     const char* format) {
    std::string text = label;
    for (double v : values) {
      std::snprintf(line, sizeof(line), format, v);
      text += line;
    }
    result.notes.push_back(text);
  };
  std::snprintf(line, sizeof(line),
                "rounds: %zu run, %zu kept; median steal share %.4f of the "
                "kept, %.4f of all",
                stats.rounds.size(), kept.size(), Percentile(steal_kept, 0.5),
                Percentile(steal_all, 0.5));
  result.notes.push_back(line);
  samples("all rounds' steal share:", steal_all, " %.3f");
  samples("kept rounds' setup_s:", setup, " %.4f");
  samples("kept rounds' solve_p50_us:", solve_p50, " %.0f");
  samples("kept rounds' solve_p90_us:", solve_p90, " %.0f");
  samples("kept rounds' mutate_p50_us:", mutate_p50, " %.1f");
  samples("kept rounds' throughput_rps:", throughput, " %.0f");
  std::snprintf(line, sizeof(line), "witnesses checked %llu",
                static_cast<unsigned long long>(stats.witnesses_checked));
  result.notes.push_back(line);
  for (const std::string& f : stats.failures) result.notes.push_back("FAILED: " + f);
  return result;
}

}  // namespace cqabench
