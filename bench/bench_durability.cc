// Durability cost benchmark: what WAL logging and fsync policy do to
// mutation throughput, and what recovery costs cold vs warm.
//
//   ./bench_durability [--smoke] [--batches=N] [--label=L] [--out=DIR]
//
// Two experiments, both through the public cqa::Service API:
//
//   [1] Mutation throughput: the same seeded insert/delete batch program
//       against (a) durability off, (b) WAL + fsync per batch (the
//       acknowledged-means-durable guarantee), (c) WAL + batched fsync
//       (interval 32), (d) WAL + fsync only at snapshots. The spread
//       between (a) and (b) is the price of the guarantee; (c)/(d) show
//       what relaxing it buys.
//
//   [2] Recovery time: reopen the database written by (b) from its
//       snapshot + WAL tail, then time the first solve — once with the
//       persisted verdict cache deleted (cold: every component re-runs
//       the backend) and once with it in place (warm: the solve is pure
//       cache merge). The delta is what verdict persistence is worth.
//
// Emits BENCH_durability.json (bench/bench_json.h). --smoke shrinks the
// program for the main-CI artifact run; the nightly job runs full size.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "base/check.h"
#include "base/rng.h"
#include "bench_json.h"
#include "store/io.h"
#include "store/store.h"

namespace cqa {
namespace {

constexpr const char* kQueryText = "R(x | y) R(y | z)";
constexpr const char* kDbName = "bench";

struct Config {
  std::size_t batches = 20000;
  std::string label = "after";
  std::string out_dir;
  bool smoke = false;
};

struct Batch {
  bool is_insert = true;
  std::vector<FactSpec> facts;
};

// The seeded program: inserts with periodic deletes, sized so snapshots
// and compactions both trigger. The domain is partitioned into groups
// and every fact stays within one group, so the database decomposes
// into many small q-connected components — the shape where the verdict
// cache matters (one giant component would make the warm/cold recovery
// contrast measure a single backend solve instead of the cache).
std::vector<Batch> BuildProgram(std::size_t n) {
  constexpr std::uint64_t kGroups = 150;
  constexpr std::uint64_t kGroupSize = 8;
  Rng rng(0xD04A11);
  std::vector<Batch> program;
  std::vector<FactSpec> alive;
  for (std::size_t b = 0; b < n; ++b) {
    Batch batch;
    batch.is_insert = alive.empty() || rng.Below(10) < 7;
    if (batch.is_insert) {
      std::uint64_t group = rng.Below(kGroups) * kGroupSize;
      auto element = [&](std::uint64_t i) {
        return "e" + std::to_string(group + i);
      };
      std::uint64_t count = 1 + rng.Below(4);
      for (std::uint64_t i = 0; i < count; ++i) {
        batch.facts.push_back(
            {"R", {element(rng.Below(kGroupSize)), element(rng.Below(kGroupSize))}});
      }
      for (const FactSpec& f : batch.facts) alive.push_back(f);
    } else {
      std::size_t pick = rng.Below(alive.size());
      batch.facts.push_back(alive[pick]);
      alive.erase(alive.begin() + pick);
    }
    program.push_back(std::move(batch));
  }
  return program;
}

Schema OneRelationSchema() {
  Schema schema;
  schema.AddRelation("R", 2, 1);
  return schema;
}

// Per-process, so two runs at once never share files; removed at the end.
std::string DataRoot() {
  return "/tmp/cqa_bench_durability_" + std::to_string(::getpid()) + "/";
}

std::string DataDir(const std::string& variant) { return DataRoot() + variant; }

ServiceOptions DurableOptions(const std::string& dir,
                              store::FsyncPolicy fsync) {
  ServiceOptions options;
  options.durability.enabled = true;
  options.durability.data_dir = dir;
  options.durability.fsync = fsync;
  options.durability.fsync_interval = 32;
  options.durability.snapshot_interval = 4096;
  return options;
}

// Applies the whole program; duplicate-insert and delete-of-absent
// batches can arise from the generator reusing names, so tolerate
// kNotFound on deletes (the generator's alive list and the database's
// set semantics drift when a fact is inserted twice).
void ApplyProgram(Service& service, const std::vector<Batch>& program) {
  for (const Batch& batch : program) {
    Status applied = batch.is_insert
                         ? service.InsertFacts(kDbName, batch.facts)
                         : service.DeleteFacts(kDbName, batch.facts);
    CQA_CHECK_MSG(applied.ok() || applied.code() == StatusCode::kNotFound,
                  applied.ToString().c_str());
  }
}

double RunMutationVariant(const std::vector<Batch>& program,
                          const std::string& variant, ServiceOptions options,
                          std::FILE* out, bench::BenchJsonWriter* writer) {
  Service service(options);
  CQA_CHECK(service.RegisterDatabase(kDbName, Database(OneRelationSchema()))
                .ok());
  bench::Measurement m =
      bench::Measure([&] { ApplyProgram(service, program); }, 0.0);
  // Measure runs the program at least once; batches scale per iteration.
  double per_sec =
      static_cast<double>(program.size()) * m.iterations / m.wall_seconds;

  ServiceStats stats = service.Stats();
  std::map<std::string, double> counters = {
      {"batches", static_cast<double>(program.size())},
      {"batches_per_sec", per_sec},
      {"alive_facts", static_cast<double>(stats.databases[0].alive_facts)},
      {"snapshots", static_cast<double>(stats.databases[0].snapshots)},
      {"wal_bytes", static_cast<double>(stats.databases[0].wal_bytes)},
  };
  for (const auto& [key, value] : m.hw_counters) counters[key] = value;

  bench::BenchEntry entry;
  entry.name = "mutations/batches=" + std::to_string(program.size());
  entry.variant = variant;
  entry.wall_seconds = m.wall_seconds;
  entry.iterations = m.iterations;
  entry.counters = std::move(counters);
  writer->Add(std::move(entry));

  std::fprintf(out, "  %-16s %10.0f batches/sec\n", variant.c_str(), per_sec);
  return per_sec;
}

void RunRecoveryExperiment(const std::string& dir, std::FILE* out,
                           bench::BenchJsonWriter* writer) {
  // Warm first (recovery consumes the verdict file read-only), then cold
  // by deleting the verdict files and reopening again. Each reopen uses
  // a fresh Service; the on-disk state is never modified, so the two
  // runs recover identical databases.
  for (bool warm : {true, false}) {
    if (!warm) {
      auto entries = store::ListDir(dir + "/bench");
      CQA_CHECK(entries.ok());
      for (const std::string& name : *entries) {
        if (name.rfind("verdicts-", 0) == 0) {
          CQA_CHECK(store::RemoveFile(dir + "/bench/" + name).ok());
        }
      }
    }
    Service service(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
    bench::Measurement open = bench::Measure(
        [&] { CQA_CHECK(service.RecoverDatabase(kDbName).ok()); }, 0.0);
    double recover_seconds = open.wall_seconds;
    auto q = service.Compile(kQueryText);
    CQA_CHECK(q.ok());
    std::uint64_t cached = 0;
    std::uint64_t total = 0;
    bench::Measurement solve = bench::Measure(
        [&] {
          auto report = service.Solve(*q, kDbName);
          CQA_CHECK(report.ok());
          cached = report->components_cached;
          total = report->components_total;
        },
        0.0);
    double solve_seconds = solve.wall_seconds;

    bench::BenchEntry entry;
    entry.name = "recovery/first_solve";
    entry.variant = warm ? "warm_verdicts" : "cold_verdicts";
    entry.wall_seconds = recover_seconds + solve_seconds;
    entry.iterations = 1;
    entry.counters = {
        {"recover_seconds", recover_seconds},
        {"first_solve_seconds", solve_seconds},
        {"components_total", static_cast<double>(total)},
        {"components_cached", static_cast<double>(cached)},
    };
    writer->Add(std::move(entry));
    std::fprintf(out,
                 "  %-14s recover %.3fs, first solve %.3fs (%llu/%llu "
                 "components cached)\n",
                 warm ? "warm verdicts" : "cold verdicts", recover_seconds,
                 solve_seconds, static_cast<unsigned long long>(cached),
                 static_cast<unsigned long long>(total));
  }
}

void Run(const Config& config) {
  std::FILE* out = stdout;
  bench::BenchJsonWriter writer("durability", config.label);
  std::vector<Batch> program = BuildProgram(config.batches);
  std::fprintf(out, "bench_durability: batches=%zu%s\n\n", program.size(),
               config.smoke ? " (smoke)" : "");

  std::fprintf(out, "[1] mutation throughput by durability mode\n");
  double off = RunMutationVariant(program, "durability_off",
                                  ServiceOptions{}, out, &writer);

  std::string fsync_dir = DataDir("fsync_batch");
  CQA_CHECK(store::RemoveDirRecursive(fsync_dir).ok());
  double every = RunMutationVariant(
      program, "fsync_per_batch",
      DurableOptions(fsync_dir, store::FsyncPolicy::kEveryBatch), out,
      &writer);

  std::string interval_dir = DataDir("fsync_interval");
  CQA_CHECK(store::RemoveDirRecursive(interval_dir).ok());
  double interval = RunMutationVariant(
      program, "fsync_interval32",
      DurableOptions(interval_dir, store::FsyncPolicy::kInterval), out,
      &writer);

  std::string none_dir = DataDir("fsync_none");
  CQA_CHECK(store::RemoveDirRecursive(none_dir).ok());
  double none = RunMutationVariant(
      program, "fsync_at_snapshot",
      DurableOptions(none_dir, store::FsyncPolicy::kNone), out, &writer);

  std::fprintf(out,
               "  guarantee cost: %.2fx off->fsync_per_batch; batched "
               "fsync recovers %.2fx, snapshot-only %.2fx\n",
               off / every, interval / every, none / every);

  // Seed the recovery experiment: one durable run with a warmed verdict
  // cache, checkpointed so the snapshot carries it, then "crashed".
  std::fprintf(out, "\n[2] recovery time, cold vs warm verdict cache\n");
  std::string recover_dir = DataDir("recover");
  CQA_CHECK(store::RemoveDirRecursive(recover_dir).ok());
  {
    Service service(
        DurableOptions(recover_dir, store::FsyncPolicy::kEveryBatch));
    CQA_CHECK(service.RegisterDatabase(kDbName, Database(OneRelationSchema()))
                  .ok());
    ApplyProgram(service, program);
    auto q = service.Compile(kQueryText);
    CQA_CHECK(q.ok());
    auto warm = service.Solve(*q, kDbName);
    CQA_CHECK(warm.ok());
    CQA_CHECK(service.CheckpointDatabase(kDbName).ok());
    // Die hard: nothing else reaches the disk.
    store::FaultPlan plan;
    plan.crash_at_op = 0;
    store::InstallFault(plan);
  }
  store::ClearFault();
  RunRecoveryExperiment(recover_dir, out, &writer);

  CQA_CHECK(store::RemoveDirRecursive(DataRoot()).ok());

  std::string path = writer.WriteMerged(config.out_dir);
  std::fprintf(out, "\nwrote %s (label=%s, %zu entries)\n", path.c_str(),
               config.label.c_str(), writer.entries().size());
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  cqa::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strncmp(arg, "--batches=", 10) == 0) {
      config.batches = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--label=", 8) == 0) {
      config.label = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      config.out_dir = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--batches=N] [--label=L] [--out=DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config.smoke) {
    config.batches = std::min<std::size_t>(config.batches, 1500);
  }
  cqa::Run(config);
  return 0;
}
