// bench_churn: sustained insert/delete/solve churn against one registered
// database — the ROADMAP's long-lived high-churn deployment in miniature.
//
// Compaction experiment: alternating delete/insert over a fixed live
// set, with automatic tombstone compaction off vs on. Reports
// mutations/sec, solves/sec, and the peak resident fact-slot count (off:
// slots grow with every re-insert; on: bounded by alive/(1-dead_ratio)).
//
// Custom main (not google-benchmark): the experiment needs peak-stat
// polling and an A/B over ServiceOptions, which fit a plain main()
// better than the fixture API.
//
//   ./bench_churn [--smoke] [--facts=N] [--ops=N]
//
// --smoke shrinks everything for CI artifact runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/service.h"
#include "bench_json.h"

namespace cqa {
namespace {

struct Config {
  std::size_t facts = 10000;   // Live facts in the database.
  std::size_t ops = 100000;    // Mutations per experiment.
  bool smoke = false;
  std::string label = "adhoc";  // Run label in BENCH_churn.json.
  std::string out_dir;          // BENCH file directory ("" = repo root).
};

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Disjoint two-fact inconsistent components for q3 = R(x | y) R(y | z):
/// block {R(a|b), R(a|c)} per index.
std::string Name(const char* stem, std::size_t i) {
  return stem + std::to_string(i);
}

Database BuildDatabase(const Schema& schema, std::size_t components) {
  Database db(schema);
  for (std::size_t i = 0; i < components; ++i) {
    db.AddFactNamed(0, {Name("a", i), Name("b", i)});
    db.AddFactNamed(0, {Name("a", i), Name("c", i)});
  }
  return db;
}

// ---------------------------------------------------------------------
// Compaction on vs off under alternating delete/insert.
// ---------------------------------------------------------------------

void RunCompactionExperiment(const Config& config, bool compaction,
                             std::FILE* out, bench::BenchJsonWriter* writer) {
  ServiceOptions options;
  options.compact_dead_ratio = compaction ? 0.4 : 2.0;  // >=1 disables.
  options.compact_min_slots = 256;
  Service service(options);
  auto q = service.Compile("R(x | y) R(y | z)");
  if (!q.ok()) {
    std::fprintf(stderr, "compile: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  std::size_t components = config.facts / 2;
  (void)service.RegisterDatabase(
      "db", BuildDatabase(q->query().schema(), components));

  std::uint64_t peak_slots = 0;
  std::uint64_t compactions = 0;
  std::uint64_t solves = 0;
  double solve_seconds = 0.0;
  auto start = std::chrono::steady_clock::now();
  for (std::size_t op = 0; op < config.ops; op += 2) {
    std::size_t i = (op / 2) % components;
    FactSpec spec{"R", {Name("a", i), Name("c", i)}};
    MutationStats stats;
    (void)service.DeleteFacts("db", {spec}, &stats);
    (void)service.InsertFacts("db", {spec}, &stats);
    compactions += stats.compactions;
    if ((op / 2) % 64 == 0) {
      auto solve_start = std::chrono::steady_clock::now();
      auto report = service.Solve(*q, "db");
      solve_seconds += Seconds(solve_start);
      ++solves;
      if (!report.ok()) std::exit(1);
      ServiceStats snapshot = service.Stats();
      peak_slots = std::max(peak_slots, snapshot.databases[0].fact_slots);
    }
  }
  double elapsed = Seconds(start);
  ServiceStats stats = service.Stats();
  std::fprintf(
      out,
      "compaction=%-3s  mutations/sec=%9.0f  solves/sec=%7.1f  "
      "peak_slots=%8llu  final_slots=%8llu  alive=%llu  compactions=%llu\n",
      compaction ? "on" : "off",
      static_cast<double>(config.ops) / (elapsed - solve_seconds),
      static_cast<double>(solves) / solve_seconds,
      static_cast<unsigned long long>(peak_slots),
      static_cast<unsigned long long>(stats.databases[0].fact_slots),
      static_cast<unsigned long long>(stats.databases[0].alive_facts),
      static_cast<unsigned long long>(compactions));
  bench::BenchEntry entry;
  entry.name = std::string("compaction/") + (compaction ? "on" : "off");
  entry.variant = "churn";
  entry.wall_seconds = elapsed;
  entry.iterations = config.ops;
  entry.counters = {
      {"mutations_per_sec",
       static_cast<double>(config.ops) / (elapsed - solve_seconds)},
      {"solves_per_sec", static_cast<double>(solves) / solve_seconds},
      {"peak_slots", static_cast<double>(peak_slots)},
      {"final_slots", static_cast<double>(stats.databases[0].fact_slots)},
      {"alive", static_cast<double>(stats.databases[0].alive_facts)},
      {"compactions", static_cast<double>(compactions)},
  };
  writer->Add(std::move(entry));
}

void Run(const Config& config) {
  std::FILE* out = stdout;
  bench::BenchJsonWriter writer("churn", config.label);
  std::fprintf(out, "bench_churn: facts=%zu ops=%zu%s\n\n", config.facts,
               config.ops, config.smoke ? " (smoke)" : "");

  std::fprintf(out, "tombstone compaction (single-threaded churn)\n");
  RunCompactionExperiment(config, /*compaction=*/false, out, &writer);
  RunCompactionExperiment(config, /*compaction=*/true, out, &writer);

  std::string path = writer.WriteMerged(config.out_dir);
  std::fprintf(out, "\nwrote %s (label=%s, %zu entries)\n", path.c_str(),
               config.label.c_str(), writer.entries().size());
}

}  // namespace
}  // namespace cqa

int main(int argc, char** argv) {
  // Line-buffer stdout so the nightly CI tee shows progress live.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  cqa::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strncmp(arg, "--facts=", 8) == 0) {
      config.facts = std::strtoull(arg + 8, nullptr, 10);
    } else if (std::strncmp(arg, "--ops=", 6) == 0) {
      config.ops = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "--label=", 8) == 0) {
      config.label = arg + 8;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      config.out_dir = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--facts=N] [--ops=N] [--label=L] "
                   "[--out=DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  if (config.smoke) {
    config.facts = std::min<std::size_t>(config.facts, 2000);
    config.ops = std::min<std::size_t>(config.ops, 20000);
  }
  cqa::Run(config);
  return 0;
}
