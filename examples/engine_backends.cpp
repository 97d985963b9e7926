// engine_backends: tour of the engine layer through the Service facade.
//
//   ./build/engine_backends ["query"]
//
// Classifies the query, shows which backend the dichotomy dispatches to,
// runs every registered backend that supports the query on one random
// instance (forcing each via CompileOptions::forced_backend — backends
// that cannot answer the query surface a CAPABILITY_MISMATCH status), and
// finishes by timing a serial loop of Service::Solve over 64 random
// instances.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "api/service.h"
#include "base/rng.h"
#include "gen/workloads.h"

int main(int argc, char** argv) {
  using namespace cqa;
  const char* text = argc > 1 ? argv[1] : "R(x | y, z) R(z | x, y)";

  Service service;
  StatusOr<CompiledQuery> q = service.Compile(text);
  if (!q.ok()) {
    std::fprintf(stderr, "error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("query:     %s\n", q->text().c_str());
  std::printf("class:     %s\n",
              ToString(q->classification().query_class).c_str());
  std::printf("dispatch:  %s (backend \"%s\")\n\n",
              ToString(q->algorithm()).c_str(),
              std::string(q->backend_name()).c_str());

  Rng rng(2024);
  InstanceParams params;
  params.num_facts = 24;
  params.domain_size = 4;
  Database db = RandomInstance(q->query(), params, &rng);
  std::printf("one random instance (%zu facts, %zu blocks):\n",
              db.NumFacts(), db.blocks().size());
  for (const std::string& name : Service::BackendNames()) {
    CompileOptions forced;
    forced.forced_backend = name;
    StatusOr<CompiledQuery> fq = service.Compile(text, forced);
    if (!fq.ok()) {
      std::printf("  %-15s (%s)\n", name.c_str(),
                  std::string(ToString(fq.status().code())).c_str());
      continue;
    }
    StatusOr<SolveReport> report = service.Solve(*fq, db);
    if (!report.ok()) {
      std::printf("  %-15s (%s)\n", name.c_str(),
                  report.status().ToString().c_str());
      continue;
    }
    std::printf("  %-15s -> %s%s\n", name.c_str(),
                report->certain ? "certain" : "not certain",
                report->witness.has_value() ? "  [witness attached]" : "");
  }

  std::vector<Database> dbs;
  for (int i = 0; i < 64; ++i) {
    dbs.push_back(RandomInstance(q->query(), params, &rng));
  }
  std::size_t certain = 0;
  std::size_t failed = 0;
  auto start = std::chrono::steady_clock::now();
  for (const Database& each : dbs) {
    StatusOr<SolveReport> r = service.Solve(*q, each);
    if (!r.ok()) {
      ++failed;
    } else if (r->certain) {
      ++certain;
    }
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf(
      "\nserial: %zu databases in %.3fs (%.0f queries/sec), "
      "%zu certain, %zu failed\n",
      dbs.size(), seconds, seconds > 0.0 ? dbs.size() / seconds : 0.0,
      certain, failed);
  return 0;
}
