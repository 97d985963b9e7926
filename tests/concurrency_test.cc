// TSan-friendly stress for the per-solver locking scheme: cache-filling
// solves from many threads must agree and fill the verdict cache exactly
// once per component, and mutations on disjoint key spaces
// interleaved with solves (and automatic compactions) must linearize —
// the final state is the one big sequential history would produce, and
// every intermediate report is internally consistent; ad-hoc solves of
// caller-owned databases from caller threads match a serial pass. Run
// under -fsanitize=thread in CI (label: concurrency).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/witness.h"
#include "base/rng.h"
#include "gen/workloads.h"

namespace cqa {
namespace {

/// `count` disjoint two-fact components for q3 = R(x | y) R(y | z): the
/// block {R(a<i>|b<i>), R(a<i>|c<i>)} has no outgoing solution partner,
/// so every repair falsifies the query — each component is non-certain
/// and witness-bearing, and components never link across indices.
Database ManyComponents(const Schema& schema, int count,
                        const std::string& ns) {
  Database db(schema);
  for (int i = 0; i < count; ++i) {
    std::string a = ns + "a" + std::to_string(i);
    db.AddFactNamed(0, {a, ns + "b" + std::to_string(i)});
    db.AddFactNamed(0, {a, ns + "c" + std::to_string(i)});
  }
  return db;
}

TEST(ConcurrencyTest, ParallelCacheFillingSolvesAgreeAndFillOnce) {
  Service service;
  // Forced exhaustive: explain-capable, so cached verdicts carry their
  // component witnesses and the merged whole-database witness verifies.
  StatusOr<CompiledQuery> q = service.Compile(
      "R(x | y) R(y | z)", CompileOptions{"exhaustive", false});
  ASSERT_TRUE(q.ok());
  const int kComponents = 64;
  ASSERT_TRUE(service
                  .RegisterDatabase(
                      "db", ManyComponents(q->query().schema(), kComponents,
                                           ""))
                  .ok());

  const int kThreads = 8;
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        StatusOr<SolveReport> report = service.Solve(*q, "db");
        if (!report.ok() || report->certain ||
            report->components_total != kComponents ||
            report->components_resolved + report->components_cached !=
                report->components_total) {
          ++wrong;
          continue;
        }
        resolved += report->components_resolved;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // The solver lock serializes fills: every component is resolved by
  // exactly one thread; everyone else reuses its verdict.
  EXPECT_EQ(resolved.load(), static_cast<std::uint64_t>(kComponents));

  StatusOr<SolveReport> final_report = service.Solve(*q, "db");
  ASSERT_TRUE(final_report.ok());
  EXPECT_EQ(final_report->components_cached,
            static_cast<std::uint64_t>(kComponents));
  ASSERT_TRUE(final_report->witness.has_value());
  Status verified =
      VerifyWitness(q->query(), *final_report->witness->database(),
                    *final_report->witness);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

// Mutators own disjoint element namespaces (so disjoint blocks and
// q-connected components); solvers and a stats poller run against the
// same database throughout, with compaction triggering aggressively.
// Disjoint mutations commute, so the final content is deterministic:
// delta state and answers must match a from-scratch rebuild.
TEST(ConcurrencyTest, DisjointMutationsSolvesAndCompactionsLinearize) {
  ServiceOptions options;
  options.compact_dead_ratio = 0.2;  // Compact often mid-stress.
  options.compact_min_slots = 32;
  options.verdict_cache = CacheOptions{256, 0};
  Service service(options);
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());

  const int kMutators = 4;
  const int kSolvers = 3;
  const int kPerThread = 12;  // Components per mutator namespace.
  const int kRounds = 40;

  Database db(q->query().schema());
  for (int t = 0; t < kMutators; ++t) {
    Database part = ManyComponents(q->query().schema(), kPerThread,
                                   "t" + std::to_string(t) + "_");
    for (FactId f = 0; f < part.NumFacts(); ++f) {
      FactRef fact = part.fact(f);
      std::vector<std::string> names;
      for (ElementId el : fact.args) {
        names.push_back(part.elements().Name(el));
      }
      db.AddFactNamed(fact.relation, names);
    }
  }
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&, t] {
      std::string ns = "t" + std::to_string(t) + "_";
      for (int round = 0; round < kRounds; ++round) {
        int i = round % kPerThread;
        // Delete and re-insert one of this namespace's components' facts:
        // net content change zero per full round, constant churn.
        FactSpec spec{"R", {ns + "a" + std::to_string(i),
                            ns + "c" + std::to_string(i)}};
        if (!service.DeleteFacts("db", {spec}).ok()) ++failures;
        if (!service.InsertFacts("db", {spec}).ok()) ++failures;
      }
    });
  }
  for (int s = 0; s < kSolvers; ++s) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        StatusOr<SolveReport> report = service.Solve(*q, "db");
        if (!report.ok()) {
          ++failures;
          continue;
        }
        // Internal consistency of every mid-stress report.
        if (report->components_resolved + report->components_cached !=
            report->components_total) {
          ++failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      ServiceStats stats = service.Stats();
      if (stats.databases.size() != 1) ++failures;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Deterministic final state: every namespace ran whole delete+insert
  // rounds, so the content equals the initial content.
  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_EQ(stats.databases[0].alive_facts,
            static_cast<std::uint64_t>(kMutators * kPerThread * 2));
  EXPECT_GT(stats.databases[0].compactions, 0u);
  // The slot bound survived concurrent churn: alive/(1-r) plus slack for
  // batches applied between trigger checks.
  EXPECT_LE(stats.databases[0].fact_slots,
            stats.databases[0].alive_facts * 2);

  StatusOr<SolveReport> delta = service.Solve(*q, "db");
  ASSERT_TRUE(delta.ok());
  Database rebuild(q->query().schema());
  for (int t = 0; t < kMutators; ++t) {
    Database part = ManyComponents(q->query().schema(), kPerThread,
                                   "t" + std::to_string(t) + "_");
    for (FactId f = 0; f < part.NumFacts(); ++f) {
      FactRef fact = part.fact(f);
      std::vector<std::string> names;
      for (ElementId el : fact.args) {
        names.push_back(part.elements().Name(el));
      }
      rebuild.AddFactNamed(fact.relation, names);
    }
  }
  StatusOr<SolveReport> fresh = service.Solve(*q, rebuild);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(delta->certain, fresh->certain);
  EXPECT_EQ(delta->num_facts, fresh->num_facts);
  EXPECT_EQ(delta->num_blocks, fresh->num_blocks);
}

// Solver-map eviction racing live solves: more distinct queries than the
// solver cache holds, solved from many threads, must never crash or
// misanswer (evicted solvers finish their in-flight solve on their own
// shared_ptr reference).
TEST(ConcurrencyTest, SolverEvictionUnderConcurrentSolves) {
  ServiceOptions options;
  options.solver_cache = CacheOptions{2, 0};  // Tiny: constant eviction.
  Service service(options);
  // Four distinct solver-map keys (text or backend differs) that all bind
  // to the same R(arity 2, key 1) schema.
  std::vector<CompiledQuery> compiled;
  for (const auto& [text, backend] :
       std::vector<std::pair<const char*, const char*>>{
           {"R(x | y) R(y | z)", ""},
           {"R(x | y) R(y | z)", "exhaustive"},
           {"R(x | y) R(y | z)", "sat"},
           {"R(x | y) R(y | y)", ""}}) {
    StatusOr<CompiledQuery> q =
        service.Compile(text, CompileOptions{backend, false});
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    compiled.push_back(*q);
  }
  Database db(compiled[0].query().schema());
  for (int i = 0; i < 20; ++i) {
    db.AddFactNamed(0, {"a" + std::to_string(i), "b" + std::to_string(i)});
  }
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 30; ++round) {
        const CompiledQuery& q = compiled[(t + round) % 4];
        StatusOr<SolveReport> report = service.Solve(q, "db");
        if (!report.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_LE(stats.databases[0].solvers.entries, 2u);
  EXPECT_GT(stats.databases[0].solvers.evictions, 0u);
}

// Ad-hoc solves of caller-owned databases take no Service lock, so
// parallel callers run them from their own threads. Four threads solve
// distinct, never-prepared databases (each builds its own lazy block
// partition) for every dispatch class of the catalog plus a forced "sat";
// every answer and algorithm must equal a serial pass's.
TEST(ConcurrencyTest, AdHocSolvesFromCallerThreadsMatchSerial) {
  struct Case {
    const char* text;
    const char* forced_backend;
  };
  const Case kCases[] = {
      {"R(x, u | x, v) R(v, y | u, y)", ""},     // q1: coNP (condition).
      {"R(x, u | x, y) R(u, y | x, z)", ""},     // q2: coNP (fork-tripath).
      {"R(x | y) R(y | z)", ""},                 // q3: Cert_2.
      {"R(x | y, x) R(y | x, u)", ""},           // q5: Cert_k, no tripath.
      {"R(x | y, z) R(z | x, y)", ""},           // q6: Cert_k OR NOT matching.
      {"R(x | y) R(y | y)", ""},                 // trivial (hom).
      {"R(x, u | x, y) R(u, y | x, z)", "sat"},  // q2, forced CDCL.
  };
  const int kThreads = 4;
  const int kDbsPerThread = 6;
  Service service;
  for (const Case& c : kCases) {
    StatusOr<CompiledQuery> q =
        service.Compile(c.text, CompileOptions{c.forced_backend, false});
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Rng rng(0xAD40C);
    InstanceParams params;
    params.num_facts = 12;
    params.domain_size = 3;
    std::vector<Database> dbs;
    for (int i = 0; i < kThreads * kDbsPerThread; ++i) {
      dbs.push_back(RandomInstance(q->query(), params, &rng));
    }

    struct Answer {
      bool ok = false;
      bool certain = false;
      SolverAlgorithm algorithm = SolverAlgorithm::kExhaustive;
    };
    auto answer = [&](const Database& db) {
      StatusOr<SolveReport> report = service.Solve(*q, db);
      return report.ok() ? Answer{true, report->certain, report->algorithm}
                         : Answer{};
    };
    std::vector<Answer> parallel(dbs.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < dbs.size(); i += kThreads) {
          parallel[i] = answer(dbs[i]);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    for (std::size_t i = 0; i < dbs.size(); ++i) {
      Answer serial = answer(dbs[i]);
      ASSERT_TRUE(serial.ok && parallel[i].ok) << c.text << " db#" << i;
      EXPECT_EQ(parallel[i].certain, serial.certain) << c.text << " db#" << i;
      EXPECT_EQ(parallel[i].algorithm, serial.algorithm)
          << c.text << " db#" << i;
    }
  }
}

}  // namespace
}  // namespace cqa
