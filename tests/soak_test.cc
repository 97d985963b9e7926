// Lifecycle soak (label: soak; excluded from the default ctest run,
// enabled with -DCQA_ENABLE_SOAK=ON): >=10k random mutations against one
// registered database with deliberately tight bounds, asserting
// throughout that
//   - the resident fact-slot count stays within the compaction bound,
//   - the verdict-cache entry count stays within CacheOptions.max_entries
//     and the solver map within its cap,
//   - delta-solve answers stay identical to rebuild-solve answers and
//     witnesses verify,
//   - under the sat backend with the clause-DB reduction thresholds
//     cranked low, the warm sessions' resident learned-clause count
//     (CdclStats::learned_kept) stays bounded across the whole churn —
//     reduction is actually shedding clauses, not just accumulating.
// The run is durable: every few hundred mutations the process
// "crashes" (a fault plan kills all further I/O, the Service is torn
// down mid-flight) and a fresh Service recovers the database from its
// WAL + snapshots — after which the recovered fact set must equal the
// shadow model exactly (fsync-per-batch: acknowledged means durable)
// and all of the bounds above keep holding across the reopen.
// This is the ISSUE's 100k-churn acceptance scenario scaled to a CI
// budget; bench_churn covers the full-size run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/witness.h"
#include "base/rng.h"
#include "engine/incremental.h"
#include "gen/workloads.h"
#include "scratch_dir.h"
#include "store/io.h"

namespace cqa {
namespace {

TEST(SoakTest, BoundsHoldAndAnswersMatchRebuildUnder10kMutations) {
  const char* kQueries[] = {
      "R(x | y) R(y | z)",         // cert2 dispatch.
      "R(x | y, z) R(z | x, y)",   // certk+matching dispatch.
  };
  const char* kForced[] = {"", "exhaustive", "sat"};
  // Generous ceiling for the resident learned-clause gauge: with
  // reduction thresholds of 20/10 and small sparse components, a warm
  // session that sheds clauses stays two orders of magnitude below this;
  // a session that never deletes would blow through it.
  const std::uint64_t kLearnedCeiling = 2048;

  for (int config = 0; config < 6; ++config) {
    const bool sat_config = (config % 3 == 2);
    ServiceOptions options;
    options.compact_dead_ratio = 0.4;
    options.compact_min_slots = 64;
    // Tight caps so eviction (not just compaction) is exercised: the
    // workload's component count exceeds the verdict bound.
    options.verdict_cache = CacheOptions{/*max_entries=*/160, /*max_bytes=*/0};
    options.solver_cache = CacheOptions{/*max_entries=*/4, /*max_bytes=*/0};
    // Small warm-solver pool (forces evictions + counter salvage) and
    // aggressive clause-DB reduction so the learned-memory bound below is
    // load-bearing, not vacuous.
    options.sat_solver_cache = CacheOptions{/*max_entries=*/32, /*max_bytes=*/0};
    options.sat_cdcl.first_reduce_conflicts = 20;
    options.sat_cdcl.reduce_increment = 10;
    options.sat_cdcl.restart_base = 16;
    // Durable, fsync-per-batch: the periodic simulated crashes below may
    // not lose a single acknowledged mutation.
    options.durability.enabled = true;
    options.durability.data_dir =
        FreshScratchDir("soak_" + std::to_string(config));
    options.durability.snapshot_interval = 256;
    auto service = std::make_unique<Service>(options);

    CompileOptions copts;
    copts.forced_backend = kForced[config % 3];
    StatusOr<CompiledQuery> q =
        service->Compile(kQueries[config / 3], copts);
    ASSERT_TRUE(q.ok()) << q.status().ToString();

    // A pool of candidate facts; roughly half present at any time.
    Rng rng(0x50A7 + config);
    InstanceParams params;
    params.num_facts = 400;
    params.domain_size = 40;  // Sparse: many small components.
    Database pool = RandomInstance(q->query(), params, &rng);
    std::vector<FactSpec> specs;
    for (FactId f = 0; f < pool.NumFacts(); ++f) {
      FactRef fact = pool.fact(f);
      FactSpec spec;
      spec.relation = pool.schema().Relation(fact.relation).name;
      for (ElementId el : fact.args) {
        spec.args.push_back(pool.elements().Name(el));
      }
      specs.push_back(std::move(spec));
    }
    std::vector<bool> present(specs.size(), false);

    Database initial(q->query().schema());
    for (std::size_t i = 0; i < specs.size() / 2; ++i) {
      RelationId rel = initial.schema().Find(specs[i].relation);
      initial.AddFactNamed(rel, specs[i].args);
      present[i] = true;
    }
    ASSERT_TRUE(service->RegisterDatabase("db", std::move(initial)).ok());

    const int kMutations = 2600;  // x6 configs > 15k total.
    std::uint64_t compactions = 0;
    std::uint64_t peak_slots = 0;
    std::uint64_t peak_verdicts = 0;
    std::uint64_t peak_learned = 0;
    // Eviction/CDCL counters are per-Service; the crash cycles below
    // replace the Service, so carry the counts across generations.
    std::uint64_t evictions_before_crashes = 0;
    CdclStats sat_before_crashes;
    for (int step = 0; step < kMutations; ++step) {
      std::size_t pick = rng.Below(specs.size());
      MutationStats mstats;
      Status applied =
          present[pick]
              ? service->DeleteFacts("db", {specs[pick]}, &mstats)
              : service->InsertFacts("db", {specs[pick]}, &mstats);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
      present[pick] = !present[pick];
      compactions += mstats.compactions;

      // Solve every few mutations so the verdict cache keeps turning
      // over; compare against a rebuild periodically (it is the
      // expensive part).
      if (step % 5 == 0) {
        StatusOr<SolveReport> delta = service->Solve(*q, "db");
        ASSERT_TRUE(delta.ok()) << delta.status().ToString();
        if (delta->witness.has_value()) {
          Status verified =
              VerifyWitness(q->query(), *delta->witness->database(),
                            *delta->witness);
          ASSERT_TRUE(verified.ok()) << verified.ToString();
        }
        if (step % 100 == 0) {
          Database rebuild(q->query().schema());
          for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!present[i]) continue;
            RelationId rel = rebuild.schema().Find(specs[i].relation);
            rebuild.AddFactNamed(rel, specs[i].args);
          }
          StatusOr<SolveReport> fresh = service->Solve(*q, rebuild);
          ASSERT_TRUE(fresh.ok());
          ASSERT_EQ(delta->certain, fresh->certain)
              << "config " << config << " step " << step;
        }
      }

      // Periodic simulated crash + reopen: kill all further I/O (the
      // dying Service cannot flush anything on the way out), tear it
      // down mid-flight, recover on a fresh Service, and require the
      // recovered fact set to equal the shadow model exactly —
      // fsync-per-batch means not one acknowledged mutation may be
      // missing. The solver caches restart cold (minus the persisted
      // verdicts), so the bounds below also re-prove themselves from a
      // recovered state.
      if (step % 650 == 649) {
        {
          ServiceStats dying = service->Stats();
          evictions_before_crashes += dying.databases[0].verdicts.evictions;
          sat_before_crashes += dying.databases[0].sat;
        }
        store::FaultPlan plan;
        plan.crash_at_op = 0;
        store::InstallFault(plan);
        service.reset();  // The "crash": destructor I/O all fails.
        store::ClearFault();

        service = std::make_unique<Service>(options);
        Status recovered = service->RecoverDatabase("db");
        ASSERT_TRUE(recovered.ok())
            << "config " << config << " step " << step << ": "
            << recovered.ToString();
        q = service->Compile(kQueries[config / 3], copts);
        ASSERT_TRUE(q.ok());

        StatusOr<std::vector<FactSpec>> listed = service->ListFacts("db");
        ASSERT_TRUE(listed.ok());
        std::set<std::pair<std::string, std::vector<std::string>>> state;
        for (const FactSpec& f : *listed) state.insert({f.relation, f.args});
        std::set<std::pair<std::string, std::vector<std::string>>> shadow;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          if (present[i]) shadow.insert({specs[i].relation, specs[i].args});
        }
        ASSERT_EQ(state, shadow)
            << "config " << config << " step " << step
            << ": recovery lost or invented facts";

        StatusOr<AuditReport> audit = service->AuditDatabase("db");
        ASSERT_TRUE(audit.ok());
        ASSERT_TRUE(audit->ok()) << audit->ToString();
      }

      // Deep audit of every delta-maintained structure (data/audit.h);
      // its per-pass cost is a fresh repartition, so sample it.
      if (step % 100 == 0) {
        StatusOr<AuditReport> audit = service->AuditDatabase("db");
        ASSERT_TRUE(audit.ok()) << audit.status().ToString();
        ASSERT_TRUE(audit->ok())
            << audit->ToString() << "config " << config << " step " << step;
      }

      if (step % 20 == 0) {
        ServiceStats stats = service->Stats();
        ASSERT_EQ(stats.databases.size(), 1u);
        const ServiceStats::DatabaseStats& d = stats.databases[0];
        peak_slots = std::max(peak_slots, d.fact_slots);
        peak_verdicts = std::max(peak_verdicts, d.verdicts.entries);
        // Slot bound: alive/(1-r) plus slack for the batch applied since
        // the trigger last ran.
        ASSERT_LE(d.fact_slots,
                  static_cast<std::uint64_t>(
                      static_cast<double>(d.alive_facts) / 0.6) +
                      options.compact_min_slots)
            << "config " << config << " step " << step;
        // Verdict bound: the history cache's entry cap is exact.
        ASSERT_LE(d.verdicts.entries, options.verdict_cache.max_entries)
            << "config " << config << " step " << step;
        ASSERT_LE(d.solvers.entries, options.solver_cache.max_entries);
        // Learned-memory bound: clause-DB reduction must keep each warm
        // session's resident learned-clause count from growing without
        // bound across the churn. learned_kept is a gauge (clauses
        // currently resident, summed over the database's sessions).
        peak_learned = std::max(peak_learned, d.sat.learned_kept);
        ASSERT_LE(d.sat.learned_kept, kLearnedCeiling)
            << "config " << config << " step " << step
            << ": learned clauses accumulating without reduction";
      }
    }

    // The run must actually have exercised the lifecycle machinery.
    ServiceStats stats = service->Stats();
    EXPECT_GT(compactions, 0u) << "config " << config;
    EXPECT_GT(peak_slots, stats.databases[0].alive_facts)
        << "config " << config;
    EXPECT_GT(peak_verdicts, 0u) << "config " << config;
    EXPECT_GT(evictions_before_crashes +
                  stats.databases[0].verdicts.evictions,
              0u)
        << "config " << config;
    if (sat_config) {
      // The sat configs must have run their warm sessions for real:
      // solves happened, most were warm re-solves, and mutations
      // retracted stale clauses via activation literals.
      CdclStats total_sat = sat_before_crashes;
      total_sat += stats.databases[0].sat;
      EXPECT_GT(total_sat.solves, 0u) << "config " << config;
      EXPECT_GT(total_sat.warm_solves, 0u) << "config " << config;
      EXPECT_GT(total_sat.clauses_retracted, 0u) << "config " << config;
      EXPECT_LE(peak_learned, kLearnedCeiling) << "config " << config;
    }
  }
}

}  // namespace
}  // namespace cqa
