// Crash-point recovery matrix (label: recovery).
//
// The durability contract under test: a process may die at *any* I/O
// operation — before it, or tearing it half-written — and recovery must
// rebuild a state that (a) passes the deep invariant audit, (b) equals
// some acknowledged prefix of the mutation history (exactly the
// acknowledged prefix under FsyncPolicy::kEveryBatch), and (c) answers
// certain(q) — witness included — identically to a never-crashed service
// holding that same prefix. Corrupt or torn WAL tails must be detected
// by checksum and truncated, never silently replayed.
//
// The harness runs a seeded mutation program (>= 500 batches) against a
// durable Service next to a shadow model (the plain in-memory fact
// history), dry-runs it once to count the I/O ops W, then for each crash
// point 0..W-1 and each crash mode: re-runs the program with the fault
// installed, "reboots" (ClearFault + fresh Service), recovers, checks
// (a)-(c), replays the rest of the program on the recovered service, and
// checks final-state parity again. The default run samples the crash
// points with a stride so the main-CI shard stays fast;
// CQA_RECOVERY_FULL=1 (nightly) sweeps every point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/witness.h"
#include "base/rng.h"
#include "scratch_dir.h"
#include "store/io.h"

namespace cqa {
namespace {

constexpr const char* kQueryText = "R(x | y) R(y | z)";
constexpr const char* kDbName = "crashdb";

Schema OneRelationSchema() {
  Schema schema;
  schema.AddRelation("R", 2, 1);
  return schema;
}

// Canonical set form of a fact list, for state equality.
using FactSet = std::set<std::pair<std::string, std::vector<std::string>>>;

FactSet ToSet(const std::vector<FactSpec>& facts) {
  FactSet out;
  for (const FactSpec& f : facts) out.insert({f.relation, f.args});
  return out;
}

// One batch of the seeded program.
struct ProgramBatch {
  bool is_insert = true;
  std::vector<FactSpec> facts;
};

// The deterministic mutation program plus the shadow state after each
// batch: shadow_after[k] is the fact set once batches 0..k-1 applied.
struct Program {
  std::vector<ProgramBatch> batches;
  std::vector<FactSet> shadow_after;  // Size batches.size() + 1.
};

// Builds a >= `n`-batch insert/delete program over a small dense domain
// (so facts collide into shared blocks and q-connected components) with
// every delete naming facts alive in the shadow at that point.
Program BuildProgram(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Program program;
  FactSet shadow;
  program.shadow_after.push_back(shadow);
  auto element = [&](std::uint64_t i) { return "e" + std::to_string(i); };
  while (program.batches.size() < n) {
    ProgramBatch batch;
    bool can_delete = !shadow.empty();
    batch.is_insert = !can_delete || rng.Below(10) < 6;
    if (batch.is_insert) {
      std::uint64_t count = 1 + rng.Below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        batch.facts.push_back(
            {"R", {element(rng.Below(12)), element(rng.Below(12))}});
      }
      for (const FactSpec& f : batch.facts) shadow.insert({f.relation, f.args});
    } else {
      // Pick 1-2 distinct currently-alive facts.
      std::uint64_t count = std::min<std::uint64_t>(1 + rng.Below(2),
                                                    shadow.size());
      std::set<std::uint64_t> picked;
      while (picked.size() < count) picked.insert(rng.Below(shadow.size()));
      for (std::uint64_t index : picked) {
        auto it = shadow.begin();
        std::advance(it, index);
        batch.facts.push_back({it->first, it->second});
      }
      for (const FactSpec& f : batch.facts) shadow.erase({f.relation, f.args});
    }
    program.batches.push_back(std::move(batch));
    program.shadow_after.push_back(shadow);
  }
  return program;
}

ServiceOptions DurableOptions(const std::string& dir,
                              store::FsyncPolicy fsync) {
  ServiceOptions options;
  options.durability.enabled = true;
  options.durability.data_dir = dir;
  options.durability.fsync = fsync;
  options.durability.fsync_interval = 8;
  // Short interval so the matrix crosses many snapshot writes (the
  // riskiest I/O sequence: atomic write + prune + WAL reset).
  options.durability.snapshot_interval = 64;
  return options;
}

Status ApplyBatch(Service& service, const ProgramBatch& batch) {
  return batch.is_insert ? service.InsertFacts(kDbName, batch.facts)
                         : service.DeleteFacts(kDbName, batch.facts);
}

// Runs the program against a fresh durable service until the first
// failure (the installed fault firing) and returns the number of
// *acknowledged* batches. Solves periodically so snapshots carry a
// populated verdict cache. `service` comes back as the crashed process:
// destroy it without expecting anything more from it.
std::size_t RunUntilCrash(Service& service, const CompiledQuery& q,
                          const Program& program) {
  if (!service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok()) {
    return 0;
  }
  std::size_t acked = 0;
  for (const ProgramBatch& batch : program.batches) {
    if (!ApplyBatch(service, batch).ok()) break;
    ++acked;
    if (acked % 97 == 0) {
      (void)service.Solve(q, kDbName);  // Warm the verdict cache.
    }
  }
  return acked;
}

// The parity oracle: a never-crashed, durability-free service holding
// exactly `facts`. Certain answers and verified witnesses against it are
// the ground truth for the recovered service.
void ExpectSolveParity(Service& recovered, const FactSet& facts,
                       const std::string& context) {
  Service oracle;
  StatusOr<CompiledQuery> q = oracle.Compile(kQueryText);
  ASSERT_TRUE(q.ok());
  Database db(OneRelationSchema());
  for (const auto& [relation, args] : facts) {
    ASSERT_EQ(relation, "R");
    db.AddFactStr(0, args[0] + " " + args[1]);
  }
  StatusOr<SolveReport> expected = oracle.Solve(*q, db);
  ASSERT_TRUE(expected.ok()) << context << ": " << expected.status().ToString();

  StatusOr<CompiledQuery> rq = recovered.Compile(kQueryText);
  ASSERT_TRUE(rq.ok());
  StatusOr<SolveReport> got = recovered.Solve(*rq, kDbName);
  ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
  EXPECT_EQ(got->certain, expected->certain) << context;
  // Witness parity: the recovered service must produce one exactly when
  // the oracle does (cert2 explains whenever there is anything to
  // choose; an empty database has no repair choices and no witness).
  ASSERT_EQ(got->witness.has_value(), expected->witness.has_value()) << context;
  if (!got->certain && got->witness.has_value()) {
    // The witness must verify against the *recovered* database from
    // first principles — a recovered-but-wrong fact store cannot pass.
    StatusOr<std::vector<FactSpec>> listed = recovered.ListFacts(kDbName);
    ASSERT_TRUE(listed.ok());
    Database recovered_db(OneRelationSchema());
    for (const FactSpec& f : *listed) {
      recovered_db.AddFactStr(0, f.args[0] + " " + f.args[1]);
    }
    // The report's witness points into the service's database; re-solve
    // on the rebuilt copy to get a witness bound to it, then verify.
    StatusOr<SolveReport> rebuilt = oracle.Solve(*q, recovered_db);
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_TRUE(rebuilt->witness.has_value()) << context;
    EXPECT_TRUE(
        VerifyWitness(q->query(), recovered_db, *rebuilt->witness).ok())
        << context;
  }
}

// One crash-point run: crash at `crash_at` in `mode`, reboot, recover,
// audit, check prefix + solve parity, finish the program, check again.
void RunCrashPoint(const Program& program, std::uint64_t crash_at,
                   store::FaultPlan::Mode mode, store::FsyncPolicy fsync,
                   const std::string& dir_tag) {
  std::string context = dir_tag + " crash@" + std::to_string(crash_at) +
                        (mode == store::FaultPlan::Mode::kBeforeOp
                             ? " before-op"
                             : " torn-write");
  std::string dir = FreshScratchDir(dir_tag);
  std::size_t acked = 0;
  {
    Service service(DurableOptions(dir, fsync));
    StatusOr<CompiledQuery> q = service.Compile(kQueryText);
    ASSERT_TRUE(q.ok());
    store::FaultPlan plan;
    plan.crash_at_op = crash_at;
    plan.mode = mode;
    store::InstallFault(plan);
    acked = RunUntilCrash(service, *q, program);
    EXPECT_TRUE(store::FaultTripped()) << context << ": fault never fired";
    // The service dies here with the WAL file unflushed — exactly like a
    // process that never got to exit cleanly.
  }
  store::ClearFault();  // Reboot.

  Service service(DurableOptions(dir, fsync));
  Status recovered = service.RecoverDatabase(kDbName);
  if (!recovered.ok()) {
    // Only legitimate if the crash predated the first durable state
    // (RegisterDatabase's initial snapshot never landed).
    EXPECT_EQ(recovered.code(), StatusCode::kNotFound) << context;
    EXPECT_EQ(acked, 0u) << context << ": acknowledged batches lost wholesale";
    return;
  }

  // (a) The recovered structures pass the deep audit.
  StatusOr<AuditReport> audit = service.AuditDatabase(kDbName);
  ASSERT_TRUE(audit.ok()) << context;
  EXPECT_TRUE(audit->ok()) << context << ":\n" << audit->ToString();
  EXPECT_GT(audit->checks, 0u) << context;

  // (b) The recovered facts equal the shadow after some prefix j of the
  // program — durability can lose un-synced acknowledged batches under
  // relaxed fsync policies, but it can never invent state, tear a batch
  // in half, or reorder. Under kEveryBatch, j must be exactly `acked`:
  // an acknowledged batch is durable by construction.
  StatusOr<std::vector<FactSpec>> listed = service.ListFacts(kDbName);
  ASSERT_TRUE(listed.ok()) << context;
  FactSet state = ToSet(*listed);
  std::size_t j = program.shadow_after.size();
  for (std::size_t candidate = 0; candidate <= acked; ++candidate) {
    if (program.shadow_after[candidate] == state) {
      j = candidate;
      // Prefer the largest matching prefix (states can repeat).
      if (fsync != store::FsyncPolicy::kEveryBatch) break;
    }
  }
  ASSERT_NE(j, program.shadow_after.size())
      << context << ": recovered state matches no acknowledged prefix ("
      << acked << " acked, " << state.size() << " facts recovered)";
  if (fsync == store::FsyncPolicy::kEveryBatch) {
    EXPECT_EQ(program.shadow_after[acked], state)
        << context << ": an acknowledged batch was lost under fsync-always";
    j = acked;
  }

  // (c) Solve parity (certain + verified witness) at the recovered
  // prefix.
  ExpectSolveParity(service, program.shadow_after[j], context);

  // Finish the program from j on the recovered service; the end state
  // must be the uncrashed end state.
  for (std::size_t k = j; k < program.batches.size(); ++k) {
    ASSERT_TRUE(ApplyBatch(service, program.batches[k]).ok())
        << context << ": batch " << k << " failed after recovery";
  }
  listed = service.ListFacts(kDbName);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(ToSet(*listed), program.shadow_after.back())
      << context << ": final state diverged after recovery";
  audit = service.AuditDatabase(kDbName);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << context << " (final):\n" << audit->ToString();
  ExpectSolveParity(service, program.shadow_after.back(), context + " final");
}

// Dry-runs the program (no fault) and returns the total I/O op count.
std::uint64_t CountOps(const Program& program, store::FsyncPolicy fsync,
                       const std::string& dir_tag) {
  std::string dir = FreshScratchDir(dir_tag);
  store::ClearFault();  // Reset the op counter.
  Service service(DurableOptions(dir, fsync));
  StatusOr<CompiledQuery> q = service.Compile(kQueryText);
  EXPECT_TRUE(q.ok());
  std::size_t acked = RunUntilCrash(service, *q, program);
  EXPECT_EQ(acked, program.batches.size());
  return store::IoOpCount();
}

bool FullMatrix() {
  const char* env = std::getenv("CQA_RECOVERY_FULL");
  return env != nullptr && env[0] == '1';
}

// The headline matrix: >= 500 batches, every (sampled) crash point, both
// crash modes, under the strict fsync policy where recovery must land on
// exactly the acknowledged prefix.
TEST(RecoveryMatrix, EveryCrashPointRecoversUnderFsyncAlways) {
  Program program = BuildProgram(500, /*seed=*/0xC4A5);
  std::uint64_t ops =
      CountOps(program, store::FsyncPolicy::kEveryBatch, "dryrun_every");
  ASSERT_GT(ops, 1000u);  // >= 500 batches, each at least append + sync.

  // Full sweep: every op. Sampled sweep: a prime stride plus the first
  // few ops (registration / initial snapshot, the densest failure
  // cluster) and the last (mid final snapshot).
  std::uint64_t stride = FullMatrix() ? 1 : 37;
  std::vector<std::uint64_t> points;
  for (std::uint64_t op = 0; op < ops; op += stride) points.push_back(op);
  for (std::uint64_t op : {ops - 1, ops / 2}) points.push_back(op);
  for (std::uint64_t op = 0; op < std::min<std::uint64_t>(ops, 8); ++op) {
    points.push_back(op);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (std::uint64_t op : points) {
    for (store::FaultPlan::Mode mode : {store::FaultPlan::Mode::kBeforeOp,
                                        store::FaultPlan::Mode::kPartialWrite}) {
      RunCrashPoint(program, op, mode, store::FsyncPolicy::kEveryBatch,
                    "matrix_every");
      if (HasFatalFailure()) {
        FAIL() << "first failing crash point: op " << op;
      }
    }
  }
}

// Relaxed policies: acknowledged batches may be lost (that is the deal),
// but the recovered state must still be *some* acknowledged prefix —
// never torn, never invented, never corrupt.
TEST(RecoveryMatrix, RelaxedFsyncRecoversToAPrefix) {
  Program program = BuildProgram(500, /*seed=*/0x5EED);
  for (store::FsyncPolicy fsync :
       {store::FsyncPolicy::kInterval, store::FsyncPolicy::kNone}) {
    std::string tag = fsync == store::FsyncPolicy::kInterval
                          ? "matrix_interval"
                          : "matrix_none";
    std::uint64_t ops = CountOps(program, fsync, "dryrun_" + tag);
    ASSERT_GT(ops, 0u);
    std::uint64_t stride = FullMatrix() ? 1 : 61;
    for (std::uint64_t op = 0; op < ops; op += stride) {
      RunCrashPoint(program, op, store::FaultPlan::Mode::kPartialWrite, fsync,
                    tag);
      if (HasFatalFailure()) {
        FAIL() << "first failing crash point: op " << op << " (" << tag << ")";
      }
    }
  }
}

// Persisted verdicts: solve, checkpoint, crash, recover — the first
// solve after recovery must be served from the imported verdict cache
// (every component cached, none re-solved).
TEST(RecoveryService, VerdictCacheSurvivesRecovery) {
  std::string dir = FreshScratchDir("verdicts");
  Program program = BuildProgram(64, /*seed=*/0xFACE);
  {
    Service service(
        DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
    StatusOr<CompiledQuery> q = service.Compile(kQueryText);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(
        service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());
    for (const ProgramBatch& batch : program.batches) {
      ASSERT_TRUE(ApplyBatch(service, batch).ok());
    }
    StatusOr<SolveReport> warm = service.Solve(*q, kDbName);
    ASSERT_TRUE(warm.ok());
    ASSERT_GT(warm->components_total, 0u);
    ASSERT_TRUE(service.CheckpointDatabase(kDbName).ok());
    // Die without flushing anything further.
    store::FaultPlan plan;
    plan.crash_at_op = 0;
    store::InstallFault(plan);
  }
  store::ClearFault();

  Service service(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
  ASSERT_TRUE(service.RecoverDatabase(kDbName).ok());
  StatusOr<CompiledQuery> q = service.Compile(kQueryText);
  ASSERT_TRUE(q.ok());
  StatusOr<SolveReport> cold = service.Solve(*q, kDbName);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->components_total, 0u);
  EXPECT_EQ(cold->components_resolved, 0u)
      << "recovery discarded the persisted verdict cache";
  EXPECT_EQ(cold->components_cached, cold->components_total);

  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_EQ(stats.databases[0].recoveries, 1u);
}

// Stats() durability counters: WAL accounting while running, the
// recovery flag after reopening, and the audit counters — cumulative
// history, not derivable from the facts — surviving the restart.
TEST(RecoveryService, CountersSurviveReopen) {
  std::string dir = FreshScratchDir("counters");
  {
    Service service(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
    ASSERT_TRUE(
        service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());
    ASSERT_TRUE(
        service.InsertFacts(kDbName, {{"R", {"a", "b"}}, {"R", {"a", "c"}}})
            .ok());
    StatusOr<AuditReport> audit = service.AuditDatabase(kDbName);
    ASSERT_TRUE(audit.ok());
    ASSERT_TRUE(service.AuditDatabase(kDbName).ok());

    ServiceStats stats = service.Stats();
    ASSERT_EQ(stats.databases.size(), 1u);
    EXPECT_EQ(stats.databases[0].wal_records, 1u);
    EXPECT_GT(stats.databases[0].wal_bytes, 0u);
    EXPECT_EQ(stats.databases[0].snapshots, 1u);  // The initial snapshot.
    EXPECT_EQ(stats.databases[0].recoveries, 0u);
    EXPECT_EQ(stats.databases[0].audits_run, 2u);
    // Checkpoint so the audit counters reach the snapshot meta.
    ASSERT_TRUE(service.CheckpointDatabase(kDbName).ok());
  }

  Service service(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
  StatusOr<std::vector<std::string>> names = service.RecoverAllDatabases();
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  EXPECT_EQ(*names, std::vector<std::string>{kDbName});

  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_EQ(stats.databases[0].recoveries, 1u);
  EXPECT_EQ(stats.databases[0].audits_run, 2u)
      << "audit history lost across restart";
  EXPECT_EQ(stats.databases[0].alive_facts, 2u);
  // The recovered entry defers index preparation: a stats poll must not
  // have forced the build (blocks reads 0 until first use).
  EXPECT_EQ(stats.databases[0].blocks, 0u);
  StatusOr<CompiledQuery> q = service.Compile(kQueryText);
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(service.Solve(*q, kDbName).ok());
  EXPECT_GT(service.Stats().databases[0].blocks, 0u);
}

// DropDatabase must delete the on-disk state too: recreating the same
// name starts from a clean slate instead of resurrecting the old WAL
// (the PR's targeted bug fix).
TEST(RecoveryService, DropThenRecreateStartsClean) {
  std::string dir = FreshScratchDir("drop_recreate");
  Service service(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
  ASSERT_TRUE(
      service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());
  ASSERT_TRUE(service.InsertFacts(kDbName, {{"R", {"a", "b"}}}).ok());
  ASSERT_TRUE(service.DropDatabase(kDbName).ok());
  // The directory is gone: nothing to recover.
  EXPECT_EQ(service.RecoverDatabase(kDbName).code(), StatusCode::kNotFound);

  // Re-register under the same name and write different state.
  ASSERT_TRUE(
      service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());
  ASSERT_TRUE(service.InsertFacts(kDbName, {{"R", {"x", "y"}}}).ok());
  StatusOr<std::vector<FactSpec>> listed = service.ListFacts(kDbName);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].args, (std::vector<std::string>{"x", "y"}));

  // And recovery after a restart sees only the new incarnation.
  Service reopened(DurableOptions(dir, store::FsyncPolicy::kEveryBatch));
  ASSERT_TRUE(reopened.RecoverDatabase(kDbName).ok());
  listed = reopened.ListFacts(kDbName);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].args, (std::vector<std::string>{"x", "y"}));
}

// A failed automatic snapshot must not fail the batch that earned it
// (the WAL already holds that batch), but it must not vanish either:
// Stats counts it, and a later checkpoint recovers once I/O works again.
TEST(RecoveryService, FailedAutomaticSnapshotIsCounted) {
  std::string dir = FreshScratchDir("snapshot_failure");
  ServiceOptions options = DurableOptions(dir, store::FsyncPolicy::kEveryBatch);
  options.durability.snapshot_interval = 2;
  Service service(options);
  ASSERT_TRUE(
      service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());

  // The first batch earns no snapshot: count its WAL ops to aim the fault.
  store::InstallFault(store::FaultPlan{});
  ASSERT_TRUE(service.InsertFacts(kDbName, {{"R", {"a", "b"}}}).ok());
  std::uint64_t wal_ops = store::IoOpCount();
  ASSERT_GT(wal_ops, 0u);
  // The second batch logs with as many ops, then its snapshot's first op
  // fails.
  store::FaultPlan plan;
  plan.crash_at_op = wal_ops;
  store::InstallFault(plan);
  Status inserted = service.InsertFacts(kDbName, {{"R", {"c", "d"}}});
  bool tripped = store::FaultTripped();
  store::ClearFault();
  ASSERT_TRUE(tripped) << "the fault never reached the snapshot";
  EXPECT_TRUE(inserted.ok()) << inserted.ToString();

  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_EQ(stats.databases[0].snapshot_failures, 1u);
  EXPECT_EQ(stats.databases[0].snapshots, 1u);  // Only the initial one.
  EXPECT_NE(stats.ToString().find("snapshot_failures=1"), std::string::npos)
      << stats.ToString();
  StatusOr<std::vector<FactSpec>> listed = service.ListFacts(kDbName);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(ToSet(*listed),
            ToSet({{"R", {"a", "b"}}, {"R", {"c", "d"}}}));

  ASSERT_TRUE(service.CheckpointDatabase(kDbName).ok());
  stats = service.Stats();
  EXPECT_EQ(stats.databases[0].snapshots, 2u);
  EXPECT_EQ(stats.databases[0].snapshot_failures, 1u);
}

// Durability off: the durable API surfaces typed errors instead of
// touching the filesystem.
TEST(RecoveryService, DurabilityOffIsTypedError) {
  Service service;
  EXPECT_EQ(service.RecoverDatabase("nope").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      service.RegisterDatabase(kDbName, Database(OneRelationSchema())).ok());
  EXPECT_EQ(service.CheckpointDatabase(kDbName).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cqa
