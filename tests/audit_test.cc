// The deep invariant auditor (data/audit.h) exists to catch exactly the
// corruptions the delta protocols could introduce. These tests prove it
// does: each test hand-plants one targeted inconsistency — a dangling
// arena offset, a stale key-index entry, a split component — through the
// TestCorruptor friend, and asserts the auditor both reports it and
// names the right structure. Plus the clean-path contracts: a healthy
// tree audits clean with a nonzero check count, and the Service entry
// point surfaces cumulative counters in Stats().

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/dynamic_components.h"
#include "api/service.h"
#include "base/lru.h"
#include "data/audit.h"
#include "data/database.h"
#include "data/prepared.h"
#include "engine/incremental.h"
#include "engine/solver.h"
#include "query/eval.h"
#include "query/query.h"
#include "reduction/sat_reduction.h"

namespace cqa {

// Friend of Database, PreparedDatabase, DynamicComponents,
// IncrementalSolver, and IncrementalFalsifier: plants one
// precise inconsistency per method, leaving everything else intact so a
// report naming the corrupted structure is evidence of pinpointing, not
// of cascade.
class TestCorruptor {
 public:
  /// Dangling arena offset: slot `id`'s span no longer starts where the
  /// dense layout says it must.
  static void BumpArenaOffset(Database& db, FactId id) {
    db.slots_[id].offset += 1;
  }

  /// Tombstones the slot behind the accounting's back (num_alive_ and the
  /// indexes still believe it is alive).
  static void FlipAlive(Database& db, FactId id) {
    db.alive_[id] = db.alive_[id] ? 0 : 1;
  }

  /// Stale content index: fact `id` vanishes from its hash bucket, so
  /// probing its own tuple finds nothing (the next identical insert would
  /// duplicate it).
  static void DropContentIndexEntry(Database& db, FactId id) {
    for (auto& [hash, bucket] : db.fact_index_) {
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i] != id) continue;
        bucket.erase(bucket.begin() + i);
        if (bucket.empty()) db.fact_index_.erase(hash);
        return;
      }
    }
    FAIL() << "fact " << id << " not in the content index";
  }

  /// Stale key index: block `b`'s key no longer routes to it, so the next
  /// same-key insert would open a duplicate block.
  static void DropKeyIndexEntry(Database& db, BlockId b) {
    db.EraseBlockIndexEntry(b);
  }

  /// Two facts of one block trade places, so its fact list is no longer
  /// ascending — the order the warm SAT falsifier's in-place block diff
  /// relies on.
  static void SwapBlockFacts(Database& db) {
    for (Block& block : db.blocks_) {
      if (block.facts.size() < 2) continue;
      std::swap(block.facts[0], block.facts[1]);
      return;
    }
    FAIL() << "no block with two facts";
  }

  /// A warm falsifier loses the record of one solution clause: the
  /// footprint of a fresh fact whose partner probe missed a partner.
  static void DropSolutionClause(IncrementalFalsifier& falsifier) {
    ASSERT_FALSE(falsifier.pair_clauses_.empty());
    falsifier.pair_clauses_.erase(falsifier.pair_clauses_.begin());
  }

  /// Per-fact block mapping out of step with the partition.
  static void MisfileBlockOf(Database& db, FactId id) {
    db.block_of_[id] = db.block_of_[id] + 1;
  }

  /// Position index lies about where `id` sits in its relation list —
  /// the exact corruption that would make a later ApplyRemove patch the
  /// wrong slot.
  static void CorruptPosition(PreparedDatabase& pdb, FactId id) {
    pdb.pos_in_relation_[id] += 1;
  }

  /// Relation list loses its last fact (a botched ApplyInsert).
  static void DropFromRelationList(PreparedDatabase& pdb, RelationId r) {
    ASSERT_FALSE(pdb.facts_by_relation_[r].empty());
    pdb.facts_by_relation_[r].pop_back();
  }

  /// Splits one multi-member component: a non-root member is moved into a
  /// fresh singleton (union-find and member lists both rewritten, so the
  /// corruption is internally coherent and only the partition itself —
  /// and the stale fingerprints — give it away).
  static void SplitComponent(DynamicComponents& comps, const Database& db) {
    for (auto& [root, comp] : comps.components_) {
      if (comp.members.size() < 2) continue;
      FactId moved = comp.members.back();
      if (moved == root) moved = comp.members.front();
      auto& members = comp.members;
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (members[i] == moved) {
          members[i] = members.back();
          members.pop_back();
          break;
        }
      }
      comps.parent_[moved] = moved;
      DynamicComponents::Component single;
      single.members = {moved};
      single.min_member = moved;
      single.fingerprint.Add(db, moved);
      comps.components_.emplace(moved, std::move(single));
      return;
    }
    FAIL() << "no component with two members to split";
  }

  /// Fingerprint drifts from the member content it is supposed to digest.
  static void CorruptFingerprint(DynamicComponents& comps) {
    ASSERT_FALSE(comps.components_.empty());
    comps.components_.begin()->second.fingerprint.sum ^= 1;
  }

  /// The head of one atom-0 partner chain is unlinked (a botched
  /// IndexAdd): later inserts would miss it as a solution partner.
  static void DropPartnerIndexEntry(DynamicComponents& comps) {
    auto& heads = comps.chain_head_[0];
    ASSERT_FALSE(heads.empty());
    auto it = heads.begin();
    FactId dropped = it->second;
    FactId next = comps.chain_next_[0][dropped];
    if (next == Database::kNoFact) {
      heads.erase(it);
    } else {
      it->second = next;
    }
    comps.chain_next_[0][dropped] = Database::kNoFact;
  }

  /// The maintained count of certain components drifts by one.
  static void BumpCertainCount(IncrementalSolver& solver) {
    ++solver.certain_count_;
  }

  /// One live component keeps a verdict its content no longer has — the
  /// stale verdict a missed dirty mark would leave behind.
  static void FlipAttachedVerdict(IncrementalSolver& solver) {
    for (auto& [root, comp] : solver.components_.components_) {
      if (comp.verdict == nullptr) continue;
      CachedVerdict flipped;
      flipped.certain = !comp.verdict->certain;
      comp.verdict = std::make_shared<const CachedVerdict>(flipped);
      return;
    }
    FAIL() << "no component with an attached verdict";
  }
};

namespace {

// One fixture-built world per corruption: a query with chained joins so
// components have several members, enough facts that every structure is
// populated.
struct World {
  ConjunctiveQuery q;
  Database db;
  PreparedDatabase pdb;
  DynamicComponents comps;

  World()
      : q(ParseQuery("R(x | y) R(y | z)")),
        db(MakeDb(q)),
        pdb(db),
        comps(q, pdb) {}

  static Database MakeDb(const ConjunctiveQuery& q) {
    Database db(q.schema());
    db.AddFactStr(0, "a b");
    db.AddFactStr(0, "b c");
    db.AddFactStr(0, "b d");  // Key b: two candidates (a real block).
    db.AddFactStr(0, "c d");
    db.AddFactStr(0, "e f");  // Disconnected from the a-b-c-d cluster.
    (void)db.blocks();        // Force the partition + key index.
    return db;
  }

  AuditReport AuditAll() const {
    AuditReport report = AuditDatabase(db);
    report.Merge(AuditPrepared(pdb));
    report.Merge(AuditComponents(q, pdb, comps));
    return report;
  }
};

TEST(AuditTest, CleanWorldAuditsClean) {
  World w;
  AuditReport report = w.AuditAll();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 50u);  // "clean" must mean "checked", not "skipped".
  EXPECT_EQ(report.ToString().find("audit clean"), 0u);
}

TEST(AuditTest, DanglingArenaOffsetIsPinpointed) {
  World w;
  TestCorruptor::BumpArenaOffset(w.db, 2);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("arena")) << report.ToString();
}

TEST(AuditTest, AliveAccountingDriftIsPinpointed) {
  World w;
  TestCorruptor::FlipAlive(w.db, 1);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("slots")) << report.ToString();
}

TEST(AuditTest, MissingContentIndexEntryIsPinpointed) {
  World w;
  TestCorruptor::DropContentIndexEntry(w.db, 3);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("content-index")) << report.ToString();
}

TEST(AuditTest, StaleKeyIndexEntryIsPinpointed) {
  World w;
  TestCorruptor::DropKeyIndexEntry(w.db, 0);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("key-index")) << report.ToString();
}

TEST(AuditTest, MisfiledBlockMappingIsPinpointed) {
  World w;
  TestCorruptor::MisfileBlockOf(w.db, 0);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("blocks")) << report.ToString();
}

TEST(AuditTest, UnorderedBlockFactListIsPinpointed) {
  World w;
  TestCorruptor::SwapBlockFacts(w.db);
  AuditReport report = AuditDatabase(w.db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("blocks")) << report.ToString();
}

TEST(AuditTest, CorruptPositionIndexIsPinpointed) {
  World w;
  TestCorruptor::CorruptPosition(w.pdb, 2);
  AuditReport report = AuditPrepared(w.pdb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("prepared")) << report.ToString();
  // The corruption is invisible to the database's own auditor: proof the
  // reports pinpoint rather than cross-contaminate.
  EXPECT_TRUE(AuditDatabase(w.db).ok());
}

TEST(AuditTest, DroppedRelationListEntryIsPinpointed) {
  World w;
  TestCorruptor::DropFromRelationList(w.pdb, 0);
  AuditReport report = AuditPrepared(w.pdb);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("prepared")) << report.ToString();
}

TEST(AuditTest, SplitComponentIsPinpointed) {
  World w;
  ASSERT_GT(w.comps.NumComponents(), 1u);
  std::size_t before = w.comps.NumComponents();
  TestCorruptor::SplitComponent(w.comps, w.db);
  ASSERT_EQ(w.comps.NumComponents(), before + 1);
  AuditReport report = AuditComponents(w.q, w.pdb, w.comps);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("components")) << report.ToString();
  // Database and prepared auditors stay clean: the split lives only in
  // the component layer.
  EXPECT_TRUE(AuditDatabase(w.db).ok());
  EXPECT_TRUE(AuditPrepared(w.pdb).ok());
}

TEST(AuditTest, StaleFingerprintIsPinpointed) {
  World w;
  TestCorruptor::CorruptFingerprint(w.comps);
  AuditReport report = AuditComponents(w.q, w.pdb, w.comps);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("components")) << report.ToString();
}

TEST(AuditTest, DroppedPartnerIndexEntryIsPinpointed) {
  World w;
  TestCorruptor::DropPartnerIndexEntry(w.comps);
  AuditReport report = AuditComponents(w.q, w.pdb, w.comps);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("partner-index")) << report.ToString();
  // The partition itself is still right; only the index lost a fact.
  EXPECT_FALSE(report.Names("components")) << report.ToString();
}

// An incremental solver over the World database, solved once so every
// component carries a verdict and the certain count is live.
struct SolverWorld {
  World w;
  CertainSolver solver;
  IncrementalSolver inc;

  SolverWorld()
      : solver(std::move(CertainSolver::Create(w.q)).value()),
        inc(solver, w.pdb) {
    (void)inc.Solve(/*want_witness=*/false);
  }

  AuditReport Audit() const {
    AuditReport report;
    inc.AuditInto(report);
    return report;
  }
};

TEST(AuditTest, SolverWithVerdictsAuditsClean) {
  SolverWorld s;
  AuditReport report = s.Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 50u);
}

TEST(AuditTest, WrongCertainCountIsPinpointed) {
  SolverWorld s;
  TestCorruptor::BumpCertainCount(s.inc);
  AuditReport report = s.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("verdicts")) << report.ToString();
  EXPECT_FALSE(report.Names("components")) << report.ToString();
}

TEST(AuditTest, StaleAttachedVerdictIsPinpointed) {
  SolverWorld s;
  TestCorruptor::FlipAttachedVerdict(s.inc);
  AuditReport report = s.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("verdicts")) << report.ToString();
}

// A warm SAT falsifier that has solved every World component.
struct FalsifierWorld {
  World w;
  IncrementalFalsifier falsifier;

  FalsifierWorld() {
    for (const auto& [root, comp] : w.comps.components()) {
      (void)falsifier.SolveComponent(w.pdb, w.comps, comp.members,
                                     /*witness=*/nullptr);
    }
  }

  AuditReport Audit() const {
    AuditReport report;
    falsifier.AuditInto(ComputeSolutions(w.q, w.pdb), w.pdb, report);
    return report;
  }
};

TEST(AuditTest, WarmFalsifierAuditsClean) {
  FalsifierWorld f;
  AuditReport report = f.Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.checks, 0u);
}

TEST(AuditTest, MissingFalsifierSolutionClauseIsPinpointed) {
  FalsifierWorld f;
  TestCorruptor::DropSolutionClause(f.falsifier);
  AuditReport report = f.Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Names("sat-session")) << report.ToString();
}

TEST(AuditTest, SolverAuditCoversWarmSatSessions) {
  // The same sat-forced solver with and without a warm session: only the
  // warm one has falsifiers, and its audit checks their clauses too.
  World w;
  SolverOptions options;
  options.forced_backend = "sat";
  CertainSolver solver =
      std::move(CertainSolver::Create(w.q, options)).value();
  IncrementalSolver::SessionOptions no_session;
  no_session.enabled = false;
  IncrementalSolver warm(solver, w.pdb);
  IncrementalSolver cold(solver, w.pdb, CacheOptions{}, no_session);
  ASSERT_TRUE(warm.has_session());
  (void)warm.Solve(/*want_witness=*/false);
  (void)cold.Solve(/*want_witness=*/false);
  AuditReport warm_report;
  AuditReport cold_report;
  warm.AuditInto(warm_report);
  cold.AuditInto(cold_report);
  EXPECT_TRUE(warm_report.ok()) << warm_report.ToString();
  EXPECT_GT(warm_report.checks, cold_report.checks);
}

TEST(AuditTest, ReportMergeAndOverflowAccounting) {
  AuditReport a;
  a.checks = 5;
  for (int i = 0; i < 100; ++i) a.Add("arena", "violation " + std::to_string(i));
  EXPECT_EQ(a.total_violations, 100u);
  EXPECT_EQ(a.violations.size(), AuditReport::kMaxRecorded);

  AuditReport b;
  b.checks = 7;
  b.Add("lru", "one more");
  a.Merge(b);
  EXPECT_EQ(a.total_violations, 101u);
  EXPECT_EQ(a.checks, 12u);
  EXPECT_TRUE(a.Names("arena"));
  EXPECT_FALSE(a.Names("lru"));  // Dropped past the recording cap.
  EXPECT_NE(a.ToString().find("more not recorded"), std::string::npos);
}

TEST(AuditTest, LruAuditInvariantsCleanOnHealthyCache) {
  LruCache<int, std::string> cache(CacheOptions{/*max_entries=*/3});
  cache.Insert(1, "a", 10);
  cache.Insert(2, "b", 20);
  cache.Insert(3, "c", 30);
  cache.Insert(4, "d", 40);  // Evicts 1.
  std::vector<std::string> messages;
  std::size_t violations =
      cache.AuditInvariants([&](const std::string& m) { messages.push_back(m); });
  EXPECT_EQ(violations, 0u) << (messages.empty() ? "" : messages.front());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes(), 90u);
}

TEST(AuditTest, ServiceEntryPointAuditsAndCounts) {
  Service service;
  auto q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  Database db(q->query().schema());
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  db.AddFactStr(0, "b d");
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());
  ASSERT_TRUE(service.Solve(*q, "db").ok());  // Populates a solver + cache.

  StatusOr<AuditReport> report = service.AuditDatabase("db");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->ToString();
  EXPECT_GT(report->checks, 0u);

  StatusOr<AuditReport> missing = service.AuditDatabase("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  EXPECT_EQ(stats.databases[0].audits_run, 1u);
  EXPECT_EQ(stats.databases[0].audit_violations, 0u);
  EXPECT_NE(stats.ToString().find("audits: runs=1"), std::string::npos);
}

}  // namespace
}  // namespace cqa
