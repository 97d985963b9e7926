// Incremental-vs-rebuild equivalence: the delta-maintained structures
// (Database block partition, PreparedDatabase indexes, DynamicComponents
// partition, IncrementalSolver verdict cache) must be observationally
// identical to a from-scratch rebuild after ANY sequence of inserts and
// deletes. The 1000-sequence property tests drive random mutation
// sequences through both paths and compare answers, classes, indexes,
// and verified witnesses at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algo/dynamic_components.h"
#include "api/service.h"
#include "base/rng.h"
#include "data/audit.h"
#include "data/prepared.h"
#include "engine/incremental.h"
#include "gen/workloads.h"
#include "query/eval.h"
#include "reduction/sat_reduction.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "tripath/search.h"

namespace cqa {
namespace {

// ---------------------------------------------------------------------
// Canonical (id-free) renderings, comparable across databases that hold
// the same facts under different FactIds/ElementIds.
// ---------------------------------------------------------------------

std::string CanonicalFact(const Database& db, FactId id) {
  return db.FactToString(id);
}

/// The block partition as a sorted list of sorted fact renderings.
std::vector<std::vector<std::string>> CanonicalBlocks(const Database& db) {
  std::vector<std::vector<std::string>> out;
  for (const Block& b : db.blocks()) {
    std::vector<std::string> facts;
    for (FactId f : b.facts) facts.push_back(CanonicalFact(db, f));
    std::sort(facts.begin(), facts.end());
    out.push_back(std::move(facts));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Per-relation fact index as sorted renderings.
std::vector<std::vector<std::string>> CanonicalFactsOf(
    const PreparedDatabase& pdb) {
  std::vector<std::vector<std::string>> out;
  for (RelationId r = 0; r < pdb.schema().NumRelations(); ++r) {
    std::vector<std::string> facts;
    for (FactId f : pdb.FactsOf(r)) {
      facts.push_back(CanonicalFact(pdb.db(), f));
    }
    std::sort(facts.begin(), facts.end());
    out.push_back(std::move(facts));
  }
  return out;
}

/// The component partition as a sorted list of sorted member renderings.
std::vector<std::vector<std::string>> CanonicalComponents(
    const DynamicComponents& comps, const Database& db) {
  std::vector<std::vector<std::string>> out;
  for (const auto& [root, comp] : comps.components()) {
    std::vector<std::string> members;
    for (FactId f : comp.members) members.push_back(CanonicalFact(db, f));
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Structural invariants the delta-maintained structures must uphold:
/// every alive fact is in the block BlockOf claims, every block is
/// findable through the key index, and the prepared per-relation block
/// index matches the partition.
void CheckStructuralInvariants(const Database& db,
                               const PreparedDatabase& pdb) {
  const std::vector<Block>& blocks = db.blocks();
  std::size_t facts_in_blocks = 0;
  for (BlockId b = 0; b < blocks.size(); ++b) {
    ASSERT_FALSE(blocks[b].facts.empty()) << "empty block survived";
    facts_in_blocks += blocks[b].facts.size();
    for (FactId f : blocks[b].facts) {
      ASSERT_TRUE(db.alive(f));
      ASSERT_EQ(db.BlockOf(f), b);
    }
    KeyView key{blocks[b].key.data(),
                static_cast<std::uint32_t>(blocks[b].key.size())};
    ASSERT_EQ(pdb.FindBlock(blocks[b].relation, key), b);
  }
  ASSERT_EQ(facts_in_blocks, db.NumAliveFacts());

  std::multiset<BlockId> indexed;
  for (RelationId r = 0; r < db.schema().NumRelations(); ++r) {
    for (BlockId b : pdb.BlocksOf(r)) {
      ASSERT_EQ(blocks[b].relation, r);
      indexed.insert(b);
    }
  }
  ASSERT_EQ(indexed.size(), blocks.size());
  for (BlockId b = 0; b < blocks.size(); ++b) {
    ASSERT_EQ(indexed.count(b), 1u) << "block missing or duplicated";
  }
}

// ---------------------------------------------------------------------
// Mutation-sequence scaffolding shared by the property tests.
// ---------------------------------------------------------------------

struct SpecPool {
  std::vector<FactSpec> specs;          ///< Distinct candidate facts.
  std::vector<std::size_t> present;     ///< Indices currently in the db.
  std::vector<std::size_t> absent;      ///< Indices currently not.
};

FactSpec SpecOf(const Database& db, FactId id) {
  FactRef fact = db.fact(id);
  FactSpec spec;
  spec.relation = db.schema().Relation(fact.relation).name;
  for (ElementId el : fact.args) spec.args.push_back(db.elements().Name(el));
  return spec;
}

/// A pool of candidate facts drawn from the query's own workload
/// distribution; the first `initial` are present at the start.
SpecPool MakePool(const ConjunctiveQuery& q, std::uint32_t pool_size,
                  std::uint32_t initial, Rng* rng) {
  InstanceParams params;
  params.num_facts = pool_size;
  params.domain_size = 4;
  Database pool = RandomInstance(q, params, rng);
  SpecPool out;
  for (FactId f = 0; f < pool.NumFacts(); ++f) {
    out.specs.push_back(SpecOf(pool, f));
    if (f < initial) {
      out.present.push_back(f);
    } else {
      out.absent.push_back(f);
    }
  }
  return out;
}

Database BuildFromSpecs(const Schema& schema, const SpecPool& pool) {
  Database db(schema);
  for (std::size_t idx : pool.present) {
    const FactSpec& spec = pool.specs[idx];
    db.AddFactNamed(schema.Find(spec.relation), spec.args);
  }
  return db;
}

/// One random mutation step: returns the spec and whether it inserts.
/// Updates the pool's present/absent bookkeeping.
const FactSpec& RandomStep(SpecPool* pool, Rng* rng, bool* is_insert) {
  bool insert = pool->present.empty() ||
                (!pool->absent.empty() && rng->Chance(0.5));
  *is_insert = insert;
  std::vector<std::size_t>& from = insert ? pool->absent : pool->present;
  std::vector<std::size_t>& to = insert ? pool->present : pool->absent;
  std::size_t pick = rng->Below(from.size());
  std::size_t idx = from[pick];
  from.erase(from.begin() + pick);
  to.push_back(idx);
  return pool->specs[idx];
}

// ---------------------------------------------------------------------
// Database + PreparedDatabase delta maintenance basics.
// ---------------------------------------------------------------------

TEST(DatabaseMutation, RemoveFactTombstonesAndMaintainsBlocks) {
  auto q = ParseQuery("R(x | y) R(y | z)");
  Database db(q.schema());
  FactId ab = db.AddFactStr(0, "a b");
  FactId ac = db.AddFactStr(0, "a c");
  FactId bc = db.AddFactStr(0, "b c");
  ASSERT_EQ(db.blocks().size(), 2u);  // Forces the partition.

  Database::RemovedFact removed = db.RemoveFact(ac);
  EXPECT_FALSE(removed.block_removed);
  EXPECT_FALSE(db.alive(ac));
  EXPECT_TRUE(db.alive(ab));
  EXPECT_EQ(db.NumFacts(), 3u);       // Slots stay.
  EXPECT_EQ(db.NumAliveFacts(), 2u);
  EXPECT_EQ(db.blocks().size(), 2u);
  EXPECT_FALSE(db.Contains(db.MaterializeFact(ac)));

  // Removing the last fact of a block swap-removes the block.
  removed = db.RemoveFact(bc);
  EXPECT_TRUE(removed.block_removed);
  EXPECT_EQ(db.blocks().size(), 1u);
  EXPECT_EQ(db.BlockOf(ab), 0u);
  EXPECT_EQ(db.FindBlock(0, db.KeyViewOf(ab)), 0u);

  // Re-adding previously deleted content creates a fresh slot.
  FactId ac2 = db.AddFactStr(0, "a c");
  EXPECT_EQ(ac2, 3u);
  EXPECT_TRUE(db.alive(ac2));
  EXPECT_EQ(db.BlockOf(ac2), db.BlockOf(ab));
  EXPECT_EQ(db.NumAliveFacts(), 2u);
}

TEST(DatabaseMutation, IncrementalInsertAfterPartitionBuiltMatchesLazy) {
  auto q = ParseQuery("R(x | y) R(y | z)");
  Database lazy(q.schema());
  Database incremental(q.schema());
  const char* rows[] = {"a b", "a c", "b d", "c a", "b e", "a d"};
  (void)incremental.blocks();  // Force early: every insert is incremental.
  for (const char* row : rows) {
    lazy.AddFactStr(0, row);
    incremental.AddFactStr(0, row);
  }
  EXPECT_EQ(CanonicalBlocks(lazy), CanonicalBlocks(incremental));
}

// ---------------------------------------------------------------------
// Property: delta-maintained indexes == from-scratch rebuild, and the
// dynamic component partition == a fresh partition, across 1000 random
// insert/delete sequences (the first half of the ISSUE's equivalence
// bar; the solve-level half follows below).
// ---------------------------------------------------------------------

TEST(IncrementalProperty, IndexesAndComponentsMatchRebuild) {
  const char* kQueries[] = {
      "R(x | y) R(y | z)",
      "R(x, u | x, y) R(u, y | x, z)",
      "R(x | y, z) R(z | x, y)",
      "R(x | y) R(y | y)",
  };
  const int kSequences = 1000;
  const int kSteps = 10;
  for (int seq = 0; seq < kSequences; ++seq) {
    auto q = ParseQuery(kQueries[seq % 4]);
    Rng rng(0x1234000 + seq);
    SpecPool pool = MakePool(q, 40, 20, &rng);

    Database db = BuildFromSpecs(q.schema(), pool);
    PreparedDatabase pdb(db);
    DynamicComponents comps(q, pdb);

    for (int step = 0; step < kSteps; ++step) {
      bool is_insert = false;
      const FactSpec& spec = RandomStep(&pool, &rng, &is_insert);
      RelationId rel = db.schema().Find(spec.relation);
      if (is_insert) {
        FactId id = db.AddFactNamed(rel, spec.args);
        pdb.ApplyInsert(id);
        comps.OnInsert(id);
      } else {
        Fact fact;
        fact.relation = rel;
        for (const std::string& name : spec.args) {
          fact.args.push_back(db.elements().Find(name));
        }
        FactId id = db.FindFact(fact);
        ASSERT_NE(id, Database::kNoFact);
        Database::RemovedFact removed = db.RemoveFact(id);
        pdb.ApplyRemove(id, removed);
        comps.OnRemove(id);
      }

      ASSERT_NO_FATAL_FAILURE(CheckStructuralInvariants(db, pdb))
          << "seq " << seq << " step " << step;

      // Deep audit: every delta-maintained structure against a fresh
      // re-derivation (data/audit.h).
      AuditReport audit = AuditDatabase(db);
      audit.Merge(AuditPrepared(pdb));
      audit.Merge(AuditComponents(q, pdb, comps));
      ASSERT_TRUE(audit.ok())
          << audit.ToString() << "seq " << seq << " step " << step;

      Database fresh = BuildFromSpecs(q.schema(), pool);
      PreparedDatabase fresh_pdb(fresh);
      ASSERT_EQ(CanonicalBlocks(db), CanonicalBlocks(fresh))
          << "seq " << seq << " step " << step;
      ASSERT_EQ(CanonicalFactsOf(pdb), CanonicalFactsOf(fresh_pdb))
          << "seq " << seq << " step " << step;

      DynamicComponents fresh_comps(q, fresh_pdb);
      ASSERT_EQ(CanonicalComponents(comps, db),
                CanonicalComponents(fresh_comps, fresh))
          << "seq " << seq << " step " << step;

      // Fingerprints must agree fact-content-wise with the rebuild: the
      // multiset of fingerprints is the cache key space.
      std::multiset<std::uint64_t> a, b;
      for (const auto& [root, comp] : comps.components()) {
        a.insert(comp.fingerprint.sum ^ comp.fingerprint.xr);
      }
      for (const auto& [root, comp] : fresh_comps.components()) {
        b.insert(comp.fingerprint.sum ^ comp.fingerprint.xr);
      }
      ASSERT_EQ(a, b) << "seq " << seq << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------
// Property: Service-level delta solves == from-scratch rebuild solves
// (answers, classes, verified witnesses), across 1000 random
// insert/delete sequences, covering dispatched and forced backends.
// ---------------------------------------------------------------------

TEST(IncrementalProperty, DeltaSolvesMatchRebuildSolves) {
  struct Setup {
    const char* query;
    const char* forced;  // nullptr: dichotomy dispatch.
  };
  const Setup kSetups[] = {
      {"R(x | y) R(y | z)", nullptr},            // cert2
      {"R(x, u | x, y) R(u, y | x, z)", nullptr},
      {"R(x | y, z) R(z | x, y)", nullptr},
      {"R(x | y) R(y | y)", nullptr},            // trivial (explains)
      {"R(x | y) R(y | z)", "exhaustive"},       // witness-bearing
      {"R(x | y) R(y | z)", "sat"},              // witness-bearing
      {"R(x | y, x) R(y | x, u)", "exhaustive"},
      {"R(x | y, z) R(z | x, y)", "sat"},
  };
  const int kSequences = 1000;
  const int kSteps = 8;
  std::uint64_t total_cached = 0;
  std::uint64_t total_resolved = 0;
  for (int seq = 0; seq < kSequences; ++seq) {
    const Setup& setup = kSetups[seq % 8];
    Service service;
    CompileOptions copts;
    if (setup.forced != nullptr) copts.forced_backend = setup.forced;
    StatusOr<CompiledQuery> q = service.Compile(setup.query, copts);
    ASSERT_TRUE(q.ok()) << q.status().ToString();

    Rng rng(0xABC9000 + seq);
    SpecPool pool = MakePool(q->query(), 36, 18, &rng);
    ASSERT_TRUE(service
                    .RegisterDatabase("db",
                                      BuildFromSpecs(q->query().schema(),
                                                     pool))
                    .ok());

    for (int step = 0; step < kSteps; ++step) {
      bool is_insert = false;
      const FactSpec& spec = RandomStep(&pool, &rng, &is_insert);
      MutationStats stats;
      Status applied =
          is_insert ? service.InsertFacts("db", {spec}, &stats)
                    : service.DeleteFacts("db", {spec}, &stats);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
      ASSERT_EQ(stats.applied, 1u);

      StatusOr<SolveReport> delta = service.Solve(*q, "db");
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      EXPECT_TRUE(delta->incremental);

      // Deep audit of everything the mutation + solve delta-patched,
      // through the service's own entry point.
      StatusOr<AuditReport> audit = service.AuditDatabase("db");
      ASSERT_TRUE(audit.ok()) << audit.status().ToString();
      ASSERT_TRUE(audit->ok())
          << audit->ToString() << "seq " << seq << " step " << step;
      EXPECT_EQ(delta->components_cached + delta->components_resolved,
                delta->components_total);
      total_cached += delta->components_cached;
      total_resolved += delta->components_resolved;

      Database fresh = BuildFromSpecs(q->query().schema(), pool);
      StatusOr<SolveReport> rebuild = service.Solve(*q, fresh);
      ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
      EXPECT_FALSE(rebuild->incremental);

      ASSERT_EQ(delta->certain, rebuild->certain)
          << setup.query << " seq " << seq << " step " << step << "\n"
          << fresh.ToString();
      EXPECT_EQ(delta->query_class, rebuild->query_class);
      EXPECT_EQ(delta->algorithm, rebuild->algorithm);
      EXPECT_EQ(delta->num_facts, rebuild->num_facts);
      EXPECT_EQ(delta->num_blocks, rebuild->num_blocks);

      // Witness parity: both paths explain (or neither does), and every
      // witness verifies against its own database from first principles.
      ASSERT_EQ(delta->witness.has_value(), rebuild->witness.has_value())
          << setup.query << " seq " << seq << " step " << step;
      if (delta->witness.has_value()) {
        Status ok = VerifyWitness(q->query(),
                                  *delta->witness->database(),
                                  *delta->witness);
        ASSERT_TRUE(ok.ok()) << ok.ToString() << "\nseq " << seq;
      }
      if (rebuild->witness.has_value()) {
        Status ok = VerifyWitness(q->query(), fresh, *rebuild->witness);
        ASSERT_TRUE(ok.ok()) << ok.ToString() << "\nseq " << seq;
      }
    }
  }
  // The cache must actually be doing work across the run. (These dense
  // random instances often collapse into one big q-connected component,
  // where a single-fact delta legitimately dirties most of the database;
  // exact per-solve reuse accounting is pinned by
  // IncrementalSolverTest.UntouchedComponentsAreCached below.)
  EXPECT_GT(total_cached, 1000u);
}

// ---------------------------------------------------------------------
// Targeted reuse accounting on a hand-built two-component database.
// ---------------------------------------------------------------------

TEST(IncrementalSolverTest, UntouchedComponentsAreCached) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());

  Database db(q->query().schema());
  // Component 1: a -> b -> c chain with a blockmate (inconsistent).
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  db.AddFactStr(0, "b d");
  // Component 2: disjoint u -> v chain.
  db.AddFactStr(0, "u v");
  db.AddFactStr(0, "v w");
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());

  StatusOr<SolveReport> first = service.Solve(*q, "db");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->incremental);
  EXPECT_EQ(first->components_total, 2u);
  EXPECT_EQ(first->components_resolved, 2u);  // Cold cache.
  EXPECT_EQ(first->components_cached, 0u);

  // An unchanged re-solve is all cache hits.
  StatusOr<SolveReport> again = service.Solve(*q, "db");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->components_cached, 2u);
  EXPECT_EQ(again->components_resolved, 0u);

  // Touch only component 2: component 1's verdict is reused.
  ASSERT_TRUE(service.InsertFacts("db", {{"R", {"v", "x"}}}).ok());
  StatusOr<SolveReport> delta = service.Solve(*q, "db");
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->components_total, 2u);
  EXPECT_EQ(delta->components_cached, 1u);
  EXPECT_EQ(delta->components_resolved, 1u);

  // Deleting the new fact restores component 2's previous fingerprint:
  // everything is cached again.
  ASSERT_TRUE(service.DeleteFacts("db", {{"R", {"v", "x"}}}).ok());
  StatusOr<SolveReport> restored = service.Solve(*q, "db");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->components_cached, 2u);
  EXPECT_EQ(restored->components_resolved, 0u);
}

// The non-witness hot path is O(dirty components): after a warm solve, a
// one-fact delta plus a solve looks up the history cache once per dirty
// component, never once per component. No timing: the lookup counters
// are the evidence.
TEST(IncrementalSolverTest, DeltaSolveLooksUpOnlyDirtyComponents) {
  ConjunctiveQuery q = ParseQuery("R(x | y) R(y | z)");
  StatusOr<CertainSolver> solver = CertainSolver::Create(q);
  ASSERT_TRUE(solver.ok());
  const int kComponents = 300;
  Database db(q.schema());
  for (int i = 0; i < kComponents; ++i) {
    std::string n = std::to_string(i);
    db.AddFactNamed(0, {"a" + n, "b" + n});
    db.AddFactNamed(0, {"a" + n, "c" + n});
  }
  PreparedDatabase pdb(db);
  IncrementalSolver inc(*solver, pdb);
  auto lookups = [&inc] {
    CacheCounters c = inc.VerdictCacheCounters();
    return c.hits + c.misses;
  };

  SolveReport warm = inc.Solve(/*want_witness=*/false);
  ASSERT_EQ(warm.components_total, static_cast<std::uint64_t>(kComponents));
  EXPECT_EQ(warm.components_resolved, warm.components_total);

  // Nothing changed: no lookup at all.
  std::uint64_t before = lookups();
  SolveReport again = inc.Solve(false);
  EXPECT_EQ(lookups(), before);
  EXPECT_EQ(again.components_resolved, 0u);
  EXPECT_EQ(again.components_cached, again.components_total);

  // R(b7 | d) joins component 7 (R(a7 | b7) R(b7 | d) is a solution):
  // exactly one component is dirty.
  FactId inserted = db.AddFactNamed(0, {"b7", "d"});
  pdb.ApplyInsert(inserted);
  inc.OnInsert(inserted);
  before = lookups();
  SolveReport delta = inc.Solve(false);
  EXPECT_LE(lookups() - before, 1u);
  EXPECT_EQ(delta.components_total, static_cast<std::uint64_t>(kComponents));
  EXPECT_EQ(delta.components_resolved, 1u);
  EXPECT_EQ(delta.components_cached + delta.components_resolved,
            delta.components_total);
  EXPECT_EQ(delta.certain, warm.certain);

  // Deleting it restores component 7's old content: one lookup, a history
  // hit, no backend run.
  Database::RemovedFact removed = db.RemoveFact(inserted);
  pdb.ApplyRemove(inserted, removed);
  inc.OnRemove(inserted);
  before = lookups();
  CacheCounters hits_before = inc.VerdictCacheCounters();
  SolveReport restored = inc.Solve(false);
  EXPECT_LE(lookups() - before, 1u);
  EXPECT_EQ(inc.VerdictCacheCounters().hits, hits_before.hits + 1);
  EXPECT_EQ(restored.components_resolved, 0u);
  EXPECT_EQ(restored.components_cached, restored.components_total);

  AuditReport audit;
  inc.AuditInto(audit);
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

// The history cache's entry cap is exact: retiring far more distinct
// component contents than the cap never leaves more than the cap cached,
// at any step.
TEST(IncrementalSolverTest, HistoryCacheHoldsItsExactEntryCap) {
  ServiceOptions options;
  options.verdict_cache = CacheOptions{/*max_entries=*/5, /*max_bytes=*/0};
  Service service(options);
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  Database db(q->query().schema());
  db.AddFactStr(0, "a b");
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());

  // Every R(b | c<i>) joins the one component, so each solve retires the
  // verdict of its previous content: 40 distinct retired contents.
  const int kSteps = 40;
  for (int i = 0; i < kSteps; ++i) {
    ASSERT_TRUE(service.Solve(*q, "db").ok());
    ASSERT_TRUE(
        service.InsertFacts("db", {{"R", {"b", "c" + std::to_string(i)}}})
            .ok());
    ServiceStats stats = service.Stats();
    ASSERT_EQ(stats.databases.size(), 1u);
    ASSERT_LE(stats.databases[0].verdicts.entries, 5u) << "step " << i;
  }
  ASSERT_TRUE(service.Solve(*q, "db").ok());
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.databases[0].verdicts.entries, 5u);
  EXPECT_EQ(stats.databases[0].verdicts.evictions,
            static_cast<std::uint64_t>(kSteps - 5));
}

// ---------------------------------------------------------------------
// Warm per-component SAT sessions vs the materialized cold path.
// ---------------------------------------------------------------------

TEST(IncrementalSolverTest, WarmSatSessionsMatchColdPathOver1000Steps) {
  // Two services solving the same 1000-step mutation sequence through the
  // sat backend: one with warm per-component CDCL sessions (solvers keep
  // learned clauses across mutations; stale blocks retract via
  // activation-literal units), one with sessions disabled (every
  // component solve materializes a sub-database and encodes from
  // scratch). Verdicts and witness validity must agree at every step —
  // the whole point of the encoding's diff-against-current-membership
  // discipline is that warmth is a pure optimization. Aggressive
  // compaction on the warm service routes the sequence through
  // ApplyRemap's var-pinning path too.
  ServiceOptions warm_opts;
  warm_opts.compact_dead_ratio = 0.3;
  warm_opts.compact_min_slots = 8;
  ServiceOptions cold_opts;
  cold_opts.warm_sat_solvers = false;
  Service warm(warm_opts);
  Service cold(cold_opts);
  CompileOptions copts;
  copts.forced_backend = "sat";
  StatusOr<CompiledQuery> qw = warm.Compile("R(x | y) R(y | z)", copts);
  StatusOr<CompiledQuery> qc = cold.Compile("R(x | y) R(y | z)", copts);
  ASSERT_TRUE(qw.ok() && qc.ok());

  Rng rng(0xFEED5EED);
  SpecPool pool = MakePool(qw->query(), 48, 24, &rng);
  Database seed = BuildFromSpecs(qw->query().schema(), pool);
  ASSERT_TRUE(warm.RegisterDatabase("db", seed).ok());
  ASSERT_TRUE(cold.RegisterDatabase("db", std::move(seed)).ok());

  const int kSteps = 1000;
  for (int step = 0; step < kSteps; ++step) {
    bool is_insert = false;
    const FactSpec& spec = RandomStep(&pool, &rng, &is_insert);
    for (Service* s : {&warm, &cold}) {
      Status applied = is_insert ? s->InsertFacts("db", {spec})
                                 : s->DeleteFacts("db", {spec});
      ASSERT_TRUE(applied.ok()) << applied.ToString();
    }

    StatusOr<SolveReport> w = warm.Solve(*qw, "db");
    StatusOr<SolveReport> c = cold.Solve(*qc, "db");
    ASSERT_TRUE(w.ok() && c.ok());
    ASSERT_EQ(w->certain, c->certain) << "step " << step;
    EXPECT_TRUE(w->sat_warm);
    EXPECT_FALSE(c->sat_warm);
    ASSERT_EQ(w->witness.has_value(), c->witness.has_value())
        << "step " << step;
    if (w->witness.has_value()) {
      Status ok = VerifyWitness(qw->query(), *w->witness->database(),
                                *w->witness);
      ASSERT_TRUE(ok.ok()) << ok.ToString() << "\nstep " << step;
    }
    // Periodic deep audit + forced compaction: the warm session must
    // survive arbitrary FactId remaps mid-sequence.
    if (step % 97 == 96) {
      ASSERT_TRUE(warm.CompactDatabase("db").ok());
      StatusOr<AuditReport> audit = warm.AuditDatabase("db");
      ASSERT_TRUE(audit.ok() && audit->ok())
          << "step " << step << "\n"
          << (audit.ok() ? audit->ToString() : audit.status().ToString());
      StatusOr<SolveReport> after = warm.Solve(*qw, "db");
      ASSERT_TRUE(after.ok());
      ASSERT_EQ(after->certain, c->certain) << "post-compact step " << step;
    }
  }

  // The warm machinery demonstrably ran: sessions solved, re-solved warm
  // solvers, and retracted stale block clauses as the database churned.
  ServiceStats stats = warm.Stats();
  ASSERT_EQ(stats.databases.size(), 1u);
  const ServiceStats::DatabaseStats& d = stats.databases[0];
  EXPECT_GT(d.sat.solves, 0u);
  EXPECT_GT(d.sat.warm_solves, 0u);
  EXPECT_GT(d.sat.clauses_retracted, 0u);
  EXPECT_GT(d.sat_solvers.entries, 0u);
  ServiceStats cold_stats = cold.Stats();
  EXPECT_EQ(cold_stats.databases[0].sat.solves, 0u);
}

// ---------------------------------------------------------------------
// Warm SAT sessions vs the cold path on targeted streams: the warm
// falsifier encodes solution clauses only for facts it has not seen, so
// these streams aim at the ways a fact can be new to a falsifier.
// ---------------------------------------------------------------------

/// A warm sat service and a cold one (warm_sat_solvers=false: every
/// component solve materializes the component and encodes it from
/// scratch with EncodeFalsifierCnf) fed identical mutations.
class WarmColdServices {
 public:
  explicit WarmColdServices(const char* query_text)
      : warm_(Options(true)), cold_(Options(false)) {
    CompileOptions copts;
    copts.forced_backend = "sat";
    StatusOr<CompiledQuery> qw = warm_.Compile(query_text, copts);
    StatusOr<CompiledQuery> qc = cold_.Compile(query_text, copts);
    CQA_CHECK(qw.ok() && qc.ok());
    qw_ = std::move(qw).value();
    qc_ = std::move(qc).value();
  }

  const ConjunctiveQuery& query() const { return qw_.query(); }

  void Register(const Database& db) {
    ASSERT_TRUE(warm_.RegisterDatabase("db", db).ok());
    ASSERT_TRUE(cold_.RegisterDatabase("db", db).ok());
    Compare("initial state");
  }

  /// Applies one mutation to both services, then compares their answers.
  void Step(bool insert, const FactSpec& spec, const std::string& what) {
    for (Service* s : {&warm_, &cold_}) {
      Status applied = insert ? s->InsertFacts("db", {spec})
                              : s->DeleteFacts("db", {spec});
      ASSERT_TRUE(applied.ok()) << what << ": " << applied.ToString();
    }
    Compare(what);
  }

  /// Forced compaction of the warm side, then a deep audit — which checks
  /// every live falsifier's solution clauses against a brute-force join —
  /// and a fresh comparison.
  void CompactAndAudit(const std::string& what) {
    ASSERT_TRUE(warm_.CompactDatabase("db").ok());
    StatusOr<AuditReport> audit = warm_.AuditDatabase("db");
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    ASSERT_TRUE(audit->ok()) << what << "\n" << audit->ToString();
    Compare(what);
  }

  /// Warm-session solver counters of the database.
  CdclStats WarmSatStats() const { return warm_.Stats().databases.at(0).sat; }

 private:
  static ServiceOptions Options(bool warm) {
    ServiceOptions opts;
    opts.warm_sat_solvers = warm;
    return opts;
  }

  void Compare(const std::string& what) {
    StatusOr<SolveReport> w = warm_.Solve(qw_, "db");
    StatusOr<SolveReport> c = cold_.Solve(qc_, "db");
    ASSERT_TRUE(w.ok() && c.ok()) << what;
    ASSERT_TRUE(w->sat_warm) << what;
    ASSERT_EQ(w->certain, c->certain) << what;
    ASSERT_EQ(w->witness.has_value(), c->witness.has_value()) << what;
    if (w->witness.has_value()) {
      Status ok = VerifyWitness(query(), *w->witness->database(), *w->witness);
      ASSERT_TRUE(ok.ok()) << what << ": " << ok.ToString();
    }
  }

  Service warm_;
  Service cold_;
  CompiledQuery qw_;
  CompiledQuery qc_;
};

/// Runs a random mutation stream over `pool` through both services:
/// deletes (which may split a component), re-inserts of deleted tuples
/// (a new id, so a fresh variable), back-to-back delete + re-insert of
/// one tuple, forced compactions, and — when `bridges` — merges: two
/// facts m, m2 of a new block are inserted and solved as their own
/// component, then a bridge fact n joins the block of a present fact
/// and forms solutions with m and m2, merging two solved components so
/// the falsifier of the merged one meets m and m2 for the first time.
/// The bridge is later deleted again (a split) and sometimes re-inserted.
/// For q2 = R(x, u | x, y) R(u, y | x, z) and a present fact with key
/// (k1, k2): n = (k1, k2, k1, y) matches atom 0, and m = (k2, y, k1, z)
/// is its atom-1 partner.
void RunWarmColdStream(WarmColdServices* pair, SpecPool pool, bool bridges,
                       std::uint64_t seed, int steps) {
  Rng rng(seed);
  FactSpec n, m, m2;
  bool bridged = false;
  int bridges_built = 0;
  for (int step = 0; step < steps; ++step) {
    std::string at = "step " + std::to_string(step);
    std::uint64_t kind = rng.Below(10);
    if (bridges && kind >= 8) {
      if (bridged) {
        ASSERT_NO_FATAL_FAILURE(pair->Step(false, n, at + " split bridge"));
        bridged = false;
      } else if (bridges_built > 0 && rng.Chance(0.5)) {
        ASSERT_NO_FATAL_FAILURE(pair->Step(true, n, at + " re-bridge"));
        bridged = true;
      } else if (!pool.present.empty()) {
        const FactSpec& host =
            pool.specs[pool.present[rng.Below(pool.present.size())]];
        std::string y = "bridge" + std::to_string(bridges_built) + "y";
        const std::string& k1 = host.args[0];
        const std::string& k2 = host.args[1];
        n = FactSpec{"R", {k1, k2, k1, y}};
        m = FactSpec{"R", {k2, y, k1, y + "z1"}};
        m2 = FactSpec{"R", {k2, y, k1, y + "z2"}};
        ++bridges_built;
        ASSERT_NO_FATAL_FAILURE(pair->Step(true, m, at + " bridge side m"));
        ASSERT_NO_FATAL_FAILURE(pair->Step(true, m2, at + " bridge side m2"));
        ASSERT_NO_FATAL_FAILURE(pair->Step(true, n, at + " merge"));
        bridged = true;
      }
    } else if (kind == 7 && !pool.present.empty()) {
      const FactSpec& spec =
          pool.specs[pool.present[rng.Below(pool.present.size())]];
      ASSERT_NO_FATAL_FAILURE(pair->Step(false, spec, at + " delete"));
      ASSERT_NO_FATAL_FAILURE(pair->Step(true, spec, at + " re-insert"));
    } else {
      bool insert = false;
      const FactSpec& spec = RandomStep(&pool, &rng, &insert);
      ASSERT_NO_FATAL_FAILURE(pair->Step(insert, spec, at));
    }
    if (step % 29 == 28) {
      ASSERT_NO_FATAL_FAILURE(pair->CompactAndAudit(at + " compaction"));
    }
  }
  if (bridges) {
    EXPECT_GT(bridges_built, 0);
  }
  EXPECT_GT(pair->WarmSatStats().warm_solves, 0u);
}

/// The facts of one Lemma 9.2 gadget with every element name prefixed, so
/// gadgets in one database stay disjoint; all present.
void AddGadget(const SatGadget& gadget, const std::string& prefix,
               SpecPool* pool) {
  for (FactId f = 0; f < gadget.db.NumFacts(); ++f) {
    FactSpec spec = SpecOf(gadget.db, f);
    for (std::string& arg : spec.args) arg = prefix + arg;
    pool->present.push_back(pool->specs.size());
    pool->specs.push_back(std::move(spec));
  }
}

/// (a|b)(~a|b)(~b|c)(~c|d)(~c|~d): reduction-ready and unsatisfiable, so
/// its gadget is certain (Lemma 9.2).
CnfFormula UnsatReductionReadyFormula() {
  CnfFormula phi;
  phi.num_vars = 4;
  auto lit = [](std::uint32_t v, bool pos) { return Literal{v, pos}; };
  phi.clauses = {
      {lit(0, true), lit(1, true)},   {lit(0, false), lit(1, true)},
      {lit(1, false), lit(2, true)},  {lit(2, false), lit(3, true)},
      {lit(2, false), lit(3, false)},
  };
  return phi;
}

TEST(WarmSatDifferentialTest, Q2CertainGadgetStreamMatchesColdPath) {
  // One certain gadget alone, so a wrong "not certain" from a missing
  // clause decides the whole answer.
  WarmColdServices pair("R(x, u | x, y) R(u, y | x, z)");
  std::optional<FoundTripath> fork = FindNiceForkTripath(pair.query());
  ASSERT_TRUE(fork.has_value());
  CnfFormula phi = UnsatReductionReadyFormula();
  ASSERT_FALSE(SolveDpll(phi).satisfiable);
  SpecPool pool;
  AddGadget(BuildSatGadget(pair.query(), *fork, phi), "g/", &pool);
  ASSERT_NO_FATAL_FAILURE(
      pair.Register(BuildFromSpecs(pair.query().schema(), pool)));
  RunWarmColdStream(&pair, std::move(pool), /*bridges=*/true, 0x9A2C, 300);
}

TEST(WarmSatDifferentialTest, Q2FalsifiableGadgetsStreamMatchesColdPath) {
  // Falsifiable gadgets: every non-certain answer carries a witness
  // assembled from every component's model, verified fact by fact.
  WarmColdServices pair("R(x, u | x, y) R(u, y | x, z)");
  std::optional<FoundTripath> fork = FindNiceForkTripath(pair.query());
  ASSERT_TRUE(fork.has_value());
  Rng rng(0x92F);
  SpecPool pool;
  AddGadget(BuildSatGadget(pair.query(), *fork, Figure2Formula()), "f/",
            &pool);
  AddGadget(BuildSatGadget(pair.query(), *fork,
                           RandomReductionReady3Sat(4, 6, &rng)),
            "r/", &pool);
  ASSERT_NO_FATAL_FAILURE(
      pair.Register(BuildFromSpecs(pair.query().schema(), pool)));
  RunWarmColdStream(&pair, std::move(pool), /*bridges=*/true, 0x9A2D, 300);
}

TEST(WarmSatDifferentialTest, SelfSolutionQueryMatchesColdPath) {
  // R(a | a) is a self-solution of q3: it can never be in a falsifying
  // repair, which only its unit clause tells the warm solver.
  WarmColdServices pair("R(x | y) R(y | z)");
  SpecPool pool;
  for (const char* key : {"a", "b", "c"}) {
    for (const char* value : {"a", "b", "c"}) {
      pool.absent.push_back(pool.specs.size());
      pool.specs.push_back(FactSpec{"R", {key, value}});
    }
  }
  pool.absent.erase(pool.absent.begin());  // "a a" starts present.
  pool.present.push_back(0);
  ASSERT_NO_FATAL_FAILURE(
      pair.Register(BuildFromSpecs(pair.query().schema(), pool)));
  RunWarmColdStream(&pair, std::move(pool), /*bridges=*/false, 0x5E1F, 300);
}

// ---------------------------------------------------------------------
// Mutation API error paths (all-or-nothing semantics).
// ---------------------------------------------------------------------

TEST(MutationApiTest, ValidatesBeforeApplying) {
  Service service;
  StatusOr<CompiledQuery> q = service.Compile("R(x | y) R(y | z)");
  ASSERT_TRUE(q.ok());
  Database db(q->query().schema());
  db.AddFactStr(0, "a b");
  ASSERT_TRUE(service.RegisterDatabase("db", std::move(db)).ok());

  // Unknown database.
  EXPECT_EQ(service.InsertFacts("nope", {{"R", {"a", "b"}}}).code(),
            StatusCode::kNotFound);

  // Unknown relation: nothing applied even though the first spec is fine.
  MutationStats stats;
  Status bad = service.InsertFacts(
      "db", {{"R", {"x", "y"}}, {"S", {"x", "y"}}}, &stats);
  EXPECT_EQ(bad.code(), StatusCode::kSchemaMismatch);
  EXPECT_EQ(stats.applied, 0u);
  StatusOr<SolveReport> report = service.Solve(*q, "db");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_facts, 1u);  // "R(x y)" was not inserted.

  // Arity mismatch.
  EXPECT_EQ(service.InsertFacts("db", {{"R", {"a", "b", "c"}}}).code(),
            StatusCode::kSchemaMismatch);

  // Deleting a missing fact (including never-interned element names).
  EXPECT_EQ(service.DeleteFacts("db", {{"R", {"a", "zzz"}}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.DeleteFacts("db", {{"R", {"b", "a"}}}).code(),
            StatusCode::kNotFound);

  // The same fact twice in one delete batch.
  EXPECT_EQ(service
                .DeleteFacts("db", {{"R", {"a", "b"}}, {"R", {"a", "b"}}})
                .code(),
            StatusCode::kInvalidArgument);

  // Duplicate insert is a counted no-op.
  MutationStats dup;
  ASSERT_TRUE(service.InsertFacts("db", {{"R", {"a", "b"}}}, &dup).ok());
  EXPECT_EQ(dup.applied, 0u);
  EXPECT_EQ(dup.ignored_duplicates, 1u);

  // Empty database after deleting everything: not certain, empty repair.
  ASSERT_TRUE(service.DeleteFacts("db", {{"R", {"a", "b"}}}).ok());
  StatusOr<SolveReport> empty = service.Solve(*q, "db");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->certain);
  EXPECT_EQ(empty->num_facts, 0u);
  EXPECT_EQ(empty->components_total, 0u);
}

}  // namespace
}  // namespace cqa
