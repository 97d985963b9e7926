// Tests for the q-connected partition (Proposition 10.6), its
// dynamically maintained form, and the repair sampling baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algo/certk.h"
#include "algo/components.h"
#include "algo/dynamic_components.h"
#include "algo/exhaustive.h"
#include "algo/matching.h"
#include "algo/sampling.h"
#include "base/rng.h"
#include "data/audit.h"
#include "data/prepared.h"
#include "gen/workloads.h"
#include "query/eval.h"
#include "query/query.h"
#include "query/solution_graph.h"
#include "tripath/search.h"

namespace cqa {
namespace {

constexpr const char* kQ2 = "R(x, u | x, y) R(u, y | x, z)";
constexpr const char* kQ5 = "R(x | y, x) R(y | x, u)";
constexpr const char* kQ6 = "R(x | y, z) R(z | x, y)";

Database SmallRandom(const ConjunctiveQuery& q, Rng* rng) {
  InstanceParams params;
  params.num_facts = 16;
  params.domain_size = 3;
  return RandomInstance(q, params, rng);
}

TEST(Components, PartitionCoversAllFacts) {
  auto q = ParseQuery(kQ6);
  Rng rng(0xC0);
  Database db = SmallRandom(q, &rng);
  auto comps = QConnectedComponents(q, db);
  std::size_t total = 0;
  for (const auto& c : comps) total += c.db.NumFacts();
  EXPECT_EQ(total, db.NumFacts());
}

TEST(Components, BlocksNeverSplitAcrossComponents) {
  auto q = ParseQuery(kQ6);
  Rng rng(0xC1);
  Database db = SmallRandom(q, &rng);
  auto comps = QConnectedComponents(q, db);
  // Map original fact -> component; key-equal facts must agree.
  std::vector<int> comp_of(db.NumFacts(), -1);
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    for (FactId orig : comps[ci].original_facts) {
      comp_of[orig] = static_cast<int>(ci);
    }
  }
  for (FactId a = 0; a < db.NumFacts(); ++a) {
    for (FactId b = 0; b < db.NumFacts(); ++b) {
      if (db.KeyEqual(a, b)) {
        EXPECT_EQ(comp_of[a], comp_of[b]);
      }
    }
  }
}

TEST(Components, SolutionsStayWithinComponents) {
  auto q = ParseQuery(kQ2);
  Rng rng(0xC2);
  Database db = SmallRandom(q, &rng);
  auto comps = QConnectedComponents(q, db);
  std::vector<int> comp_of(db.NumFacts(), -1);
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    for (FactId orig : comps[ci].original_facts) {
      comp_of[orig] = static_cast<int>(ci);
    }
  }
  SolutionSet s = ComputeSolutions(q, db);
  for (const auto& [a, b] : s.pairs) {
    EXPECT_EQ(comp_of[a], comp_of[b]);
  }
}

// Property (2) of Proposition 10.6: D certain iff some component certain.
class ComponentsProp2Test : public ::testing::TestWithParam<const char*> {};

TEST_P(ComponentsProp2Test, CertainIffSomeComponentCertain) {
  auto q = ParseQuery(GetParam());
  Rng rng(0xC3);
  for (int round = 0; round < 25; ++round) {
    Database db = SmallRandom(q, &rng);
    bool whole = ExhaustiveCertain(q, db);
    bool any_component = false;
    for (const auto& comp : QConnectedComponents(q, db)) {
      if (ExhaustiveCertain(q, comp.db)) {
        any_component = true;
        break;
      }
    }
    EXPECT_EQ(whole, any_component) << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(TwoWayDetermined, ComponentsProp2Test,
                         ::testing::Values(kQ2, kQ5, kQ6));

// Property (4): if D |= matching(q) then all components |= matching(q).
TEST(Components, MatchingRestrictsToComponents) {
  auto q = ParseQuery(kQ6);
  Rng rng(0xC4);
  for (int round = 0; round < 25; ++round) {
    Database db = SmallRandom(q, &rng);
    if (!MatchingAlgorithm(q, db)) continue;
    for (const auto& comp : QConnectedComponents(q, db)) {
      EXPECT_TRUE(MatchingAlgorithm(q, comp.db)) << db.ToString();
    }
  }
}

// Property (3): component-level Cert_k lifts to the whole database.
TEST(Components, CertKLiftsFromComponents) {
  auto q = ParseQuery(kQ6);
  Rng rng(0xC5);
  for (int round = 0; round < 25; ++round) {
    Database db = SmallRandom(q, &rng);
    for (const auto& comp : QConnectedComponents(q, db)) {
      if (CertK(q, comp.db, 3)) {
        EXPECT_TRUE(CertK(q, db, 3)) << db.ToString();
        break;
      }
    }
  }
}

// Property (1): without fork-tripaths, every component is clique or
// tripath-free. We verify the clique half observationally for q6.
TEST(Components, Q6ComponentsAreCliqueDatabases) {
  auto q6 = ParseQuery(kQ6);
  ASSERT_FALSE(SearchTripaths(q6).HasFork());
  Rng rng(0xC6);
  for (int round = 0; round < 10; ++round) {
    Database db = SmallRandom(q6, &rng);
    for (const auto& comp : QConnectedComponents(q6, db)) {
      SolutionGraph sg = BuildSolutionGraph(q6, comp.db);
      // q6 is a clique-query: every component must be a clique-database.
      EXPECT_TRUE(IsCliqueDatabase(sg, comp.db)) << comp.db.ToString();
    }
  }
}

TEST(Components, ComponentwiseSolverAgreesOnQ6) {
  auto q6 = ParseQuery(kQ6);
  Rng rng(0xC7);
  for (int round = 0; round < 30; ++round) {
    Database db = SmallRandom(q6, &rng);
    EXPECT_EQ(ComponentwiseCertain(q6, db, 3), ExhaustiveCertain(q6, db))
        << db.ToString();
  }
}

// --- Partner index of the dynamic partition ---------------------------------

/// A maintained partition fed the way engine/incremental.h feeds it: the
/// database and its preparation change at once, the partition absorbs
/// the queued deltas later, in order.
struct QueuedPartition {
  Database db;
  PreparedDatabase pdb;
  DynamicComponents comps;
  std::vector<std::pair<FactId, bool>> queue;  ///< (fact, is insert).

  QueuedPartition(const ConjunctiveQuery& q, Database initial)
      : db(std::move(initial)), pdb(db), comps(q, pdb) {}

  FactId Insert(const Fact& fact) {
    FactId id = db.AddFact(fact.relation, fact.args);
    pdb.ApplyInsert(id);
    queue.emplace_back(id, true);
    return id;
  }
  void Remove(FactId id) {
    Database::RemovedFact removed = db.RemoveFact(id);
    pdb.ApplyRemove(id, removed);
    queue.emplace_back(id, false);
  }
  void Flush() {
    for (const auto& [id, insert] : queue) {
      insert ? comps.OnInsert(id) : comps.OnRemove(id);
    }
    queue.clear();
  }
  void Compact() {
    FactIdRemap remap = db.Compact();
    pdb.ApplyRemap(remap);
    comps.ApplyRemap(remap);
  }
};

/// A partition as a set of sorted member renderings.
std::set<std::vector<std::string>> Canonical(
    const Database& db, const std::vector<std::vector<FactId>>& parts) {
  std::set<std::vector<std::string>> out;
  for (const std::vector<FactId>& part : parts) {
    std::vector<std::string> members;
    for (FactId f : part) members.push_back(db.FactToString(f));
    std::sort(members.begin(), members.end());
    out.insert(std::move(members));
  }
  return out;
}

// Random insert/delete streams whose deltas stay queued across several
// mutations (including an insert and a delete of the same fact inside
// one queue), with compactions between flushes: after every flush the
// maintained partition equals a fresh repartition, and every partner
// probe equals the brute-force relation scan.
TEST(PartnerIndexProperty, ProbesAndPartitionMatchBruteForce) {
  const char* kQueries[] = {
      "R(x | y) R(y | z)",  // q3
      kQ5,
      kQ6,
      "R(x | y) R(y | y)",  // Repeated variable: q(f f) partners.
      "R(x | y) R(u | v)",  // No shared variable: one signature.
      // Atom 1's signature is not its key, so a signature group spans
      // blocks and only the index connects it.
      "R(x | y, y) R(z | y, w)",
  };
  const int kSequences = 300;
  const int kFlushes = 10;
  for (int seq = 0; seq < kSequences; ++seq) {
    const char* text = kQueries[seq % std::size(kQueries)];
    auto q = ParseQuery(text);
    Rng rng(0x9A27000 + seq);
    InstanceParams params;
    params.num_facts = 24;
    params.domain_size = 4;
    Database candidates = RandomInstance(q, params, &rng);
    std::vector<Fact> pool;
    for (FactId f = 0; f < candidates.NumFacts(); ++f) {
      pool.push_back(candidates.MaterializeFact(f));
    }
    // Candidates share the pool's interner, so a Fact is valid in db.
    Database initial = candidates;
    (void)initial.blocks();  // Removal patches a built partition.
    for (FactId f = 0; f < initial.NumFacts(); ++f) {
      if (f % 2 == 1) (void)initial.RemoveFact(f);
    }
    QueuedPartition w(q, std::move(initial));
    RelationBinding binding(q, w.db);

    for (int flush = 0; flush < kFlushes; ++flush) {
      int mutations = 1 + static_cast<int>(rng.Below(4));
      for (int m = 0; m < mutations; ++m) {
        const Fact& fact = pool[rng.Below(pool.size())];
        FactId id = w.db.FindFact(fact);
        if (id != Database::kNoFact) {
          w.Remove(id);
          continue;
        }
        FactId inserted = w.Insert(fact);
        if (rng.Chance(0.25)) w.Remove(inserted);  // Dies inside the queue.
      }
      w.Flush();
      if (flush % 4 == 3) w.Compact();

      std::string where = std::string(text) + " seq " +
                          std::to_string(seq) + " flush " +
                          std::to_string(flush);
      AuditReport audit = AuditComponents(q, w.pdb, w.comps);
      ASSERT_TRUE(audit.ok()) << audit.ToString() << where;

      std::vector<std::vector<FactId>> maintained;
      for (const auto& [root, comp] : w.comps.components()) {
        maintained.push_back(comp.members);
      }
      std::vector<std::vector<FactId>> fresh;
      for (const QConnectedComponent& c : QConnectedComponents(q, w.db)) {
        fresh.push_back(c.original_facts);
      }
      ASSERT_EQ(Canonical(w.db, maintained), Canonical(w.db, fresh)) << where;

      for (FactId f = 0; f < w.db.NumFacts(); ++f) {
        if (!w.db.alive(f)) continue;
        std::vector<FactId> probed = w.comps.Partners(f);
        std::vector<FactId> scanned;  // Brute force over directed pairs.
        for (FactId g = 0; g < w.db.NumFacts(); ++g) {
          if (!w.db.alive(g)) continue;
          if (IsSolution(q, binding, w.db, f, g)) scanned.push_back(g);
          if (g != f && IsSolution(q, binding, w.db, g, f)) {
            scanned.push_back(g);
          }
        }
        std::sort(probed.begin(), probed.end());
        std::sort(scanned.begin(), scanned.end());
        ASSERT_EQ(probed, scanned) << "fact " << f << " " << where;
      }
    }
  }
}

// --- Sampling ---------------------------------------------------------------

TEST(Sampling, FalsifierProvesNotCertain) {
  auto q = ParseQuery(kQ6);
  Rng rng(0x5A);
  for (int round = 0; round < 20; ++round) {
    Database db = SmallRandom(q, &rng);
    SamplingResult r = SampleRepairs(q, db, 64, round);
    if (r.found_falsifier) {
      EXPECT_FALSE(ExhaustiveCertain(q, db)) << db.ToString();
    }
  }
}

TEST(Sampling, CertainInstancesAlwaysSatisfy) {
  auto q = ParseQuery(kQ6);
  Database db(q.schema());
  db.AddFactStr(0, "a b c");
  db.AddFactStr(0, "c a b");
  db.AddFactStr(0, "b c a");
  SamplingResult r = SampleRepairs(q, db, 32, 7);
  EXPECT_FALSE(r.found_falsifier);
  EXPECT_EQ(r.satisfying, r.samples);
  EXPECT_DOUBLE_EQ(r.SatisfyingFraction(), 1.0);
}

TEST(Sampling, EarlyStopOnFalsifier) {
  auto q = ParseQuery("R(x | y) R(y | z)");
  Database db(q.schema());
  db.AddFactStr(0, "a b");  // No solution at all: every repair falsifies.
  SamplingResult r = SampleRepairs(q, db, 1000, 3, /*stop_at_falsifier=*/true);
  EXPECT_TRUE(r.found_falsifier);
  EXPECT_EQ(r.samples, 1u);
}

}  // namespace
}  // namespace cqa
