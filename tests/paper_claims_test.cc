// Semantic spot-checks of claims made in the paper's prose that are not
// covered elsewhere: q6 is a clique-query (Theorem 10.4), certain(AB) =
// certain(BA), q5's no-tripath argument, and small structural corners
// (arity-1 relations, key-only atoms).

#include <gtest/gtest.h>

#include "algo/exhaustive.h"
#include "algo/matching.h"
#include "base/check.h"
#include "base/rng.h"
#include "engine/solver.h"
#include "gen/workloads.h"

#include "make_solver.h"
#include "query/eval.h"
#include "query/query.h"
#include "query/solution_graph.h"
#include "tripath/search.h"

namespace cqa {
namespace {


constexpr const char* kQ5 = "R(x | y, x) R(y | x, u)";
constexpr const char* kQ6 = "R(x | y, z) R(z | x, y)";

// "The query q6 is a clique-query as the solution graph of any database is
// a clique-database" (Section 10.1) — checked on random instances.
TEST(PaperClaims, Q6IsACliqueQueryObservationally) {
  auto q6 = ParseQuery(kQ6);
  Rng rng(0x104);
  for (int round = 0; round < 40; ++round) {
    InstanceParams params;
    params.num_facts = 20;
    params.domain_size = 4;
    Database db = RandomInstance(q6, params, &rng);
    SolutionGraph sg = BuildSolutionGraph(q6, db);
    EXPECT_TRUE(IsCliqueDatabase(sg, db)) << db.ToString();
  }
}

// Theorem 10.4: for clique-queries, certain(q) = NOT matching(q) on every
// database, not only on hand-picked clique instances.
TEST(PaperClaims, Theorem104OnQ6RandomInstances) {
  auto q6 = ParseQuery(kQ6);
  Rng rng(0x105);
  for (int round = 0; round < 40; ++round) {
    InstanceParams params;
    params.num_facts = 14;
    params.domain_size = 3;
    Database db = RandomInstance(q6, params, &rng);
    EXPECT_EQ(NotMatchingCertain(q6, db), ExhaustiveCertain(q6, db))
        << db.ToString();
  }
}

// q = AB and BA have the same certain answers (used implicitly throughout
// Section 6 "by symmetry").
TEST(PaperClaims, CertainIsSwapInvariantSemantically) {
  for (const char* text : {kQ5, kQ6, "R(x | y) R(y | z)",
                           "R(x, u | x, y) R(u, y | x, z)"}) {
    auto q = ParseQuery(text);
    auto swapped = q.Swapped();
    Rng rng(0x106);
    for (int round = 0; round < 15; ++round) {
      InstanceParams params;
      params.num_facts = 12;
      params.domain_size = 3;
      Database db = RandomInstance(q, params, &rng);
      EXPECT_EQ(ExhaustiveCertain(q, db), ExhaustiveCertain(swapped, db))
          << text << "\n"
          << db.ToString();
    }
  }
}

// Section 8's q5 argument: any d, e, f with q5(d e) and q5(e f) has two of
// them key-equal, so no center exists. Checked on random instances.
TEST(PaperClaims, Q5CentersAlwaysDegenerate) {
  auto q5 = ParseQuery(kQ5);
  Rng rng(0x107);
  for (int round = 0; round < 25; ++round) {
    InstanceParams params;
    params.num_facts = 16;
    params.domain_size = 3;
    Database db = RandomInstance(q5, params, &rng);
    SolutionSet s = ComputeSolutions(q5, db);
    for (const auto& [d, e] : s.pairs) {
      for (const auto& [e2, f] : s.pairs) {
        if (e != e2) continue;
        // Two of d, e, f must share a block.
        bool degenerate = db.KeyEqual(d, e) || db.KeyEqual(e, f) ||
                          db.KeyEqual(d, f);
        EXPECT_TRUE(degenerate) << db.ToString();
      }
    }
  }
}

// Arity-1 / key-only corner: R(x |) R(y |) is one-atom equivalent and its
// certain answering degenerates to nonemptiness per block.
TEST(PaperClaims, KeyOnlyAtomsAreTrivial) {
  auto q = ParseQuery("R(x |) R(y |)");
  EXPECT_EQ(q.schema().Relation(0).arity, 1u);
  EXPECT_EQ(q.schema().Relation(0).key_len, 1u);
  CertainSolver solver = MakeSolver(q);
  EXPECT_EQ(solver.classification().query_class, QueryClass::kTrivial);
  Database db(q.schema());
  // Empty database.
  EXPECT_FALSE(solver.Solve(db, /*want_witness=*/false)->certain);
  db.AddFactStr(0, "a");
  // Any fact matches both atoms.
  EXPECT_TRUE(solver.Solve(db, /*want_witness=*/false)->certain);
}

// certain is monotone under adding a fresh *consistent* fact that extends
// no block: it can only add solutions... but only when the fact's block is
// new; adding alternatives to existing blocks can break certainty. Both
// directions exercised.
TEST(PaperClaims, BlockExtensionCanOnlyHurtCertainty) {
  auto q3 = ParseQuery("R(x | y) R(y | z)");
  Database db(q3.schema());
  db.AddFactStr(0, "a b");
  db.AddFactStr(0, "b c");
  ASSERT_TRUE(ExhaustiveCertain(q3, db));
  // New singleton block: harmless here.
  db.AddFactStr(0, "z1 z2");
  EXPECT_TRUE(ExhaustiveCertain(q3, db));
  // Extending an existing block with a "dead" fact kills certainty.
  db.AddFactStr(0, "a dead");
  EXPECT_FALSE(ExhaustiveCertain(q3, db));
}

}  // namespace
}  // namespace cqa
