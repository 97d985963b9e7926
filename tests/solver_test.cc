// End-to-end tests for the CertainSolver dispatcher: across the paper's
// catalog and random instances, the dispatched polynomial algorithms must
// agree with the exhaustive ground truth, and the dispatcher must pick the
// algorithm the dichotomy prescribes.

#include <gtest/gtest.h>

#include <string>

#include "algo/exhaustive.h"
#include "algo/trivial.h"
#include "base/check.h"
#include "base/rng.h"
#include "engine/solver.h"
#include "gen/workloads.h"

#include "make_solver.h"
#include "query/query.h"

namespace cqa {
namespace {


struct CatalogEntry {
  const char* text;
  SolverAlgorithm expected_algorithm;
};

class SolverCatalogTest : public ::testing::TestWithParam<CatalogEntry> {};

TEST_P(SolverCatalogTest, DispatchesExpectedAlgorithm) {
  CertainSolver solver = MakeSolver(ParseQuery(GetParam().text));
  Database db(solver.query().schema());
  StatusOr<SolveReport> report = solver.Solve(db, /*want_witness=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->algorithm, GetParam().expected_algorithm);
}

TEST_P(SolverCatalogTest, AgreesWithGroundTruthOnRandomInstances) {
  auto q = ParseQuery(GetParam().text);
  CertainSolver solver = MakeSolver(q);
  Rng rng(0xD15C0);
  for (int round = 0; round < 40; ++round) {
    InstanceParams params;
    params.num_facts = 12;
    params.domain_size = 3;
    Database db = RandomInstance(q, params, &rng);
    bool expected = CertainByEnumeration(q, db);
    bool actual = solver.Solve(db, /*want_witness=*/false)->certain;
    EXPECT_EQ(actual, expected) << db.ToString();
  }
}

// Deterministic certain instances so every dispatch path exercises its
// yes-branch (random q6/trivial workloads are almost never certain).
TEST(SolverYesBranch, Q6GluedTriangles) {
  auto q6 = ParseQuery("R(x | y, z) R(z | x, y)");
  CertainSolver solver = MakeSolver(q6);
  Database db(q6.schema());
  db.AddFactStr(0, "e1 e2 e3");
  db.AddFactStr(0, "e3 e1 e2");
  db.AddFactStr(0, "e2 e3 e1");
  db.AddFactStr(0, "e1 e3 e2");
  db.AddFactStr(0, "e2 e1 e3");
  db.AddFactStr(0, "e3 e2 e1");
  ASSERT_TRUE(CertainByEnumeration(q6, db));
  EXPECT_TRUE(solver.Solve(db, /*want_witness=*/false)->certain);
}

TEST(SolverYesBranch, TrivialHomQuery) {
  auto q = ParseQuery("R(x | y) R(y | y)");
  CertainSolver solver = MakeSolver(q);
  Database db(q.schema());
  db.AddFactStr(0, "c c");  // Singleton block matching R(y | y).
  db.AddFactStr(0, "a b");
  ASSERT_TRUE(CertainByEnumeration(q, db));
  EXPECT_TRUE(solver.Solve(db, /*want_witness=*/false)->certain);
}

TEST(SolverYesBranch, HardClassExhaustive) {
  auto q2 = ParseQuery("R(x, u | x, y) R(u, y | x, z)");
  CertainSolver solver = MakeSolver(q2);
  Database db(q2.schema());
  // Single unavoidable solution: two singleton blocks.
  db.AddFactStr(0, "a b a c");
  db.AddFactStr(0, "b c a d");
  ASSERT_TRUE(CertainByEnumeration(q2, db));
  StatusOr<SolveReport> report = solver.Solve(db, /*want_witness=*/false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->certain);
  EXPECT_EQ(report->algorithm, SolverAlgorithm::kExhaustive);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SolverCatalogTest,
    ::testing::Values(
        CatalogEntry{"R(x, u | x, v) R(v, y | u, y)",
                     SolverAlgorithm::kExhaustive},  // q1
        CatalogEntry{"R(x, u | x, y) R(u, y | x, z)",
                     SolverAlgorithm::kExhaustive},  // q2
        CatalogEntry{"R(x | y) R(y | z)", SolverAlgorithm::kCert2},  // q3
        CatalogEntry{"R(x, x | u, v) R(x, y | u, x)",
                     SolverAlgorithm::kCert2},  // q4
        CatalogEntry{"R(x | y, x) R(y | x, u)",
                     SolverAlgorithm::kCertK},  // q5
        CatalogEntry{"R(x | y, z) R(z | x, y)",
                     SolverAlgorithm::kCertKOrMatching},  // q6
        CatalogEntry{"R(x | y) R(y | y)", SolverAlgorithm::kTrivialScan},
        CatalogEntry{"R(x, y | u) R(x, y | v)",
                     SolverAlgorithm::kTrivialScan}));

TEST(TrivialSolver, EqualKeysScan) {
  auto q = ParseQuery("R(x, y | u) R(x, y | v)");
  Database db(q.schema());
  db.AddFactStr(0, "a b c");
  // A single fact matches both atoms (u, v unconstrained): certain.
  EXPECT_TRUE(TrivialCertain(q, TrivialReason::kEqualKeys, db));
}

TEST(TrivialSolver, EqualKeysWithRepeats) {
  auto q = ParseQuery("R(x, y | x) R(x, y | y)");
  Database db(q.schema());
  db.AddFactStr(0, "a b a");  // Matches A (pos2 = x = a) but not B.
  EXPECT_FALSE(TrivialCertain(q, TrivialReason::kEqualKeys, db));
  db.AddFactStr(0, "c c c");  // Matches both; singleton block: certain.
  EXPECT_TRUE(TrivialCertain(q, TrivialReason::kEqualKeys, db));
}

TEST(TrivialSolver, HomCaseScansBlocks) {
  auto q = ParseQuery("R(x | y) R(y | y)");
  Database db(q.schema());
  db.AddFactStr(0, "a b");
  EXPECT_FALSE(TrivialCertain(q, TrivialReason::kHomToSingleAtom, db));
  db.AddFactStr(0, "c c");  // Matches B's pattern; singleton block.
  EXPECT_TRUE(TrivialCertain(q, TrivialReason::kHomToSingleAtom, db));
  db.AddFactStr(0, "c d");  // Escape for that block.
  EXPECT_FALSE(TrivialCertain(q, TrivialReason::kHomToSingleAtom, db));
}

TEST(TrivialSolver, MatchesExhaustiveOnRandomInstances) {
  for (const char* text : {"R(x | y) R(y | y)", "R(x, y | u) R(x, y | v)",
                           "R(x, y | x) R(x, y | y)"}) {
    auto q = ParseQuery(text);
    TrivialReason reason = ClassifyTrivial(q);
    ASSERT_NE(reason, TrivialReason::kNotTrivial) << text;
    Rng rng(0x7717);
    for (int round = 0; round < 30; ++round) {
      InstanceParams params;
      params.num_facts = 10;
      params.domain_size = 3;
      Database db = RandomInstance(q, params, &rng);
      EXPECT_EQ(TrivialCertain(q, reason, db), CertainByEnumeration(q, db))
          << text << "\n"
          << db.ToString();
    }
  }
}

TEST(Solver, ClassificationIsExposed) {
  CertainSolver solver = MakeSolver(ParseQuery("R(x | y, z) R(z | x, y)"));
  EXPECT_EQ(solver.classification().query_class,
            QueryClass::kPTimeTriangleOnly);
}

TEST(Solver, PracticalKIsConfigurable) {
  SolverOptions options;
  options.practical_k = 2;
  CertainSolver solver = MakeSolver(ParseQuery("R(x | y, x) R(y | x, u)"), options);
  Database db(solver.query().schema());
  db.AddFactStr(0, "a b a");
  EXPECT_FALSE(solver.Solve(db, /*want_witness=*/false)->certain);
}

}  // namespace
}  // namespace cqa
