// Randomized integration sweep: random two-atom self-join queries with
// random instances. Checks that
//   (a) the classifier is total and internally coherent (footnote 3 of the
//       paper: 2way-determined <=> condition (1) holds and (2) fails;
//       Theorem 6.1 applies exactly when condition (1) fails),
//   (b) the dispatching solver agrees with brute-force repair enumeration
//       on every random instance, whatever class the query landed in,
//   (c) Cert_k stays sound on arbitrary queries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/certk.h"
#include "algo/exhaustive.h"
#include "base/check.h"
#include "base/rng.h"
#include "classify/classifier.h"
#include "classify/conditions.h"
#include "engine/solver.h"
#include "gen/workloads.h"

#include "make_solver.h"
#include "query/hom.h"
#include "query/query.h"

namespace cqa {
namespace {


/// A random two-atom self-join query: arity 2..4, key length 1..arity-1,
/// positions drawn from a small variable pool.
ConjunctiveQuery RandomTwoAtomQuery(Rng* rng) {
  std::uint32_t arity = 2 + static_cast<std::uint32_t>(rng->Below(3));
  std::uint32_t key_len =
      1 + static_cast<std::uint32_t>(rng->Below(arity));
  std::uint32_t pool = 2 + static_cast<std::uint32_t>(rng->Below(4));
  Schema schema;
  RelationId rel = schema.AddRelation("R", arity, key_len);
  std::vector<std::string> names;
  for (std::uint32_t v = 0; v < pool; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  auto random_atom = [&] {
    QueryAtom atom;
    atom.relation = rel;
    for (std::uint32_t i = 0; i < arity; ++i) {
      atom.vars.push_back(static_cast<VarId>(rng->Below(pool)));
    }
    return atom;
  };
  return ConjunctiveQuery(std::move(schema), std::move(names),
                          {random_atom(), random_atom()});
}

TripathSearchLimits FastLimits() {
  TripathSearchLimits limits;
  limits.max_up = 1;
  limits.max_down = 1;
  limits.max_merges = 1;
  limits.full_partition_threshold = 4;
  limits.max_candidates = 20000;
  return limits;
}

class RandomQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryTest, ClassifierIsTotalAndCoherent) {
  Rng rng(0xAB00 + GetParam());
  for (int round = 0; round < 30; ++round) {
    ConjunctiveQuery q = RandomTwoAtomQuery(&rng);
    Classification c = ClassifyQuery(q, FastLimits());
    // Complexity assignment is consistent with the class.
    switch (c.query_class) {
      case QueryClass::kTrivial:
      case QueryClass::kPTimeCert2:
      case QueryClass::kPTimeNoTripath:
      case QueryClass::kPTimeTriangleOnly:
      case QueryClass::kSjfFirstOrder:
      case QueryClass::kSjfPTime:
        EXPECT_EQ(c.complexity, Complexity::kPTime) << q.ToString();
        break;
      case QueryClass::kCoNPHardCondition:
      case QueryClass::kCoNPForkTripath:
      case QueryClass::kSjfCoNPComplete:
        EXPECT_EQ(c.complexity, Complexity::kCoNPComplete) << q.ToString();
        break;
      case QueryClass::kUnresolved:
        EXPECT_EQ(c.complexity, Complexity::kUnknown) << q.ToString();
        break;
    }
    // Footnote 3: 2way-determined iff (1) holds and (2) fails, for
    // non-trivial queries.
    if (ClassifyTrivial(q) == TrivialReason::kNotTrivial) {
      EXPECT_EQ(Is2WayDetermined(q),
                Theorem42Condition1(q) && !Theorem42Condition2(q))
          << q.ToString();
      EXPECT_EQ(Theorem61Applies(q), !Theorem42Condition1(q))
          << q.ToString();
    }
  }
}

TEST_P(RandomQueryTest, SolverAgreesWithEnumeration) {
  Rng rng(0xCD00 + GetParam());
  for (int round = 0; round < 8; ++round) {
    ConjunctiveQuery q = RandomTwoAtomQuery(&rng);
    SolverOptions options;
    options.tripath_limits = FastLimits();
    CertainSolver solver = MakeSolver(q, options);
    for (int inst = 0; inst < 6; ++inst) {
      InstanceParams params;
      params.num_facts = 10;
      params.domain_size = 3;
      Database db = RandomInstance(q, params, &rng);
      if (db.CountRepairs() > 1e5) continue;
      EXPECT_EQ(solver.Solve(db, /*want_witness=*/false)->certain,
                CertainByEnumeration(q, db))
          << q.ToString() << "\n"
          << ToString(solver.classification().query_class) << "\n"
          << db.ToString();
    }
  }
}

TEST_P(RandomQueryTest, CertKSoundOnRandomQueries) {
  Rng rng(0xEF00 + GetParam());
  for (int round = 0; round < 10; ++round) {
    ConjunctiveQuery q = RandomTwoAtomQuery(&rng);
    InstanceParams params;
    params.num_facts = 10;
    params.domain_size = 3;
    Database db = RandomInstance(q, params, &rng);
    if (db.CountRepairs() > 1e5) continue;
    if (CertK(q, db, 2)) {
      EXPECT_TRUE(CertainByEnumeration(q, db))
          << q.ToString() << "\n"
          << db.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace cqa
