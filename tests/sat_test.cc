// Unit and property tests for src/sat: CNF machinery, DPLL, the CDCL
// core, and generators.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "sat/cdcl.h"
#include "sat/cnf.h"
#include "sat/dpll.h"
#include "sat/gen.h"

namespace cqa {
namespace {

CnfFormula Parse(std::uint32_t num_vars,
                 std::initializer_list<std::initializer_list<int>> clauses) {
  // Positive literal i+1, negative -(i+1).
  CnfFormula f;
  f.num_vars = num_vars;
  for (const auto& c : clauses) {
    Clause clause;
    for (int lit : c) {
      clause.push_back(
          Literal{static_cast<std::uint32_t>(std::abs(lit)) - 1, lit > 0});
    }
    f.clauses.push_back(clause);
  }
  return f;
}

TEST(Cnf, EvaluateBasics) {
  CnfFormula f = Parse(2, {{1, -2}, {2}});
  EXPECT_TRUE(f.Evaluate({true, true}));
  EXPECT_FALSE(f.Evaluate({false, false}));
  EXPECT_FALSE(f.Evaluate({true, false}));
}

TEST(Cnf, OccurrenceCounts) {
  CnfFormula f = Parse(3, {{1, -2}, {2, 3}, {-1, 2}});
  auto counts = f.OccurrenceCounts();
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(Cnf, PolarityCounts) {
  CnfFormula f = Parse(2, {{1, -2}, {1, 2}});
  std::vector<std::uint32_t> pos, neg;
  f.PolarityCounts(&pos, &neg);
  EXPECT_EQ(pos[0], 2u);
  EXPECT_EQ(neg[0], 0u);
  EXPECT_EQ(pos[1], 1u);
  EXPECT_EQ(neg[1], 1u);
}

TEST(Cnf, ReductionReadyChecks) {
  EXPECT_TRUE(Parse(2, {{1, -2}, {-1, 2}}).IsReductionReady());
  // Variable 1 occurs once: not ready.
  EXPECT_FALSE(Parse(2, {{1, -2}, {-1}, {-1}}).IsReductionReady());
  // Variable occurs 4 times: not ready.
  EXPECT_FALSE(
      Parse(2, {{1, 2}, {-1, 2}, {1, -2}, {-1, -2}}).IsReductionReady());
  // Single polarity: not ready.
  EXPECT_FALSE(Parse(2, {{1, 2}, {1, -2}}).IsReductionReady());
  // Duplicate variable in a clause: not ready.
  EXPECT_FALSE(Parse(2, {{1, 1, -2}, {-1, 2}}).IsReductionReady());
}

TEST(Dpll, SimpleSat) {
  SatResult r = SolveDpll(Parse(2, {{1, 2}, {-1, 2}}));
  EXPECT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[1]);  // 2 must be true? Not forced: -1,2 | 1,2.
}

TEST(Dpll, SimpleUnsat) {
  SatResult r = SolveDpll(Parse(1, {{1}, {-1}}));
  EXPECT_FALSE(r.satisfiable);
}

TEST(Dpll, EmptyFormulaIsSat) {
  CnfFormula f;
  f.num_vars = 3;
  EXPECT_TRUE(SolveDpll(f).satisfiable);
}

TEST(Dpll, EmptyClauseIsUnsat) {
  CnfFormula f;
  f.num_vars = 1;
  f.clauses.push_back({});
  EXPECT_FALSE(SolveDpll(f).satisfiable);
}

TEST(Dpll, UnitPropagationChain) {
  // 1; -1|2; -2|3; -3|4 forces all true.
  SatResult r = SolveDpll(Parse(4, {{1}, {-1, 2}, {-2, 3}, {-3, 4}}));
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[0]);
  EXPECT_TRUE(r.assignment[3]);
}

TEST(Dpll, PigeonholeUnsat) {
  // 3 pigeons, 2 holes. Variables p_{i,h} = 2i + h + 1.
  CnfFormula f = Parse(6, {{1, 2},
                           {3, 4},
                           {5, 6},
                           {-1, -3},
                           {-1, -5},
                           {-3, -5},
                           {-2, -4},
                           {-2, -6},
                           {-4, -6}});
  EXPECT_FALSE(SolveDpll(f).satisfiable);
}

class DpllRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DpllRandomTest, AgreesWithBruteForce) {
  Rng rng(777 + GetParam());
  for (int round = 0; round < 30; ++round) {
    std::uint32_t nv = 3 + rng.Below(6);
    std::uint32_t nc = 2 + rng.Below(20);
    CnfFormula f = RandomKSat(nv, nc, 3, &rng);
    EXPECT_EQ(SolveDpll(f).satisfiable, SolveBruteForce(f).satisfiable)
        << f.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpllRandomTest, ::testing::Range(0, 5));

TEST(LimitOccurrences, CapsAtThree) {
  Rng rng(42);
  for (int round = 0; round < 10; ++round) {
    CnfFormula f = RandomKSat(5, 25, 3, &rng);
    CnfFormula limited = LimitOccurrences(f);
    auto counts = limited.OccurrenceCounts();
    for (std::uint32_t c : counts) EXPECT_LE(c, 3u);
  }
}

TEST(LimitOccurrences, PreservesSatisfiability) {
  Rng rng(43);
  for (int round = 0; round < 20; ++round) {
    CnfFormula f = RandomKSat(4 + rng.Below(3), 5 + rng.Below(15), 3, &rng);
    CnfFormula limited = LimitOccurrences(f);
    EXPECT_EQ(SolveDpll(f).satisfiable, SolveDpll(limited).satisfiable)
        << f.ToString();
  }
}

TEST(LimitOccurrences, DropsTautologies) {
  CnfFormula f = Parse(2, {{1, -1, 2}});
  CnfFormula limited = LimitOccurrences(f);
  EXPECT_TRUE(limited.clauses.empty());
}

TEST(EliminatePure, RemovesSinglePolarityVariables) {
  // Variable 1 occurs only positively: clauses containing it vanish.
  CnfFormula f = Parse(3, {{1, 2}, {-2, 3}, {2, -3}});
  CnfFormula out = EliminatePureAndSingletons(f);
  // After removing clause {1,2}: var 2 occurs -2, +2; var 3 occurs +3, -3.
  EXPECT_EQ(out.clauses.size(), 2u);
}

TEST(EliminatePure, PreservesSatisfiability) {
  Rng rng(44);
  for (int round = 0; round < 20; ++round) {
    CnfFormula f = RandomKSat(5, 6 + rng.Below(10), 3, &rng);
    CnfFormula out = EliminatePureAndSingletons(f);
    // Pure elimination can only preserve or reveal satisfiability; it
    // never turns SAT into UNSAT or vice versa.
    EXPECT_EQ(SolveDpll(f).satisfiable, SolveDpll(out).satisfiable)
        << f.ToString();
  }
}

TEST(Generators, ReductionReady3SatIsReady) {
  Rng rng(45);
  for (int round = 0; round < 10; ++round) {
    CnfFormula f = RandomReductionReady3Sat(6, 8, &rng);
    EXPECT_TRUE(f.IsReductionReady());
    EXPECT_TRUE(f.MaxClauseSize(3));
    EXPECT_FALSE(f.clauses.empty());
  }
}

TEST(Generators, Figure2FormulaMatchesPaper) {
  CnfFormula f = Figure2Formula();
  EXPECT_EQ(f.clauses.size(), 3u);
  EXPECT_TRUE(f.IsReductionReady());
  SatResult r = SolveDpll(f);
  EXPECT_TRUE(r.satisfiable);  // E.g. s=false, t=false, u=false? Check:
  // (~s|t|u)=T, (~s|~t|u)=T, (s|~t|~u)=T with all false. Yes.
  EXPECT_TRUE(f.Evaluate({false, false, false}));
}

TEST(Generators, RandomKSatShape) {
  Rng rng(46);
  CnfFormula f = RandomKSat(7, 12, 3, &rng);
  EXPECT_EQ(f.num_vars, 7u);
  EXPECT_EQ(f.clauses.size(), 12u);
  for (const Clause& c : f.clauses) {
    EXPECT_EQ(c.size(), 3u);
    // Distinct variables within a clause.
    EXPECT_NE(c[0].var, c[1].var);
    EXPECT_NE(c[1].var, c[2].var);
    EXPECT_NE(c[0].var, c[2].var);
  }
}


// --- CDCL core (sat/cdcl.h) ---------------------------------------------

TEST(Cdcl, SimpleSat) {
  CnfFormula f = Parse(2, {{1, -2}, {2}});
  SatResult r = SolveCdcl(f);
  EXPECT_TRUE(r.satisfiable);
  EXPECT_TRUE(f.Evaluate(r.assignment));
}

TEST(Cdcl, SimpleUnsat) {
  CnfFormula f = Parse(1, {{1}, {-1}});
  EXPECT_FALSE(SolveCdcl(f).satisfiable);
}

TEST(Cdcl, EmptyFormulaIsSat) {
  CnfFormula f;
  f.num_vars = 3;
  SatResult r = SolveCdcl(f);
  EXPECT_TRUE(r.satisfiable);
  EXPECT_EQ(r.assignment.size(), 3u);  // Total model even with no clauses.
}

TEST(Cdcl, EmptyClauseIsUnsat) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses.push_back({});
  EXPECT_FALSE(SolveCdcl(f).satisfiable);
}

TEST(Cdcl, UnitPropagationChain) {
  // 1, 1->2, 2->3: all forced at level zero, no decisions needed.
  CnfFormula f = Parse(3, {{1}, {-1, 2}, {-2, 3}});
  CdclStats stats;
  SatResult r = SolveCdcl(f, &stats);
  EXPECT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[0] && r.assignment[1] && r.assignment[2]);
  EXPECT_EQ(stats.conflicts, 0u);
}

/// Pigeonhole formula PHP(pigeons, holes): variable p_{i,h} says pigeon i
/// sits in hole h. Unsatisfiable whenever pigeons > holes, and famously
/// resolution-hard — deciding it exercises conflict analysis, clause
/// learning, and backjumping rather than plain propagation.
CnfFormula Pigeonhole(std::uint32_t pigeons, std::uint32_t holes) {
  CnfFormula f;
  f.num_vars = pigeons * holes;
  auto var = [&](std::uint32_t i, std::uint32_t h) { return i * holes + h; };
  for (std::uint32_t i = 0; i < pigeons; ++i) {
    Clause some_hole;
    for (std::uint32_t h = 0; h < holes; ++h) {
      some_hole.push_back(Literal{var(i, h), true});
    }
    f.clauses.push_back(some_hole);
  }
  for (std::uint32_t h = 0; h < holes; ++h) {
    for (std::uint32_t i = 0; i < pigeons; ++i) {
      for (std::uint32_t j = i + 1; j < pigeons; ++j) {
        f.clauses.push_back(
            {Literal{var(i, h), false}, Literal{var(j, h), false}});
      }
    }
  }
  return f;
}

TEST(Cdcl, PigeonholeUnsatRequiresLearnedClauses) {
  CdclStats stats;
  EXPECT_FALSE(SolveCdcl(Pigeonhole(5, 4), &stats).satisfiable);
  // The refutation cannot be pure unit propagation: the solver must have
  // hit conflicts and learned clauses from them.
  EXPECT_GT(stats.conflicts, 0u);
  EXPECT_GT(stats.learned_clauses, 0u);
  EXPECT_GT(stats.decisions, 0u);
}

TEST(Cdcl, AgreesWithDpllOnPigeonholeSizes) {
  for (std::uint32_t holes = 1; holes <= 4; ++holes) {
    CnfFormula f = Pigeonhole(holes + 1, holes);
    EXPECT_EQ(SolveCdcl(f).satisfiable, SolveDpll(f).satisfiable);
    EXPECT_TRUE(SolveCdcl(Pigeonhole(holes, holes)).satisfiable);
  }
}

TEST(Cdcl, SatisfiableModelIsTotalAndVerified) {
  Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    std::uint32_t nv = 5 + rng.Below(20);
    CnfFormula f = RandomKSat(nv, nv * 2, 3, &rng);
    SatResult r = SolveCdcl(f);
    if (!r.satisfiable) continue;
    ASSERT_EQ(r.assignment.size(), nv);
    EXPECT_TRUE(f.Evaluate(r.assignment)) << f.ToString();
  }
}

TEST(Cdcl, HardRandomInstancesCollectStats) {
  // Near the 4.26 threshold the solver must restart and decay activities;
  // this pins the stats plumbing (and implicitly the Luby schedule) on a
  // formula too hard for propagation alone.
  Rng rng(99);
  CnfFormula f = RandomKSat(60, 255, 3, &rng);
  CdclStats stats;
  SatResult r = SolveCdcl(f, &stats);
  SatResult d = SolveDpll(f);
  EXPECT_EQ(r.satisfiable, d.satisfiable);
  EXPECT_GT(stats.propagations, stats.decisions);
  EXPECT_GT(stats.conflicts, 0u);
}

/// ~200 randomized rounds of DPLL-vs-CDCL agreement across formula
/// shapes: 5 seeds x (30 brute-force-sized + 10 medium) rounds.
class CdclRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CdclRandomTest, AgreesWithDpllAndBruteForce) {
  Rng rng(1234 + GetParam());
  for (int round = 0; round < 30; ++round) {
    std::uint32_t nv = 3 + rng.Below(6);
    std::uint32_t nc = 2 + rng.Below(20);
    CnfFormula f = RandomKSat(nv, nc, 3, &rng);
    SatResult r = SolveCdcl(f);
    EXPECT_EQ(r.satisfiable, SolveBruteForce(f).satisfiable) << f.ToString();
    if (r.satisfiable) {
      EXPECT_TRUE(f.Evaluate(r.assignment));
    }
  }
  for (int round = 0; round < 10; ++round) {
    std::uint32_t nv = 15 + rng.Below(25);
    std::uint32_t nc = nv * (2 + rng.Below(3));
    CnfFormula f = RandomKSat(nv, nc, 3, &rng);
    EXPECT_EQ(SolveCdcl(f).satisfiable, SolveDpll(f).satisfiable)
        << f.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdclRandomTest, ::testing::Range(0, 5));

TEST(Cdcl, ReductionReadyFormulasAgree) {
  Rng rng(321);
  for (int round = 0; round < 10; ++round) {
    std::uint32_t nv = 8 + rng.Below(30);
    CnfFormula f = RandomReductionReady3Sat(nv, nv * 3 / 2, &rng);
    EXPECT_EQ(SolveCdcl(f).satisfiable, SolveDpll(f).satisfiable)
        << f.ToString();
  }
}

// --- Incremental solving (CdclSolver) -----------------------------------

/// Loads a CnfFormula into a persistent solver.
void Load(CdclSolver& solver, const CnfFormula& f) {
  solver.AddVars(f.num_vars);
  for (const Clause& c : f.clauses) solver.AddClause(c);
}

TEST(CdclIncremental, PigeonholeUnderAssumptions) {
  // PHP(5,4) *without* pigeon 4's at-least-one clause: satisfiable (pigeon
  // 4 stays homeless). Assuming p_{4,h} for any hole h re-creates the full
  // unsatisfiable pigeonhole instance — but only under assumptions, so the
  // same warm solver must flip back to SAT the moment they are dropped.
  const std::uint32_t holes = 4;
  CnfFormula f = Pigeonhole(5, holes);
  f.clauses.erase(f.clauses.begin() + 4);  // Pigeon 4's some-hole clause.
  CdclSolver solver;
  Load(solver, f);
  EXPECT_TRUE(solver.Solve());
  for (std::uint32_t h = 0; h < holes; ++h) {
    EXPECT_FALSE(solver.SolveUnderAssumptions({Literal{4 * holes + h, true}}))
        << "pigeon 4 forced into hole " << h;
    EXPECT_TRUE(solver.ok());  // UNSAT under assumptions, not permanently.
  }
  EXPECT_TRUE(solver.Solve());  // Everything learned stays sound.
  EXPECT_GT(solver.stats().warm_solves, 0u);
  EXPECT_EQ(solver.stats().solves, 2u + holes);
}

TEST(CdclIncremental, AssumptionsEquivalentToUnitClauses) {
  // Verdict under assumptions == fresh solve with the assumptions as
  // units, across random formulas and random assumption sets — the
  // defining property of SolveUnderAssumptions.
  Rng rng(555);
  for (int round = 0; round < 60; ++round) {
    std::uint32_t nv = 4 + rng.Below(12);
    CnfFormula f = RandomKSat(nv, 3 + rng.Below(4 * nv), 3, &rng);
    CdclSolver solver;
    Load(solver, f);
    std::vector<Literal> assumptions;
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (rng.Below(3) == 0) assumptions.push_back(Literal{v, rng.Below(2) == 0});
    }
    CnfFormula with_units = f;
    for (Literal a : assumptions) with_units.clauses.push_back({a});
    bool incremental = solver.SolveUnderAssumptions(assumptions);
    EXPECT_EQ(incremental, SolveDpll(with_units).satisfiable) << f.ToString();
    // The model must satisfy the assumptions themselves.
    if (incremental) {
      for (Literal a : assumptions) EXPECT_EQ(solver.ValueOf(a.var), a.positive);
    }
    // The solver is not poisoned: the unconstrained verdict still matches.
    EXPECT_EQ(solver.Solve(), SolveDpll(f).satisfiable);
  }
}

TEST(CdclIncremental, AddClauseThenResolveStaysSound) {
  // Grow one warm solver clause by clause, solving after every addition
  // and comparing against a fresh solve of the prefix: everything learned
  // from earlier prefixes must remain a logical consequence of the larger
  // formula. Once UNSAT, the solver must stay UNSAT for good.
  Rng rng(808);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint32_t nv = 5 + rng.Below(8);
    CnfFormula full = RandomKSat(nv, 6 * nv, 3, &rng);
    CdclSolver solver;
    solver.AddVars(nv);
    CnfFormula prefix;
    prefix.num_vars = nv;
    bool was_unsat = false;
    for (const Clause& c : full.clauses) {
      bool accepted = solver.AddClause(c);
      prefix.clauses.push_back(c);
      bool fresh = SolveDpll(prefix).satisfiable;
      EXPECT_EQ(solver.Solve(), fresh) << prefix.ToString();
      EXPECT_EQ(solver.ok(), fresh);
      if (was_unsat) {
        EXPECT_FALSE(accepted);
      }
      was_unsat = was_unsat || !fresh;
    }
    EXPECT_FALSE(was_unsat ? solver.Solve() : false);
  }
}

TEST(CdclIncremental, ActivationLiteralRetraction) {
  // The retraction idiom the falsifier encoder relies on: a clause guarded
  // by activation literal a is live only while a is assumed, and the unit
  // ~a retires it permanently without touching the rest of the database.
  CdclSolver solver;
  std::uint32_t x = solver.AddVars(1);
  std::uint32_t a = solver.AddVars(1);
  // (~a v x) with unit (~x): assuming a forces the conflict, dropping the
  // assumption resolves it.
  EXPECT_TRUE(solver.AddClause({Literal{x, false}}));
  EXPECT_TRUE(solver.AddClause({Literal{a, false}, Literal{x, true}}));
  EXPECT_FALSE(solver.SolveUnderAssumptions({Literal{a, true}}));
  EXPECT_TRUE(solver.ok());
  EXPECT_TRUE(solver.Solve());
  // Retract: ~a for good. The clause can never fire again.
  EXPECT_TRUE(solver.AddClause({Literal{a, false}}));
  solver.NoteRetraction(1);
  EXPECT_TRUE(solver.Solve());
  EXPECT_EQ(solver.stats().clauses_retracted, 1u);
  // Assuming a now contradicts the retraction unit itself.
  EXPECT_FALSE(solver.SolveUnderAssumptions({Literal{a, true}}));
  EXPECT_TRUE(solver.ok());
}

TEST(CdclIncremental, DeletionChurnNeverChangesVerdicts) {
  // 200 randomized rounds against a warm solver whose reduction thresholds
  // are cranked low enough to force constant learned-clause deletion; the
  // verdict after any amount of churn must match a fresh solve (CDCL) and
  // the DPLL oracle. This is the clause-DB-reduction soundness property:
  // deleting learned clauses may cost time, never answers.
  CdclOptions aggressive;
  aggressive.first_reduce_conflicts = 10;
  aggressive.reduce_increment = 5;
  aggressive.restart_base = 8;
  Rng rng(2024);
  CdclSolver solver(aggressive);
  std::uint32_t nv = 24;
  solver.AddVars(nv);
  CnfFormula all;
  all.num_vars = nv;
  bool dead = false;
  for (int round = 0; round < 200; ++round) {
    // Grow: a couple of fresh random clauses per round (wide enough to
    // stay mostly satisfiable for a long streak).
    CnfFormula add = RandomKSat(nv, 2, 3, &rng);
    for (const Clause& c : add.clauses) {
      solver.AddClause(c);
      all.clauses.push_back(c);
    }
    std::vector<Literal> assumptions;
    for (std::uint32_t v = 0; v < nv; ++v) {
      if (rng.Below(8) == 0) assumptions.push_back(Literal{v, rng.Below(2) == 0});
    }
    CnfFormula with_units = all;
    for (Literal a : assumptions) with_units.clauses.push_back({a});
    bool warm = solver.SolveUnderAssumptions(assumptions);
    EXPECT_EQ(warm, SolveDpll(with_units).satisfiable)
        << "round " << round << "\n" << with_units.ToString();
    EXPECT_EQ(warm, SolveCdcl(with_units).satisfiable) << "round " << round;
    dead = dead || !solver.ok();
    if (dead) break;  // Permanently UNSAT: every later verdict is fixed.
  }
  const CdclStats& stats = solver.stats();
  EXPECT_GT(stats.solves, 10u);
  EXPECT_GT(stats.db_reductions, 0u) << "thresholds never triggered: the "
                                        "churn this test exists for never "
                                        "happened";
  EXPECT_GT(stats.learned_deleted, 0u);
  // The kept-gauge is consistent: never more than ever-learned minus
  // deleted.
  EXPECT_LE(stats.learned_kept + stats.learned_deleted,
            stats.learned_clauses);
}

TEST(CdclIncremental, AddVarsGrowsWithoutDisturbingState) {
  CdclSolver solver;
  std::uint32_t x = solver.AddVars(2);
  EXPECT_TRUE(solver.AddClause({Literal{x, true}, Literal{x + 1, true}}));
  EXPECT_TRUE(solver.Solve());
  std::uint32_t y = solver.AddVars(3);
  EXPECT_EQ(y, 2u);
  EXPECT_EQ(solver.num_vars(), 5u);
  EXPECT_TRUE(solver.AddClause({Literal{y + 2, false}}));
  EXPECT_TRUE(solver.Solve());
  EXPECT_FALSE(solver.ValueOf(y + 2));
}

}  // namespace
}  // namespace cqa
