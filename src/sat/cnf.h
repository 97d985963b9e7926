// CNF formulas for the Section 9 hardness gadget.
//
// The reduction of Theorem 9.1 is from 3-SAT where every variable occurs at
// most three times, at least once positively and at least once negatively.
// This module provides the formula representation, occurrence statistics,
// and the normalizations needed to bring an arbitrary CNF into that shape.

#ifndef CQA_SAT_CNF_H_
#define CQA_SAT_CNF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cqa {

/// A literal: variable index (0-based) with a sign.
struct Literal {
  std::uint32_t var = 0;
  bool positive = true;

  bool operator==(const Literal& o) const {
    return var == o.var && positive == o.positive;
  }
};

/// A clause is a disjunction of literals.
using Clause = std::vector<Literal>;

/// A CNF formula over variables 0..num_vars-1.
struct CnfFormula {
  std::uint32_t num_vars = 0;
  std::vector<Clause> clauses;

  /// Number of occurrences of each variable (either polarity).
  std::vector<std::uint32_t> OccurrenceCounts() const;

  /// Per variable: does it occur positively / negatively anywhere?
  void PolarityCounts(std::vector<std::uint32_t>* positive,
                      std::vector<std::uint32_t>* negative) const;

  /// True if every clause has at most `k` literals.
  bool MaxClauseSize(std::uint32_t k) const;

  /// True if the formula satisfies the preconditions of the Section 9
  /// reduction: every variable occurs 2 or 3 times in total, at least once
  /// positively and at least once negatively, and no clause contains a
  /// variable twice (in either polarity).
  bool IsReductionReady() const;

  /// Evaluates under a total assignment (indexed by variable).
  bool Evaluate(const std::vector<bool>& assignment) const;

  std::string ToString() const;
};

/// Rewrites a CNF so that every variable occurs at most 3 times, keeping
/// satisfiability: a variable x with m > 3 occurrences is replaced by fresh
/// copies x1..xm chained with implication clauses (xi -> xi+1, cyclically),
/// which forces all copies equal. Clauses with duplicate variables are
/// simplified first (tautologies dropped, duplicate literals merged).
CnfFormula LimitOccurrences(const CnfFormula& f);

/// Removes variables that occur with a single polarity (pure literals) and
/// variables occurring exactly once, iterating to a fixpoint; the result is
/// equisatisfiable and, if nonempty, reduction-ready provided every clause
/// had <= 3 distinct variables. Returns the simplified formula; an empty
/// clause list means satisfiable-by-pure-assignment, a formula containing
/// an empty clause means unsatisfiable.
CnfFormula EliminatePureAndSingletons(const CnfFormula& f);

}  // namespace cqa

#endif  // CQA_SAT_CNF_H_
