#ifndef HERMES_OPTIMIZER_ESTIMATOR_H_
#define HERMES_OPTIMIZER_ESTIMATOR_H_

#include <vector>

#include "common/result.h"
#include "common/sim_costs.h"
#include "dcsm/dcsm.h"
#include "lang/ast.h"
#include "optimizer/plan.h"

namespace hermes::optimizer {

/// Tuning knobs of the rule cost estimator.
struct EstimatorParams {
  double range_selectivity = 0.33;  ///< Fraction surviving a range filter.
  /// Per-tuple comparison CPU time; single-sourced with the executor so
  /// estimates and execution charge the same simulated cost.
  double comparison_cost_ms = kDefaultComparisonCostMs;
  size_t max_recursion_depth = 16;
  /// Use cached per-predicate first-answer statistics (pseudo domain
  /// "idb", recorded by the executor) to override the formula-derived T_f
  /// of IDB predicate subgoals. This is the paper's Section 8 remedy for
  /// the nested-loop formula's blindness to backtracking: the formula
  /// assumes the first answer combines the first answers of each subgoal,
  /// while in reality early outer tuples may fail downstream. Only T_f is
  /// overridden — T_a and cardinality keep the compositional formula so
  /// plan orderings remain distinguishable.
  bool use_predicate_first_answer_stats = false;
};

/// The DCSM's answers by exact call pattern: domain, function, and each
/// argument's kind and value, with int and double kept apart (unlike
/// `Term::operator==`, which calls `1` and `1.0` equal). One memo serves
/// one Optimize call, so its candidates ask the DCSM once per distinct
/// pattern; it is never shared across queries.
class PatternMemo {
 public:
  /// The DCSM's answer for the pattern of `call` whose argument i is the
  /// constant `*args[i]`, or `$b` where `args[i]` is null. Asks `dcsm` on
  /// a pattern's first sight only, through a view. The constants must
  /// outlive the memo (they point into the plan's own atoms); the
  /// reference stays valid until the memo is destroyed.
  const Result<dcsm::CostEstimate>& Cost(const dcsm::Dcsm& dcsm,
                                         const lang::DomainCallSpec& call,
                                         const Value* const* args);

 private:
  struct Entry {
    const lang::DomainCallSpec* call;
    std::vector<const Value*> args;  ///< Null for `$b`.
    Result<dcsm::CostEstimate> answer;
  };
  std::vector<Entry> entries_;
};

/// Section 7's rule cost estimator.
///
/// Walks a fully-ordered plan left to right, obtaining per-call cost
/// vectors from the DCSM and combining them with the paper's nested-loop
/// formula:
///   T_a   = Σ_i (Π_{j<i} Card_j) · T_a,i
///   T_f   = Σ_i T_f,i
///   Card  = Π_i Card_i
/// (duplicate elimination is not performed — footnote 2). IDB predicates
/// are estimated by recursively estimating their defining rules and adding
/// up cardinalities and execution times.
///
/// There is one walk, EstimateCandidate: it follows each body of a
/// PlanSpace candidate through the candidate's ordering, over a flat array
/// of the body's variable slots. EstimatePlan and EstimateBody run it on a
/// one-candidate space in the order the rules are written.
class RuleCostEstimator {
 public:
  RuleCostEstimator(const dcsm::Dcsm* dcsm, EstimatorParams params = {})
      : dcsm_(dcsm), params_(params) {}

  /// Estimate of one candidate plan. Returns InvalidArgument when the plan
  /// ordering is infeasible for the query's adornment (e.g. a domain call
  /// argument can be free at execution time).
  struct Estimate {
    CostVector cost;
    double estimation_ms = 0.0;  ///< Simulated DCSM lookup time.
  };
  Result<Estimate> EstimatePlan(const CandidatePlan& plan) const;

  /// Estimates the query `goals`, all variables initially free, against
  /// `program`'s rules.
  Result<Estimate> EstimateBody(const lang::Program& program,
                                const std::vector<lang::Atom>& goals) const;

  /// Estimates candidate `k` of `space`, with `memo` answering call
  /// patterns already asked. Every use of an answer charges its simulated
  /// lookup time, memoized or not. Error messages are built only when
  /// `describe_failures`; without it a failure carries its code alone.
  Result<Estimate> EstimateCandidate(const PlanSpace& space, size_t k,
                                     PatternMemo* memo,
                                     bool describe_failures) const;

 private:
  struct Walk;

  Result<CostVector> EstimateBodyInternal(Walk* walk, size_t body,
                                          size_t frame,
                                          size_t depth) const;

  Result<CostVector> EstimatePredicate(Walk* walk, size_t body, size_t atom,
                                       size_t frame, size_t depth) const;

  const dcsm::Dcsm* dcsm_;
  EstimatorParams params_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_ESTIMATOR_H_
