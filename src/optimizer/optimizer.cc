#include "optimizer/optimizer.h"

#include <algorithm>

namespace hermes::optimizer {

/// Every candidate of one query with its estimate, and the best one.
struct QueryOptimizer::Ranked {
  PlanSpace space;
  std::vector<CandidateSummary> candidates;
  size_t best = 0;
  double total_estimation_ms = 0.0;

  CandidatePlan Plan(size_t k) const {
    CandidatePlan plan = space.Materialize(k);
    static_cast<CandidateSummary&>(plan) = candidates[k];
    return plan;
  }
};

Result<QueryOptimizer::Ranked> QueryOptimizer::Rank(
    const lang::Program& program, const lang::Query& query,
    OptimizationGoal goal) const {
  Ranked ranked;
  HERMES_ASSIGN_OR_RETURN(
      ranked.space, RuleRewriter::Enumerate(program, query, rewriter_options_));
  const PlanSpace& space = ranked.space;
  PatternMemo memo;
  ranked.candidates.resize(space.candidates.size());
  for (size_t k = 0; k < space.candidates.size(); ++k) {
    CandidateSummary& c = ranked.candidates[k];
    c.description = space.Description(k);
    Result<RuleCostEstimator::Estimate> est = estimator_.EstimateCandidate(
        space, k, &memo, /*describe_failures=*/false);
    if (est.ok()) {
      c.estimated = est->cost;
      c.estimation_ms = est->estimation_ms;
      c.estimatable = true;
      ranked.total_estimation_ms += est->estimation_ms;
    }
  }

  int best_index = -1;
  for (size_t i = 0; i < ranked.candidates.size(); ++i) {
    if (!ranked.candidates[i].estimatable) continue;
    if (best_index < 0) {
      best_index = static_cast<int>(i);
      continue;
    }
    const CostVector& a = ranked.candidates[i].estimated;
    const CostVector& b = ranked.candidates[best_index].estimated;
    double ka = goal == OptimizationGoal::kAllAnswers ? a.t_all_ms
                                                      : a.t_first_ms;
    double kb = goal == OptimizationGoal::kAllAnswers ? b.t_all_ms
                                                      : b.t_first_ms;
    double tie_band = 1e-9 * std::max({1.0, ka, kb});
    // At equal estimated cost, routing through the cache can only help, so
    // the plan with more CIM-redirected calls wins. A variant's count holds
    // for all its candidates.
    if (ka < kb - tie_band) {
      best_index = static_cast<int>(i);
    } else if (ka <= kb + tie_band &&
               space.variant_of(i).cim_calls >
                   space.variant_of(best_index).cim_calls) {
      best_index = static_cast<int>(i);
    }
  }
  if (best_index < 0) {
    // The walks above build no messages. When the first candidate fails on
    // an undefined or a recursive predicate, its described failure names
    // the cause better than the message below.
    if (!space.candidates.empty()) {
      Result<RuleCostEstimator::Estimate> first = estimator_.EstimateCandidate(
          space, 0, &memo, /*describe_failures=*/true);
      if (!first.ok() && (first.status().IsNotFound() ||
                          first.status().code() ==
                              StatusCode::kUnimplemented)) {
        return first.status();
      }
    }
    return Status::InvalidArgument(
        "no candidate plan is estimatable; every ordering leaves some "
        "domain-call argument free");
  }
  ranked.best = static_cast<size_t>(best_index);
  return ranked;
}

Result<OptimizerResult> QueryOptimizer::Optimize(
    const lang::Program& program, const lang::Query& query,
    OptimizationGoal goal) const {
  HERMES_ASSIGN_OR_RETURN(Ranked ranked, Rank(program, query, goal));
  OptimizerResult result;
  result.total_estimation_ms = ranked.total_estimation_ms;
  result.candidates.reserve(ranked.candidates.size());
  for (size_t k = 0; k < ranked.candidates.size(); ++k) {
    result.candidates.push_back(ranked.Plan(k));
  }
  result.best = result.candidates[ranked.best];
  return result;
}

Result<PlanChoice> QueryOptimizer::Choose(const lang::Program& program,
                                          const lang::Query& query,
                                          OptimizationGoal goal) const {
  HERMES_ASSIGN_OR_RETURN(Ranked ranked, Rank(program, query, goal));
  PlanChoice choice;
  choice.best = ranked.Plan(ranked.best);
  choice.candidates = std::move(ranked.candidates);
  choice.total_estimation_ms = ranked.total_estimation_ms;
  return choice;
}

}  // namespace hermes::optimizer
