#ifndef HERMES_OPTIMIZER_OPTIMIZER_H_
#define HERMES_OPTIMIZER_OPTIMIZER_H_

#include <vector>

#include "common/result.h"
#include "dcsm/dcsm.h"
#include "lang/ast.h"
#include "optimizer/estimator.h"
#include "optimizer/plan.h"
#include "optimizer/rewriter.h"

namespace hermes::optimizer {

/// Which cost component the optimizer minimizes — the paper's two modes of
/// operation (all answers vs. interactive).
enum class OptimizationGoal { kAllAnswers, kFirstAnswer };

/// The outcome of optimizing one query, every candidate in full.
struct OptimizerResult {
  CandidatePlan best;
  /// Every candidate considered, with `estimated`/`estimatable` filled —
  /// useful for the plan-choice-accuracy experiments.
  std::vector<CandidatePlan> candidates;
  double total_estimation_ms = 0.0;  ///< Simulated optimizer time.
};

/// The outcome of optimizing one query, only the chosen plan in full.
struct PlanChoice {
  CandidatePlan best;
  /// One entry per candidate considered, in OptimizerResult's order.
  std::vector<CandidateSummary> candidates;
  double total_estimation_ms = 0.0;  ///< Simulated optimizer time.
};

/// End-to-end query optimizer: rewrite → estimate each plan via DCSM →
/// pick the cheapest for the requested goal. Candidates are orderings over
/// shared variants (RuleRewriter::Enumerate), and each Optimize or Choose
/// asks the DCSM once per distinct call pattern.
class QueryOptimizer {
 public:
  QueryOptimizer(const dcsm::Dcsm* dcsm,
                 RuleRewriter::Options rewriter_options = {})
      : rewriter_options_(std::move(rewriter_options)), estimator_(dcsm) {}

  /// Optimizes and returns every candidate as a plan.
  Result<OptimizerResult> Optimize(const lang::Program& program,
                                   const lang::Query& query,
                                   OptimizationGoal goal) const;

  /// Optimizes and materializes only the chosen plan.
  Result<PlanChoice> Choose(const lang::Program& program,
                            const lang::Query& query,
                            OptimizationGoal goal) const;

 private:
  struct Ranked;
  Result<Ranked> Rank(const lang::Program& program, const lang::Query& query,
                      OptimizationGoal goal) const;

  RuleRewriter::Options rewriter_options_;
  RuleCostEstimator estimator_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_OPTIMIZER_H_
