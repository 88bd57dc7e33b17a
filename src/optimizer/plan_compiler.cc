#include "optimizer/plan_compiler.h"

#include "engine/op/explain.h"

namespace hermes::optimizer {

CompiledPlan PlanCompiler::Compile(CandidatePlan plan) const {
  return Compile(std::make_shared<const CandidatePlan>(std::move(plan)));
}

CompiledPlan PlanCompiler::Compile(
    std::shared_ptr<const CandidatePlan> plan) const {
  CompiledPlan compiled;
  compiled.plan_ = std::move(plan);
  compiled.tree_ = engine::op::Compile(compiled.plan_->program,
                                       compiled.plan_->query, options_);
  return compiled;
}

std::string CompiledPlan::Explain(bool actuals) {
  using engine::op::ExplainPrinter;
  std::string out = "plan: " + plan_->description + "\n";
  out += "query: " + plan_->query.ToString() + "\n";
  if (plan_->estimatable) {
    out += "estimated: Tf=" + ExplainPrinter::FormatNum(plan_->estimated.t_first_ms) +
           "ms Ta=" + ExplainPrinter::FormatNum(plan_->estimated.t_all_ms) +
           "ms card=" + ExplainPrinter::FormatNum(plan_->estimated.cardinality) +
           "\n";
  }
  out += engine::op::ExplainTree(*tree_.root, actuals);
  return out;
}

}  // namespace hermes::optimizer
