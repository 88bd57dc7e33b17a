#ifndef HERMES_OPTIMIZER_PLAN_COMPILER_H_
#define HERMES_OPTIMIZER_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <utility>

#include "engine/op/compile.h"
#include "optimizer/plan.h"

namespace hermes::dcsm {
class Dcsm;
}  // namespace hermes::dcsm

namespace hermes::optimizer {

/// A CandidatePlan lowered to its physical operator tree — the plan as an
/// executable, inspectable artifact. Shares ownership of the immutable plan
/// (the tree's operators point into its program/query, held behind a
/// pointer so moves are safe) with the plan cache; movable, not copyable.
class CompiledPlan {
 public:
  CompiledPlan() = default;
  CompiledPlan(CompiledPlan&&) = default;
  CompiledPlan& operator=(CompiledPlan&&) = default;
  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  const CandidatePlan& plan() const { return *plan_; }
  engine::op::CompiledQuery& tree() { return tree_; }

  /// Renders the plan header (description, query, plan-level estimate)
  /// followed by the operator tree with static adornments and each call's
  /// estimate stamp. With `actuals`, each operator also shows its post-run
  /// counters — call after executing the tree. Non-const because rendering
  /// rule bodies shares the operators' lazily-compiled subtrees.
  std::string Explain(bool actuals = false);

 private:
  friend class PlanCompiler;

  std::shared_ptr<const CandidatePlan> plan_;
  engine::op::CompiledQuery tree_;
};

/// Lowers CandidatePlans into physical operator trees. With a DCSM, each
/// domain call is stamped with its cost estimate as it is built (Dcsm::Cost
/// is const and thread-safe, so compilation is safe while queries
/// execute). `options` selects the lowering — notably whether independent
/// domain-call runs are grouped for async scatter-gather; the compiler is
/// where call-site independence (no shared bound variables) is decided.
class PlanCompiler {
 public:
  explicit PlanCompiler(const dcsm::Dcsm* dcsm = nullptr,
                        engine::op::CompileOptions options = {})
      : options_(options) {
    options_.dcsm = dcsm;
  }

  CompiledPlan Compile(CandidatePlan plan) const;
  /// Lowers a shared plan without copying it; several trees may borrow one
  /// plan at once.
  CompiledPlan Compile(std::shared_ptr<const CandidatePlan> plan) const;

  /// The lowering options, with the DCSM filled in.
  const engine::op::CompileOptions& options() const { return options_; }

 private:
  engine::op::CompileOptions options_;
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_PLAN_COMPILER_H_
