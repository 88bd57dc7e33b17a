#ifndef HERMES_ENGINE_OP_RULE_PREDICATE_OP_H_
#define HERMES_ENGINE_OP_RULE_PREDICATE_OP_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/op/compile.h"
#include "engine/op/op.h"

namespace hermes::engine::op {

/// Expands an IDB predicate goal by trying its rules in program order.
///
/// For each rule whose head matches (name + arity), the head is unified
/// with the caller's arguments into a fresh local binding scope; the rule
/// body — lazily compiled into its own operator subtree, which is what
/// bounds recursion: a deeper level is only compiled when execution
/// actually reaches it, and Open() fails with the recursion-depth guard
/// first — streams solutions, each of which is bound back onto the
/// caller's free variables and surfaced at t + unification_cost_ms.
///
/// Rules run sequentially on the virtual clock: rule k+1's body opens at
/// the time rule k's body completed (the walker's t_cursor). On clean
/// exhaustion the operator records the invocation's measured cost vector
/// as a DCSM sample under the pseudo-domain "idb" — the paper's
/// Section 8 predicate-Tf caching extension (early termination skips the
/// sample, exactly as the walker's `!state->stop` guard did).
class RulePredicateOp final : public PhysicalOp {
 public:
  /// `atom` (kind kPredicate) and `program` are borrowed; they must
  /// outlive the operator. `depth` is the rule-nesting depth of this goal.
  /// `options` carries the compile knobs down into lazily-compiled rule
  /// bodies (where scatter-gather fan-out typically lives).
  RulePredicateOp(const lang::Atom* atom, const lang::Program* program,
                  size_t depth, CompileOptions options = {});

  OpKind kind() const override { return OpKind::kRulePredicate; }
  std::string label() const override;
  void Explain(ExplainPrinter& printer) override;

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;
  /// The rule bodies compiled so far (null where a rule never ran).
  std::vector<PhysicalOp*> children() override;

 private:
  struct BackBinding {
    std::string caller_var;       // free caller variable to bind
    const lang::Term* head_term;  // resolved against the rule's bindings
  };

  /// Lazily compiles the body subtree of matching_[rule_pos].
  PhysicalOp* EnsureBody(size_t rule_pos);

  /// Unifies the head of `rule` with the caller's arguments into a fresh
  /// `local_` scope and collects `back_`. Returns false (without error)
  /// when the rule is inapplicable.
  Result<bool> UnifyHead(ExecContext& cx, const lang::Rule& rule);

  /// Records the finished invocation as a DCSM sample (pseudo-domain
  /// "idb"); unresolvable (output) arguments become null wildcards.
  void RecordInvocation(ExecContext& cx);

  const lang::Atom* atom_;
  const lang::Program* program_;
  size_t depth_;
  CompileOptions options_;
  std::vector<size_t> matching_;  ///< Rule indices with matching name+arity.
  std::vector<std::unique_ptr<PhysicalOp>> bodies_;  ///< Parallel, lazy.

  // Per-open state.
  Bindings local_;  ///< The active rule's binding scope.
  std::vector<BackBinding> back_;
  std::optional<BindingFrame> back_frame_;  ///< Caller-side output bindings.
  size_t rule_pos_ = 0;
  bool body_open_ = false;
  double body_resume_ = 0.0;
  double cursor_ = 0.0;  ///< Completion time of the rules finished so far.
  double t_open_ = 0.0;
  double last_emit_ = 0.0;
  double first_solution_t_ = -1.0;
  size_t solutions_ = 0;
  uint32_t rule_span_ = 0;  ///< seq of the rule_begin awaiting its rule_end.
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_RULE_PREDICATE_OP_H_
