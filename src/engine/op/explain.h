#ifndef HERMES_ENGINE_OP_EXPLAIN_H_
#define HERMES_ENGINE_OP_EXPLAIN_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/op/op.h"

namespace hermes::engine::op {

/// Accumulates the ASCII operator tree. Operators call NodeFor()/Node()
/// from their Explain() overrides; the printer handles the branch glyphs
/// and carries the adornment state (which variables are bound at this
/// point of the left-to-right plan walk) plus the predicate-expansion path
/// that stops recursive rules from unrolling forever.
class ExplainPrinter {
 public:
  /// With `actuals`, each operator line ends with its post-run counters
  /// (rows, opens, virtual time).
  explicit ExplainPrinter(bool actuals) : actuals_(actuals) {}

  /// Emits one tree line, then renders each child one level deeper.
  void Node(const std::string& text,
            std::vector<std::function<void()>> children);

  /// Node() with the operator's label, extra annotations, and — with
  /// actuals — the operator's actual-execution suffix.
  void NodeFor(PhysicalOp& oper, const std::string& annotations,
               std::vector<std::function<void()>> children);

  std::string Take() { return std::move(out_); }

  /// Variables bound so far in the plan walk (adornment propagation).
  std::set<std::string>& bound() { return bound_; }

  /// Predicate-expansion guard: true when `predicate` is already being
  /// expanded on the current path (a recursive rule set).
  bool OnPath(const std::string& predicate) const;
  void PushPath(std::string predicate) { path_.push_back(std::move(predicate)); }
  void PopPath() { path_.pop_back(); }

  /// Compact deterministic number formatting ("250", "0.001").
  static std::string FormatNum(double v);

 private:
  bool actuals_;
  std::string out_;
  std::string indent_;
  std::string pending_prefix_;
  std::vector<std::string> path_;
  std::set<std::string> bound_;
};

/// Renders the whole tree rooted at `root`.
std::string ExplainTree(PhysicalOp& root, bool actuals);

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_EXPLAIN_H_
