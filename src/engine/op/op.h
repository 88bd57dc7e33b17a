#ifndef HERMES_ENGINE_OP_OP_H_
#define HERMES_ENGINE_OP_OP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "common/row.h"
#include "common/sim_costs.h"
#include "common/value.h"
#include "dcsm/cost_record.h"
#include "domain/pipeline.h"
#include "engine/bindings.h"
#include "lang/ast.h"

namespace hermes {
class DomainRegistry;
}  // namespace hermes

namespace hermes::engine::op {

struct ExecOpMetrics;
class ExplainPrinter;
class ReplanManager;

/// The paper's two modes of operation (Section 3). Lives here so the
/// operator layer does not depend on the executor driver; engine/executor.h
/// re-exports it under the historical name hermes::engine::ExecutionMode.
enum class ExecutionMode {
  kAllAnswers,   ///< Compute every answer.
  kInteractive,  ///< Stop after the first batch of answers.
};

/// Physical operator kinds; OpKindName() gives the stable identifier used
/// as the `op` label of the hermes_exec_op_* metric series.
enum class OpKind {
  kDomainCall,
  kRulePredicate,
  kFilter,
  kNestedLoopJoin,
  kScatterGather,
  kProject,
  kAnswerSink,
  kUnit,
};

/// Stable snake_case name of an operator kind ("domain_call", ...).
const char* OpKindName(OpKind kind);

/// Per-query tuning knobs read by the operators at runtime. One instance
/// is shared by every operator of a compiled tree; the driver owns it.
struct ExecParams {
  ExecutionMode mode = ExecutionMode::kAllAnswers;
  /// Answers per batch in interactive mode; the sink stops the pipeline
  /// after the first batch.
  size_t interactive_batch = 1;
  double comparison_cost_ms = kDefaultComparisonCostMs;
  double unification_cost_ms = kDefaultUnificationCostMs;
  size_t max_recursion_depth = 64;
  /// Record per-predicate invocation cost vectors as DCSM samples (the
  /// Section 8 predicate-Tf extension), taken by RulePredicateOp.
  bool record_predicate_statistics = true;
  /// Emit an op_begin/op_end event pair per operator open/close (an
  /// "operator" span in the derived trace). Off by default so the trace
  /// shape of the walker era — query/rule/domain-call spans only — is
  /// preserved exactly.
  bool trace_operators = false;
  /// Graceful degradation: a domain call that fails Unavailable (or at its
  /// call deadline) produces zero rows instead of failing the query; the
  /// lost source is recorded in CallContext::source_errors and the query
  /// result is reported partial. Off by default — the historical contract
  /// is that a lost source fails the query.
  bool tolerate_source_failures = false;
};

/// Everything one query's operators share while the tree runs: the plan's
/// program, the per-query CallContext, the registry that routes domain
/// calls, the DCSM sample buffer, the tuning knobs, and the single mutable
/// binding scope.
///
/// `bindings` points at the scope of the *currently executing* subtree;
/// RulePredicateOp swaps it to the rule's local scope around body calls and
/// restores it around back-binding, exactly mirroring the walker's explicit
/// `Bindings local` threading.
struct ExecContext {
  const lang::Program* program = nullptr;
  CallContext* ctx = nullptr;                ///< Per-query call context.
  const DomainRegistry* registry = nullptr;  ///< Routes each domain call.
  /// Cost samples of this query's successful domain calls and finished
  /// predicate invocations, in the order they finished. The executor owns
  /// the buffer and flushes it into the DCSM in one batch when the query
  /// ends. Null when nothing is recorded (no DCSM, or statistics off).
  std::vector<dcsm::CostRecord>* samples = nullptr;
  const ExecParams* params = nullptr;
  Bindings* bindings = nullptr;
  ExecOpMetrics* op_metrics = nullptr;     ///< May be null.
  /// Per-query scratch arena: row slots, string payloads and any other
  /// per-row storage come from here and are reclaimed wholesale when the
  /// executor finishes the query. Owned by the executor driver.
  Arena* arena = nullptr;
  /// Result-row shape, resolved at plan-compile time (CompiledQuery owns
  /// it); ProjectOp packs rows against this schema by position.
  const RowSchema* schema = nullptr;
  /// Row staged by ProjectOp for AnswerSinkOp — the one-slot handoff
  /// between the top of the tree and the sink. A flat arena-backed row;
  /// conversion to heap Values happens only at the mediator boundary.
  Row staged_row;
  /// Set by DomainCallOp when a source's answers were incomplete (a lost
  /// source tolerated as zero rows, or a degraded/partial cache serve);
  /// the executor folds it into QueryExecution::complete.
  bool source_incomplete = false;
  /// Mid-query re-optimization hook; null when replanning is disabled.
  /// Spine joins consult it before opening their right subtree and splice
  /// in a replanned suffix when it fires. Owned by the mediator.
  ReplanManager* replan = nullptr;

  /// Appends one cost sample to `samples` (which must be set) and counts
  /// it in the query's CallMetrics::stats_records. `complete` false marks
  /// Ta and the cardinality as partially observed.
  void RecordSample(DomainCall call, const CostVector& cost, bool complete);
};

/// Per-instance execution counters, folded into EXPLAIN "actual" output.
struct OpStats {
  uint64_t opens = 0;
  uint64_t rows = 0;          ///< Rows produced across all opens.
  double sim_open_ms = 0.0;   ///< Virtual time of the latest Open.
  double sim_last_ms = 0.0;   ///< Latest virtual timestamp seen.
  double sim_total_ms = 0.0;  ///< Σ (close − open) virtual envelopes.
};

/// A Volcano-style physical operator over the simulated clock.
///
/// The virtual-timestamp contract (the paper's Section 7 semantics, ported
/// from the recursive walker — every operator must uphold it bit-for-bit):
///
///  - `Open(cx, t_open)` prepares the operator at virtual time `t_open`.
///    Source operators whose first action is externally timed (the domain
///    call itself) perform it here, at `t_open`.
///  - `Next(cx, t_resume, &t_out)` produces the next row. `t_resume` is the
///    virtual time at which the *consumer* finished processing the previous
///    row (the producer stalls until then — pipelined nested loops never
///    run ahead of their consumer). On `true`, the row's bindings are in
///    `*cx.bindings` and `*t_out` is the row's virtual availability time.
///    On `false` the stream is exhausted and `*t_out` is the stream's
///    completion time (the paper's T_a contribution of this operator).
///  - `Close(cx)` rolls back bindings and releases per-open state. Safe to
///    call at any point after Open, including after an error; idempotent.
///
/// Open/Next/Close are non-virtual wrappers that keep OpStats, the
/// per-operator hermes_exec_op_* metrics, and the optional "operator"
/// span events; subclasses implement OpenImpl/NextImpl/CloseImpl.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  PhysicalOp(const PhysicalOp&) = delete;
  PhysicalOp& operator=(const PhysicalOp&) = delete;

  virtual OpKind kind() const = 0;

  /// One-line EXPLAIN label, e.g. `DomainCall in(O, video:f(...))`.
  virtual std::string label() const = 0;

  Status Open(ExecContext& cx, double t_open);
  Result<bool> Next(ExecContext& cx, double t_resume, double* t_out);
  void Close(ExecContext& cx);

  const OpStats& stats() const { return stats_; }

  /// Renders this operator (and its subtree) into `printer`. The default
  /// prints label() and recurses into children(); operators with richer
  /// structure (rules, adornments, estimates) override it.
  virtual void Explain(ExplainPrinter& printer);

  /// Extra tokens appended inside the EXPLAIN "(actual: ...)" suffix.
  /// Empty by default (and when nothing noteworthy happened) so existing
  /// EXPLAIN output is byte-identical; DomainCallOp reports resilience
  /// events (" retries=N", " degraded", " lost").
  virtual std::string ActualExtras() const { return {}; }

  /// Pre-order walk over this subtree: `fn(op, depth)` for this operator,
  /// then each child at depth+1. The structured sibling of Explain(),
  /// used by the diagnostics layer's per-operator est-vs-actual rows.
  void VisitTree(const std::function<void(PhysicalOp&, size_t)>& fn,
                 size_t depth = 0);

 protected:
  PhysicalOp() = default;

  virtual Status OpenImpl(ExecContext& cx, double t_open) = 0;
  virtual Result<bool> NextImpl(ExecContext& cx, double t_resume,
                                double* t_out) = 0;
  virtual void CloseImpl(ExecContext& cx) = 0;

  /// Direct children, for VisitTree() (which skips null entries) and the
  /// default Explain() rendering.
  virtual std::vector<PhysicalOp*> children() { return {}; }

 private:
  OpStats stats_;
  bool open_ = false;
  uint32_t op_span_ = 0;  ///< seq of the op_begin awaiting its op_end.
};

/// Produces exactly one (empty) row at its open time — the neutral source
/// that makes empty goal lists (facts, the empty query) uniform: the
/// walker's "index == goals.size() → emit immediately" base case.
class UnitOp final : public PhysicalOp {
 public:
  OpKind kind() const override { return OpKind::kUnit; }
  std::string label() const override { return "Unit"; }

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;

 private:
  double t_open_ = 0.0;
  bool emitted_ = false;
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_OP_H_
