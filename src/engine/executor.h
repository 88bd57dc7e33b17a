#ifndef HERMES_ENGINE_EXECUTOR_H_
#define HERMES_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_costs.h"
#include "dcsm/dcsm.h"
#include "domain/pipeline.h"
#include "domain/registry.h"
#include "engine/bindings.h"
#include "engine/op/compile.h"
#include "engine/op/op.h"
#include "engine/op/op_metrics.h"
#include "lang/ast.h"

namespace hermes::engine {

/// The paper's two modes of operation (Section 3). The enum lives with the
/// operator layer (engine/op/op.h); this is the historical name.
using ExecutionMode = op::ExecutionMode;

/// Tuning knobs of the executor.
struct ExecutorOptions {
  ExecutionMode mode = ExecutionMode::kAllAnswers;
  /// Answers per batch in interactive mode; evaluation stops after the
  /// first batch (callers re-query for more, as the paper's UI does).
  size_t interactive_batch = 1;
  /// Simulated per-comparison CPU.
  double comparison_cost_ms = kDefaultComparisonCostMs;
  /// Simulated per-tuple plumbing.
  double unification_cost_ms = kDefaultUnificationCostMs;
  size_t max_recursion_depth = 64;
  uint64_t max_domain_calls = 1000000;  ///< Runaway-query guard.
  bool record_statistics = true;  ///< Feed executed-call cost vectors to DCSM.
  /// With record_statistics, also record per-predicate invocation
  /// statistics (under the pseudo domain "idb") — the paper's Section 8
  /// remedy for the estimator's blindness to backtracking: "cache,
  /// especially the time for the first answer of predicates in the same
  /// way we cache statistics for domain calls". Unresolvable (output)
  /// arguments are recorded as null and act as wildcards during
  /// estimation.
  bool record_predicate_statistics = true;
  /// Emit an op_begin/op_end event pair per physical operator (an
  /// "operator" span in the derived trace). Off by default: the walker-era
  /// trace shape stays unchanged.
  bool trace_operators = false;
  /// Graceful degradation: lost sources yield zero rows (query reported
  /// partial) and a query-deadline abort returns the answers gathered so
  /// far instead of an error. Off by default.
  bool tolerate_source_failures = false;
  /// Per-operator-kind hermes_exec_op_* instruments, shared by every query
  /// of one mediator (see op::ExecOpMetrics::Bind). May be null.
  std::shared_ptr<op::ExecOpMetrics> op_metrics;
};

/// The answers and simulated timing of one executed query.
struct QueryExecution {
  /// Query variables, in order of first textual occurrence.
  std::vector<std::string> var_names;
  /// One row per answer: the values of `var_names`.
  std::vector<ValueList> answers;
  double t_first_ms = 0.0;  ///< Simulated time to the first answer.
  double t_all_ms = 0.0;    ///< Simulated time to evaluation completion.
  uint64_t domain_calls = 0;
  /// Bytes the query drew from its execution arena (row slots, string
  /// payloads); the arena itself is reclaimed before Execute returns.
  size_t arena_bytes = 0;
  bool complete = true;  ///< False when interactive mode stopped early.

  std::string ToString() const;
};

/// The execution driver over the physical operator layer (engine/op/).
///
/// Execute() compiles the query into an operator tree — AnswerSink ←
/// Project ← left-deep NestedLoopJoin chain (Section 7's left-to-right
/// pipelined nested loops) — and pulls it to exhaustion on the simulated
/// clock: answer i of a call opened at time t becomes consumable at
/// t + ArrivalOffsetMs(i), and processing an answer cannot start before
/// the previous sibling's subtree finished. T_f and T_a are read off these
/// virtual timestamps, reproducing the paper's measurements (including the
/// backtracking effects Section 8 discusses) without ever sleeping.
class Executor {
 public:
  /// `dcsm` may be null; when set and record_statistics is on, every
  /// successful call's cost vector (and each finished predicate
  /// invocation's, with record_predicate_statistics) is buffered per query
  /// and recorded into it with one Dcsm::RecordBatch when the query ends.
  Executor(const DomainRegistry* registry, dcsm::Dcsm* dcsm,
           ExecutorOptions options = {});

  /// Evaluates `query` against `program`; each domain call goes through
  /// the registry into its domain's interceptor stack.
  Result<QueryExecution> Execute(const lang::Program& program,
                                 const lang::Query& query);

  /// Same, threading the caller's `ctx` through every domain call so the
  /// caller can read per-query CallMetrics afterwards. The executor sets
  /// the call budget; query_id and the event sinks are the caller's to set.
  Result<QueryExecution> Execute(const lang::Program& program,
                                 const lang::Query& query, CallContext* ctx);

  /// Runs a pre-compiled operator tree (see op::Compile /
  /// optimizer::PlanCompiler). `program` must be the program the tree was
  /// compiled against. The tree is reset by Open, so a compiled plan can
  /// be executed repeatedly; per-operator OpStats accumulate across runs.
  /// When `replan` is non-null, the tree's spine joins consult it for
  /// mid-query re-optimization (the manager must outlive the call).
  Result<QueryExecution> ExecuteCompiled(const lang::Program& program,
                                         op::CompiledQuery& compiled,
                                         CallContext* ctx,
                                         op::ReplanManager* replan = nullptr);

 private:
  const DomainRegistry* registry_;
  dcsm::Dcsm* dcsm_;  ///< May be null: then nothing is recorded.
  ExecutorOptions options_;
};

/// Query variables in order of first occurrence (plain variables only;
/// `$b` and paths do not introduce result columns). Lives with the
/// operator compiler; re-exported under the historical name.
using op::QueryVariables;

}  // namespace hermes::engine

#endif  // HERMES_ENGINE_EXECUTOR_H_
