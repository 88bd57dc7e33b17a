#ifndef HERMES_ENGINE_OP_COMPILE_H_
#define HERMES_ENGINE_OP_COMPILE_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/op/op.h"
#include "engine/op/sink_ops.h"

namespace hermes::dcsm {
class Dcsm;
}  // namespace hermes::dcsm

namespace hermes::engine::op {

class NestedLoopJoinOp;

/// One position on the top-level left-deep join spine: the join whose
/// right child evaluates `goals[goal_start .. goal_start+goal_count)` of
/// the compiled query. Recorded only when CompileOptions::record_spine is
/// set; the replan layer uses it to splice re-optimized suffixes.
struct SpineSlot {
  NestedLoopJoinOp* join = nullptr;  ///< Borrowed from the tree.
  size_t goal_start = 0;             ///< First query-goal index covered.
  size_t goal_count = 1;             ///< >1 for a scatter-gather run.
  bool single_domain_call = false;   ///< Right child is one DomainCallOp.
};

/// One query lowered to a physical operator tree:
///
///   AnswerSink ← Project ← left-deep NestedLoopJoin chain over the goals
///
/// The goal operators borrow the Atoms of `program`/`query` passed to
/// Compile — both must outlive the compiled tree (optimizer::CompiledPlan
/// packages tree + owned plan for callers that need a self-contained
/// artifact).
struct CompiledQuery {
  std::unique_ptr<PhysicalOp> root;
  AnswerSinkOp* sink = nullptr;  ///< Borrowed from `root`.
  std::vector<std::string> var_names;
  /// Result-row shape: one field per var_names entry, with types pinned at
  /// compile time where the query text determines them (see InferSchema).
  /// The executor points ExecContext::schema at this.
  RowSchema schema;
  /// Top-level join spine, outer to inner; empty unless
  /// CompileOptions::record_spine was set (replanning needs it).
  std::vector<SpineSlot> spine;
};

/// Compile-time knobs of the lowering. The defaults reproduce the
/// historical tree shape exactly — no ScatterGather nodes — so EXPLAIN
/// output and virtual-clock accounting are byte-identical with the async
/// feature off.
struct CompileOptions {
  /// Group maximal runs of *consecutive, independent* domain-call goals
  /// (no member reads or re-binds another member's output variable) into a
  /// ScatterGatherOp, which issues their source calls concurrently so the
  /// run's simulated latency is the max over members rather than the sum.
  bool async_scatter_gather = false;
  /// Record the top-level join spine in CompiledQuery::spine and number
  /// its joins so the replan layer can address them. Off by default: the
  /// tree shape is identical either way, this only captures pointers.
  bool record_spine = false;
  /// When set, every DomainCallOp is stamped with its call site's DCSM
  /// estimate as it is built: here, in lazily compiled rule bodies and in
  /// replan splices. Null builds unstamped ops and makes no lookups.
  const dcsm::Dcsm* dcsm = nullptr;
};

/// Lowers one goal atom: kDomainCall → DomainCallOp, kComparison →
/// FilterOp, kPredicate → RulePredicateOp. `depth` is the goal's
/// rule-nesting depth (the recursion guard's measure).
std::unique_ptr<PhysicalOp> CompileGoal(const lang::Atom& goal,
                                        const lang::Program& program,
                                        size_t depth,
                                        const CompileOptions& options = {});

/// Lowers a goal conjunction into a left-deep NestedLoopJoin chain
/// (a UnitOp when the conjunction is empty — facts, the empty query),
/// with independent domain-call runs grouped per `options`. When `spine`
/// is non-null (and options.record_spine set) the join spine is appended
/// to it in goal order (innermost join first, root join last).
std::unique_ptr<PhysicalOp> CompileGoals(const std::vector<lang::Atom>& goals,
                                         const lang::Program& program,
                                         size_t depth,
                                         const CompileOptions& options = {},
                                         std::vector<SpineSlot>* spine =
                                             nullptr);

/// Lowers a whole query: goals → Project(var_names) → AnswerSink.
CompiledQuery Compile(const lang::Program& program, const lang::Query& query,
                      const CompileOptions& options = {});

/// Query variables in order of first occurrence (plain variables only;
/// `$b` and paths do not introduce result columns).
std::vector<std::string> QueryVariables(const lang::Query& query);

/// Static result-row schema of `query`: one column per result variable,
/// typed where the query pins the type — an `=(V, const)` comparison types
/// V as the constant, and a variable passed to a predicate whose matching
/// rule heads all carry same-typed constants at that position inherits that
/// type. Everything else stays kAny (domains are dynamically typed).
RowSchema InferSchema(const lang::Program& program, const lang::Query& query);

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_COMPILE_H_
