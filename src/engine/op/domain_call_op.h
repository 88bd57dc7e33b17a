#ifndef HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_
#define HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_

#include <cstddef>
#include <optional>
#include <string>

#include "dcsm/dcsm.h"
#include "engine/op/op.h"

namespace hermes::engine::op {

/// One call site's DCSM estimate, stamped once when its DomainCallOp is
/// built. The pattern is the goal's own spec read through a view, which
/// keeps constant arguments and reads variables — ground by the time the
/// call runs — as `$b`. EXPLAIN, the replan divergence
/// trigger, the drift tracker and the slow-query log all read this answer.
struct CallEstimate {
  std::string adornment;  ///< 'c' per constant argument, 'b' per variable.
  std::optional<dcsm::CostEstimate> answer;  ///< Unset: the DCSM had none.
};

/// Executes one `in(Output, domain:function(args))` goal: the registry
/// routes the call into the target domain's own interceptor stack (cache,
/// resilience, overload, network). The op is the one observer of the
/// finished call: it emits the call span, whose end event carries the
/// outcome of the call's CIM lookup, feeds the replan trigger and the
/// drift tracker, and records the call's cost sample for the DCSM.
///
/// The call itself runs at Open time — that is when the walker issued it —
/// and the rows stream out of the already-materialized CallOutput with the
/// paper's interpolated arrival offsets:
///
///  - enumeration (output variable free): answer i becomes available at
///    max(t_open + ArrivalOffsetMs(i), t_resume); exhaustion completes at
///    max(t_resume, t_open + all_ms).
///  - membership (output already ground): at most one row, at the matching
///    answer's arrival time; a miss completes at t_open + all_ms (the full
///    set had to arrive to know).
///
/// A cache-redirected plan simply points the goal at the CIM's wrapper
/// domain ("cim_<site>") — the operator is oblivious; EXPLAIN annotates it.
///
/// Async issue path: a ScatterGatherOp parent may call IssueAsync() to run
/// the call once, up front, at the gather group's open time. Subsequent
/// Open()s then reuse the materialized CallOutput (keeping the issue time
/// as the arrival base, so sibling latencies overlap instead of adding)
/// until ResetAsync() clears the issued state.
class DomainCallOp final : public PhysicalOp {
 public:
  /// `goal` (kind kDomainCall) is borrowed; it must outlive the operator
  /// (the compiled tree's plan owns the program/query the goals live in).
  /// With a `dcsm` the op is stamped with its call site's estimate.
  explicit DomainCallOp(const lang::Atom* goal,
                        const dcsm::Dcsm* dcsm = nullptr);

  OpKind kind() const override { return OpKind::kDomainCall; }
  std::string label() const override;
  void Explain(ExplainPrinter& printer) override;
  std::string ActualExtras() const override;

  const lang::Atom& goal() const { return *goal_; }

  /// The estimate stamp; unset when the op was built without a DCSM.
  const std::optional<CallEstimate>& estimate() const { return estimate_; }

  /// Grounds the call from the current bindings and runs it at virtual
  /// time `t_issue`. Until ResetAsync(), Open() reuses the result instead
  /// of re-issuing, and Close() keeps it. Only a gather parent calls this;
  /// the call's arguments must not depend on sibling outputs.
  Status IssueAsync(ExecContext& cx, double t_issue);

  /// Drops the async-issued result; the next Open() issues the call again.
  void ResetAsync();

  /// Marks this call's EXPLAIN annotation `async` (set by the compiler
  /// when the call is grouped under a ScatterGatherOp).
  void set_async_marker(bool marker) { async_marker_ = marker; }

 protected:
  Status OpenImpl(ExecContext& cx, double t_open) override;
  Result<bool> NextImpl(ExecContext& cx, double t_resume,
                        double* t_out) override;
  void CloseImpl(ExecContext& cx) override;

 private:
  /// Grounds, dispatches and materializes the call at `t_issue`; shared by
  /// the synchronous Open() path and IssueAsync().
  Status RunCall(ExecContext& cx, double t_issue);

  const lang::Atom* goal_;
  std::optional<CallEstimate> estimate_;
  bool async_marker_ = false;

  // Per-open state.
  CallOutput output_;
  bool async_issued_ = false;  ///< output_ pinned by IssueAsync().
  double t_base_ = 0.0;
  bool membership_ = false;
  bool match_found_ = false;
  size_t match_index_ = 0;
  bool delivered_ = false;  ///< Membership: the single row was produced.
  size_t index_ = 0;        ///< Enumeration cursor.
  std::optional<BindingFrame> frame_;

  // Resilience events accumulated across opens, surfaced by ActualExtras().
  uint64_t retries_seen_ = 0;   ///< Retry attempts below this call.
  uint64_t degraded_seen_ = 0;  ///< Calls served degraded from cache.
  uint64_t lost_seen_ = 0;      ///< Failures tolerated as zero rows.
};

}  // namespace hermes::engine::op

#endif  // HERMES_ENGINE_OP_DOMAIN_CALL_OP_H_
