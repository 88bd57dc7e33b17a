#include "engine/op/domain_call_op.h"

#include <algorithm>
#include <string>
#include <utility>

#include "dcsm/drift.h"
#include "domain/registry.h"
#include "engine/op/explain.h"
#include "engine/op/replan.h"
#include "obs/flight_recorder.h"

namespace hermes::engine::op {

DomainCallOp::DomainCallOp(const lang::Atom* goal, const dcsm::Dcsm* dcsm)
    : goal_(goal) {
  if (dcsm == nullptr) return;
  CallEstimate& stamp = estimate_.emplace();
  for (const lang::Term& arg : goal->call.args) {
    stamp.adornment += arg.is_constant() ? 'c' : 'b';
  }
  // The goal's own spec is the pattern: its variables read as `$b`.
  Result<dcsm::CostEstimate> est = dcsm->Cost(dcsm::PatternView(goal->call));
  if (est.ok()) stamp.answer = std::move(est).value();
}

std::string DomainCallOp::label() const {
  return "DomainCall " + goal_->ToString();
}

Status DomainCallOp::RunCall(ExecContext& cx, double t_issue) {
  // Failure attribution is scoped to this call: a failure inside the
  // domain itself must not report an earlier call's site and cause.
  cx.ctx->last_failure_site.clear();
  cx.ctx->last_failure_cause.clear();
  const double t_open = t_issue;
  t_base_ = t_issue;

  const lang::Atom& goal = *goal_;

  // Ground the call.
  DomainCall call;
  call.domain = goal.call.domain;
  call.function = goal.call.function;
  call.args.reserve(goal.call.args.size());
  for (const lang::Term& arg : goal.call.args) {
    HERMES_ASSIGN_OR_RETURN(Value v, ResolveTerm(arg, *cx.bindings));
    call.args.push_back(std::move(v));
  }

  // Query-deadline cancellation: a plan past its deadline issues no
  // further source calls (the executor decides whether the partial answer
  // set is acceptable).
  if (t_open >= cx.ctx->deadline_ms) {
    ++cx.ctx->metrics.deadline_aborts;
    return Status::DeadlineExceeded(
        "query deadline reached at t=" + std::to_string(t_open) +
        "ms before " + goal.call.domain + ":" + goal.call.function);
  }

  // Dispatch: the registry routes the call into the target domain's own
  // interceptor stack (cache, resilience, overload, network).
  HERMES_RETURN_IF_ERROR(cx.ctx->ChargeCall());
  cx.ctx->now_ms = t_open;
  // The call span is closed before any row is consumed downstream, so
  // sibling goals do not nest under it (only the layers the call itself
  // traverses — cache lookup, network hop — become children).
  uint32_t span = 0;
  cx.ctx->cache_lookup = obs::CacheLookup::kNone;
  cx.ctx->cache_degraded = false;
  if (cx.ctx->observed()) {
    span = cx.ctx->Emit(
        obs::FlightEvent::At(obs::FlightEventKind::kCallIssued, t_open)
            .set_domain(call.domain)
            .set_detail(call.function));
  }
  const uint64_t retries_before = cx.ctx->metrics.retries;
  const uint64_t degraded_before = cx.ctx->metrics.degraded_calls;
  const size_t errors_before = cx.ctx->source_errors.size();
  Result<CallOutput> run = cx.registry->Run(*cx.ctx, call);
  retries_seen_ += cx.ctx->metrics.retries - retries_before;
  degraded_seen_ += cx.ctx->metrics.degraded_calls - degraded_before;
  if (cx.ctx->observed()) {
    // The end event carries the call's CIM lookup, from which the tracer
    // derives the cache-lookup span.
    obs::FlightEvent ev;
    if (run.ok()) {
      ev = obs::FlightEvent::End(obs::FlightEventKind::kCallCompleted, span,
                                 t_open + run->all_ms);
      ev.set_domain(call.domain).set_detail(call.function);
      ev.value = run->all_ms;
      ev.aux = run->answers.size();
    } else {
      ev = obs::FlightEvent::End(obs::FlightEventKind::kCallFailed, span,
                                 t_open + cx.ctx->last_call_penalty_ms);
      ev.set_domain(call.domain);
      ev.set_failed(cx.ctx->failure_cause(), cx.ctx->last_failure_site);
      ev.value = cx.ctx->last_call_penalty_ms;
    }
    ev.cache = cx.ctx->cache_lookup;
    ev.degraded = cx.ctx->cache_degraded;
    cx.ctx->Emit(ev);
  }
  if (run.ok()) {
    const CostVector observed(run->first_ms, run->all_ms,
                              static_cast<double>(run->answers.size()));
    if (cx.replan != nullptr) {
      cx.replan->ObserveCall(goal_, run->all_ms, observed.cardinality);
    }
    if (cx.ctx->drift != nullptr && estimate_.has_value() &&
        estimate_->answer.has_value()) {
      cx.ctx->drift->Observe(goal.call.domain, estimate_->adornment,
                             *estimate_->answer, observed,
                             t_open + run->all_ms);
    }
    // The DCSM learns from every successful call (Section 6). Failover and
    // hedge reroutes below add no sample of their own. The sample takes a
    // copy made now, after the call: on a run that records every call
    // (perfbench appendix_mix), moving the grounded call in instead
    // measured ~15% slower at p50.
    if (cx.samples != nullptr) cx.RecordSample(call, observed, run->complete);
  }
  if (!run.ok()) {
    const Status& failure = run.status();
    // A load-shed call (ResourceExhausted) is a lost source like an outage:
    // under partial_results the goal contributes zero rows instead of
    // failing the query — shedding is only graceful if it degrades.
    const bool lost_source = failure.IsUnavailable() ||
                             failure.IsDeadlineExceeded() ||
                             failure.IsResourceExhausted();
    if (!lost_source || cx.params == nullptr ||
        !cx.params->tolerate_source_failures) {
      return failure;
    }
    // Graceful degradation: this source is lost; the goal contributes zero
    // rows and the query is reported partial with the source named.
    ++lost_seen_;
    if (cx.ctx->source_errors.size() == errors_before) {
      // No resilience layer below recorded the loss (plain domain stack):
      // attribute it here from the pipeline's failure breadcrumbs.
      SourceError err;
      err.site = cx.ctx->last_failure_site;
      err.domain = call.domain;
      err.function = call.function;
      err.cause = !cx.ctx->last_failure_cause.empty()
                      ? cx.ctx->last_failure_cause
                      : std::string(failure.IsDeadlineExceeded()
                                        ? "deadline"
                                        : "unavailable");
      err.message = failure.ToString();
      err.t_ms = t_open;
      err.masked = false;
      cx.ctx->source_errors.push_back(std::move(err));
    }
    output_ = CallOutput{};
    output_.complete = false;
    // The time burnt discovering the loss (timeouts, backoff) still
    // elapses on the simulated clock before the empty stream completes.
    output_.first_ms = cx.ctx->last_call_penalty_ms;
    output_.all_ms = cx.ctx->last_call_penalty_ms;
  } else {
    output_ = std::move(run).value();
  }
  if (!output_.complete) cx.source_incomplete = true;
  return Status::OK();
}

Status DomainCallOp::IssueAsync(ExecContext& cx, double t_issue) {
  HERMES_RETURN_IF_ERROR(RunCall(cx, t_issue));
  async_issued_ = true;
  return Status::OK();
}

void DomainCallOp::ResetAsync() {
  async_issued_ = false;
  output_ = CallOutput{};
}

Status DomainCallOp::OpenImpl(ExecContext& cx, double t_open) {
  frame_.reset();
  delivered_ = false;
  index_ = 0;

  // When the gather parent already issued the call, reuse its output and
  // keep t_base_ anchored at the issue time — that anchoring is what makes
  // sibling latencies overlap (re-opening the cursor per outer row does
  // not re-pay, or re-jitter, the source round trip).
  if (!async_issued_) {
    HERMES_RETURN_IF_ERROR(RunCall(cx, t_open));
  }

  const lang::Atom& goal = *goal_;
  membership_ = TermIsResolvable(goal.output, *cx.bindings);
  match_found_ = false;
  if (membership_) {
    // Membership check: in(X, d:f(...)) with X already ground.
    HERMES_ASSIGN_OR_RETURN(const Value* expected,
                            ResolveTermPtr(goal.output, *cx.bindings));
    for (size_t i = 0; i < output_.answers.size(); ++i) {
      if (output_.answers[i] == *expected) {
        match_found_ = true;
        match_index_ = i;
        break;
      }
    }
  }
  return Status::OK();
}

Result<bool> DomainCallOp::NextImpl(ExecContext& cx, double t_resume,
                                    double* t_out) {
  frame_.reset();  // backtrack past the previous row's binding

  // Cancellation between rows: once the consumer's clock passes the query
  // deadline, stop streaming instead of feeding more work downstream.
  if (t_resume >= cx.ctx->deadline_ms) {
    ++cx.ctx->metrics.deadline_aborts;
    return Status::DeadlineExceeded(
        "query deadline reached at t=" + std::to_string(t_resume) +
        "ms while streaming " + goal_->call.domain + ":" +
        goal_->call.function);
  }

  if (membership_) {
    if (match_found_ && !delivered_) {
      delivered_ = true;
      *t_out = t_base_ + ArrivalOffsetMs(output_, match_index_);
      return true;
    }
    if (!match_found_) {
      // No match: the full set had to arrive to know.
      *t_out = t_base_ + output_.all_ms;
      return false;
    }
    *t_out = std::max(t_resume, t_base_ + output_.all_ms);
    return false;
  }

  // Enumeration: bind the output variable to each answer in turn.
  while (index_ < output_.answers.size()) {
    size_t i = index_++;
    double t_arrive = t_base_ + ArrivalOffsetMs(output_, i);
    double t_start = std::max(t_arrive, t_resume);
    frame_.emplace(cx.bindings);
    // View bind: the binding aliases the answer in this op's own output
    // buffer, which outlives the frame (it is reset before output_ is
    // replaced or cleared). No copy, no allocation per row.
    if (!frame_->BindView(goal_->output.var_name, &output_.answers[i])) {
      frame_.reset();
      continue;  // repeated variable with a different value
    }
    *t_out = t_start;
    return true;
  }
  *t_out = std::max(t_resume, t_base_ + output_.all_ms);
  return false;
}

void DomainCallOp::CloseImpl(ExecContext& cx) {
  (void)cx;
  frame_.reset();
  // An async-issued output survives Close: the gather loop re-opens this
  // cursor once per outer row. ResetAsync() (from the gather's own Close)
  // releases it.
  if (!async_issued_) output_ = CallOutput{};
}

std::string DomainCallOp::ActualExtras() const {
  std::string extras;
  if (retries_seen_ > 0) extras += " retries=" + std::to_string(retries_seen_);
  if (degraded_seen_ > 0) extras += " degraded";
  if (lost_seen_ > 0) extras += " lost=" + std::to_string(lost_seen_);
  return extras;
}

void DomainCallOp::Explain(ExplainPrinter& printer) {
  const lang::Atom& goal = *goal_;
  std::set<std::string>& bound = printer.bound();

  // Static adornment of the call arguments under the left-to-right plan
  // walk. The estimate is printed only where every argument is bound here.
  std::string adorn;
  bool estimable = true;
  for (const lang::Term& arg : goal.call.args) {
    bool arg_bound = arg.is_constant() ||
                     (arg.is_variable() && bound.count(arg.var_name) > 0);
    adorn += arg_bound ? 'b' : 'f';
    estimable = estimable && arg_bound;
  }
  bool check = goal.output.is_constant() ||
               (goal.output.is_variable() &&
                bound.count(goal.output.var_name) > 0);

  std::string annotations = "[args=" + (adorn.empty() ? "-" : adorn) +
                            (check ? ", check" : ", enumerate");
  if (goal.call.domain.rfind("cim_", 0) == 0) annotations += ", cim";
  if (async_marker_) annotations += ", async";
  annotations += "]";

  if (estimate_.has_value()) {
    if (!estimable) {
      annotations += " est=[free args]";
    } else if (!estimate_->answer.has_value()) {
      annotations += " est=[unavailable]";
    } else {
      const dcsm::CostEstimate& est = *estimate_->answer;
      annotations +=
          " est=[Tf=" + ExplainPrinter::FormatNum(est.cost.t_first_ms) +
          " Ta=" + ExplainPrinter::FormatNum(est.cost.t_all_ms) +
          " card=" + ExplainPrinter::FormatNum(est.cost.cardinality) +
          " src=" + est.source.ToString(goal.call.domain) + "]";
    }
  }

  printer.NodeFor(*this, annotations, {});

  // Enumeration binds the output variable for everything to its right.
  if (!check && goal.output.is_variable()) bound.insert(goal.output.var_name);
}

}  // namespace hermes::engine::op
