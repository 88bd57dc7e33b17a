#include "engine/op/scatter_gather_op.h"

#include <functional>
#include <string>
#include <utility>

#include "engine/op/explain.h"
#include "obs/flight_recorder.h"

namespace hermes::engine::op {

ScatterGatherOp::ScatterGatherOp(
    std::vector<std::unique_ptr<DomainCallOp>> calls)
    : calls_(std::move(calls)) {
  for (std::unique_ptr<DomainCallOp>& call : calls_) {
    call->set_async_marker(true);
  }
}

std::string ScatterGatherOp::label() const { return "ScatterGather"; }

Status ScatterGatherOp::OpenImpl(ExecContext& cx, double t_open) {
  open_depth_ = 0;
  if (cx.ctx->observed()) {
    obs::FlightEvent ev =
        obs::FlightEvent::At(obs::FlightEventKind::kScatterFanout, t_open);
    ev.value = static_cast<double>(calls_.size());
    cx.ctx->Emit(ev);
  }
  // Scatter: issue every member's call at the group's open time. The
  // virtual clock does not advance between issues, so the members' round
  // trips overlap — the gather below observes each answer at
  // t_open + that member's own arrival offset.
  for (std::unique_ptr<DomainCallOp>& call : calls_) {
    HERMES_RETURN_IF_ERROR(call->IssueAsync(cx, t_open));
  }
  open_depth_ = 1;  // before Open: Close must reach a partial open
  return calls_[0]->Open(cx, t_open);
}

Result<bool> ScatterGatherOp::NextImpl(ExecContext& cx, double t_resume,
                                       double* t_out) {
  // The n-ary pipelined nested-loop odometer: pull the deepest open
  // member; a row descends (opening the next member's cursor at the row's
  // time — a cursor re-open, not a re-issue), exhaustion ascends (the
  // inner stream's completion resumes the outer member).
  while (open_depth_ > 0) {
    DomainCallOp* current = calls_[open_depth_ - 1].get();
    double t = 0.0;
    Result<bool> row = current->Next(cx, t_resume, &t);
    if (!row.ok()) return row.status();
    if (*row) {
      if (open_depth_ == calls_.size()) {
        *t_out = t;
        return true;
      }
      ++open_depth_;
      HERMES_RETURN_IF_ERROR(calls_[open_depth_ - 1]->Open(cx, t));
      t_resume = t;
      continue;
    }
    current->Close(cx);
    --open_depth_;
    if (open_depth_ == 0) {
      *t_out = t;
      return false;
    }
    t_resume = t;
  }
  *t_out = t_resume;
  return false;
}

void ScatterGatherOp::CloseImpl(ExecContext& cx) {
  while (open_depth_ > 0) {
    calls_[open_depth_ - 1]->Close(cx);
    --open_depth_;
  }
  // Release the issued outputs; the next Open scatters afresh (outer
  // bindings may have changed the grounded arguments).
  for (std::unique_ptr<DomainCallOp>& call : calls_) {
    call->ResetAsync();
  }
}

std::vector<PhysicalOp*> ScatterGatherOp::children() {
  std::vector<PhysicalOp*> kids;
  kids.reserve(calls_.size());
  for (std::unique_ptr<DomainCallOp>& call : calls_) {
    kids.push_back(call.get());
  }
  return kids;
}

void ScatterGatherOp::Explain(ExplainPrinter& printer) {
  std::vector<std::function<void()>> kids;
  kids.reserve(calls_.size());
  for (std::unique_ptr<DomainCallOp>& call : calls_) {
    DomainCallOp* raw = call.get();
    kids.push_back([raw, &printer] { raw->Explain(printer); });
  }
  printer.NodeFor(*this, "[fanout=" + std::to_string(calls_.size()) + "]",
                  std::move(kids));
}

}  // namespace hermes::engine::op
