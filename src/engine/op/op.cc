#include "engine/op/op.h"

#include <cstdio>
#include <utility>

#include "engine/op/explain.h"
#include "engine/op/op_metrics.h"
#include "obs/flight_recorder.h"

namespace hermes::engine::op {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kDomainCall:
      return "domain_call";
    case OpKind::kRulePredicate:
      return "rule_predicate";
    case OpKind::kFilter:
      return "filter";
    case OpKind::kNestedLoopJoin:
      return "nested_loop_join";
    case OpKind::kScatterGather:
      return "scatter_gather";
    case OpKind::kProject:
      return "project";
    case OpKind::kAnswerSink:
      return "answer_sink";
    case OpKind::kUnit:
      return "unit";
  }
  return "unknown";
}

void ExecContext::RecordSample(DomainCall call, const CostVector& cost,
                               bool complete) {
  dcsm::CostRecord& record = samples->emplace_back();
  record.call = std::move(call);
  record.cost = cost;
  record.has_t_all = complete;
  record.has_cardinality = complete;
  ++ctx->metrics.stats_records;
}

Status PhysicalOp::Open(ExecContext& cx, double t_open) {
  ++stats_.opens;
  stats_.sim_open_ms = t_open;
  stats_.sim_last_ms = t_open;
  open_ = true;
  ExecOpMetrics::PerKind* pk =
      cx.op_metrics == nullptr ? nullptr : &cx.op_metrics->ForKind(kind());
  if (pk != nullptr) pk->opens->Add(1);
  if (cx.params->trace_operators && cx.ctx != nullptr &&
      cx.ctx->observed()) {
    op_span_ = cx.ctx->Emit(
        obs::FlightEvent::At(obs::FlightEventKind::kOpBegin, t_open)
            .set_detail(OpKindName(kind())));
  }
  Status st = OpenImpl(cx, t_open);
  if (!st.ok() && pk != nullptr) pk->errors->Add(1);
  return st;
}

Result<bool> PhysicalOp::Next(ExecContext& cx, double t_resume,
                              double* t_out) {
  Result<bool> produced = NextImpl(cx, t_resume, t_out);
  ExecOpMetrics::PerKind* pk =
      cx.op_metrics == nullptr ? nullptr : &cx.op_metrics->ForKind(kind());
  if (!produced.ok()) {
    if (pk != nullptr) pk->errors->Add(1);
    return produced;
  }
  if (*t_out > stats_.sim_last_ms) stats_.sim_last_ms = *t_out;
  if (*produced) {
    ++stats_.rows;
    if (pk != nullptr) pk->rows->Add(1);
  }
  return produced;
}

void PhysicalOp::Close(ExecContext& cx) {
  if (!open_) return;
  open_ = false;
  CloseImpl(cx);
  double envelope = stats_.sim_last_ms - stats_.sim_open_ms;
  stats_.sim_total_ms += envelope;
  if (cx.op_metrics != nullptr) {
    cx.op_metrics->ForKind(kind()).sim_ms->Observe(envelope);
  }
  if (op_span_ != 0) {
    cx.ctx->Emit(obs::FlightEventKind::kOpEnd, stats_.sim_last_ms, op_span_);
  }
  op_span_ = 0;
}

void PhysicalOp::VisitTree(const std::function<void(PhysicalOp&, size_t)>& fn,
                           size_t depth) {
  fn(*this, depth);
  for (PhysicalOp* child : children()) {
    if (child != nullptr) child->VisitTree(fn, depth + 1);
  }
}

void PhysicalOp::Explain(ExplainPrinter& printer) {
  std::vector<std::function<void()>> kids;
  for (PhysicalOp* child : children()) {
    kids.push_back([child, &printer] { child->Explain(printer); });
  }
  printer.NodeFor(*this, "", std::move(kids));
}

Status UnitOp::OpenImpl(ExecContext& cx, double t_open) {
  (void)cx;
  t_open_ = t_open;
  emitted_ = false;
  return Status::OK();
}

Result<bool> UnitOp::NextImpl(ExecContext& cx, double t_resume,
                              double* t_out) {
  (void)cx;
  if (!emitted_) {
    emitted_ = true;
    *t_out = t_open_;
    return true;
  }
  *t_out = t_resume;
  return false;
}

void UnitOp::CloseImpl(ExecContext& cx) { (void)cx; }

}  // namespace hermes::engine::op
