#include "domain/pipeline.h"

#include <cstdio>
#include <utility>

namespace hermes {

namespace {

// A new CallMetrics field that is missing from the field-list macros makes
// this mirror struct smaller than the real one — failing to compile here
// instead of being silently dropped by Merge.
struct CallMetricsMirror {
#define HERMES_FIELD(f) uint64_t f;
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
#define HERMES_FIELD(f) double f;
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
};
static_assert(sizeof(CallMetricsMirror) == sizeof(CallMetrics),
              "CallMetrics has a field that is not listed in "
              "HERMES_CALL_METRICS_UINT64_FIELDS / _DOUBLE_FIELDS; add it "
              "there so Merge covers it");

/// One physical line per record: embedded newlines in multi-line error
/// messages are escaped so a log stays line-sortable by its leading t=
/// timestamp.
std::string FlattenError(const std::string& error) {
  std::string out;
  out.reserve(error.size());
  for (char c : error) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void CallMetrics::Merge(const CallMetrics& other) {
#define HERMES_FIELD(f) f += other.f;
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
}

std::string SourceError::ToString() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "t=%9.1fms  ", t_ms);
  std::string out = std::string(buf) + domain + ":" + function +
                    (masked ? " DEGRADED" : " LOST");
  if (!site.empty()) out += " site=" + site;
  if (!cause.empty()) out += " cause=" + cause;
  if (!message.empty()) out += ": " + FlattenError(message);
  return out;
}

Status CallContext::ChargeCall() {
  if (metrics.domain_calls >= call_budget) {
    return Status::Internal("domain-call budget exhausted (" +
                            std::to_string(call_budget) +
                            "); runaway query?");
  }
  ++metrics.domain_calls;
  return Status::OK();
}

uint32_t CallContext::Emit(const obs::FlightEvent& ev) {
  if (sinks == nullptr) return 0;
  const obs::EventStamp stamp{
      query_id, ++event_seq,
      ev.host_ns != 0 ? ev.host_ns : obs::HostNowNs()};
  if (sinks->tracer != nullptr) sinks->tracer->Append(ev, stamp);
  if (sinks->ring != nullptr) sinks->ring->Emit(ev, stamp);
  return stamp.seq;
}

PipelineDomain::PipelineDomain(
    std::string name, std::vector<std::shared_ptr<CallInterceptor>> stack,
    std::shared_ptr<Domain> terminal)
    : name_(std::move(name)),
      stack_(std::move(stack)),
      terminal_(std::move(terminal)) {}

Result<CallOutput> PipelineDomain::Run(const DomainCall& call) {
  CallContext scratch;
  return Run(scratch, call);
}

Result<CallOutput> PipelineDomain::Run(CallContext& ctx,
                                       const DomainCall& call) {
  return RunFrom(0, ctx, call);
}

Result<CallOutput> PipelineDomain::RunFrom(size_t index, CallContext& ctx,
                                           const DomainCall& call) const {
  if (index == stack_.size()) return terminal_->Run(ctx, call);
  return stack_[index]->Intercept(
      ctx, call, [this, index](CallContext& c, const DomainCall& k) {
        return RunFrom(index + 1, c, k);
      });
}

bool PipelineDomain::HasCostModel() const {
  bool has = terminal_->HasCostModel();
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    has = (*it)->HasCostModel(has);
  }
  return has;
}

Result<CostVector> PipelineDomain::EstimateCost(
    const lang::DomainCallSpec& pattern) const {
  // Fold the estimate bottom-up: the terminal's model, decorated by each
  // layer in reverse stack order (mirroring how Run composes latencies).
  CallInterceptor::EstimateNext next =
      [this](const lang::DomainCallSpec& p) -> Result<CostVector> {
    return terminal_->EstimateCost(p);
  };
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    const CallInterceptor* layer = it->get();
    CallInterceptor::EstimateNext inner = std::move(next);
    next = [layer, inner = std::move(inner)](
               const lang::DomainCallSpec& p) -> Result<CostVector> {
      return layer->EstimateCost(p, inner);
    };
  }
  return next(pattern);
}

CallInterceptor* PipelineDomain::FindLayer(const std::string& layer) const {
  for (const auto& interceptor : stack_) {
    if (interceptor->name() == layer) return interceptor.get();
  }
  return nullptr;
}

}  // namespace hermes
