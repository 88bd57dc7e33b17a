#include "net/network_interceptor.h"

#include <utility>

#include "obs/flight_recorder.h"

namespace hermes::net {

namespace {

/// Folds a planned transfer into an inner call's latency profile:
///   first_ms = connect + request flight + inner first_ms
///            + return flight + first answer transfer
///   all_ms   = connect + request flight + inner all_ms
///            + return flight + full answer-set transfer
CallOutput ComposeRemoteLatency(const NetworkSimulator::Transfer& transfer,
                                CallOutput inner_out) {
  size_t total_bytes = AnswerSetByteSize(inner_out.answers);
  size_t first_bytes =
      inner_out.answers.empty() ? 0 : inner_out.answers[0].ApproxByteSize();

  CallOutput out;
  out.first_ms = transfer.request_ms + inner_out.first_ms +
                 transfer.response_lag_ms +
                 transfer.per_byte_ms * static_cast<double>(first_bytes);
  out.all_ms = transfer.request_ms + inner_out.all_ms +
               transfer.response_lag_ms +
               transfer.per_byte_ms * static_cast<double>(total_bytes);
  if (out.first_ms > out.all_ms) out.first_ms = out.all_ms;
  out.answers = std::move(inner_out.answers);
  return out;
}

/// Expected (jitter-free) network cost on top of the inner model's
/// estimate: request/response flight plus ~64 bytes per answer.
CostVector DecorateRemoteEstimate(const SiteParams& site,
                                  const CostVector& inner_cost) {
  double request = site.connect_ms + site.rtt_ms;
  double per_byte = site.bytes_per_ms > 0 ? 1.0 / site.bytes_per_ms : 0.0;
  // Without knowing answer sizes, assume ~64 bytes per answer.
  double transfer = per_byte * 64.0 * inner_cost.cardinality;
  return CostVector(inner_cost.t_first_ms + request + per_byte * 64.0,
                    inner_cost.t_all_ms + request + transfer,
                    inner_cost.cardinality);
}

}  // namespace

const std::string& NetworkInterceptor::name() const {
  static const std::string kName = "network";
  return kName;
}

Result<CallOutput> NetworkInterceptor::Intercept(CallContext& ctx,
                                                 const DomainCall& call,
                                                 const Next& next) {
  // A context carrying its own RNG stream gets per-query-deterministic
  // jitter; otherwise fall back to the simulator's shared legacy stream.
  NetworkSimulator::Transfer transfer =
      ctx.net_rng != nullptr
          ? network_->PlanCall(site_, call.Hash(), *ctx.net_rng)
          : network_->PlanCall(site_, call.Hash());
  // The fault plan overlays the simulator's own availability draw. Its
  // decisions come from streams keyed on (plan seed, query, call, attempt)
  // — never from ctx.net_rng — so an empty/absent plan leaves the legacy
  // jitter sequence untouched byte for byte.
  const char* cause = transfer.available ? "" : "unavailable";
  if (faults_ != nullptr) {
    FaultDecision fate = faults_->Decide(site_.name, ctx.query_id,
                                         call.Hash(), ctx.call_attempt,
                                         ctx.now_ms);
    if (fate.unavailable && transfer.available) {
      transfer.available = false;
      transfer.penalty_ms = site_.retry_timeout_ms;
      cause = fate.cause;
    }
    transfer.request_ms *= fate.latency_factor;
    transfer.per_byte_ms *= fate.latency_factor;
    transfer.response_lag_ms =
        transfer.response_lag_ms * fate.latency_factor +
        fate.extra_response_ms;
  }
  ++ctx.metrics.remote_calls;
  site_calls_->Add(1);
  const double t_open = ctx.now_ms;
  uint32_t hop = 0;
  if (ctx.observed()) {
    hop = ctx.Emit(
        obs::FlightEvent::At(obs::FlightEventKind::kNetworkHopBegin, t_open)
            .set_site(site_.name));
  }
  // Closes the hop span `network_ms` after it opened; `detail` is the
  // failure cause when `failed`.
  auto end_hop = [&ctx, hop, t_open](double network_ms, size_t bytes,
                                     const char* detail, bool failed) {
    if (!ctx.observed()) return;
    obs::FlightEvent ev = obs::FlightEvent::End(
        obs::FlightEventKind::kNetworkHopEnd, hop, t_open + network_ms);
    ev.aux = bytes;
    ev.failed = failed;
    ctx.Emit(ev.set_detail(detail));
  };
  if (!transfer.available) {
    ++ctx.metrics.remote_failures;
    site_failures_->Add(1);
    ctx.last_failure_site = site_.name;
    ctx.last_failure_cause = cause;
    ctx.last_call_penalty_ms = transfer.penalty_ms;
    end_hop(transfer.penalty_ms, 0, cause, /*failed=*/true);
    // Only fault-plan causes annotate the plain availability message.
    std::string msg = "site '" + site_.name + "' is temporarily unavailable";
    if (std::string(cause) != "unavailable") {
      msg += " (" + std::string(cause) + ")";
    }
    msg += " for " + call.ToString();
    return Status::Unavailable(std::move(msg));
  }

  Result<CallOutput> inner = next(ctx, call);
  if (!inner.ok()) {
    end_hop(0.0, 0, "", false);
    return inner.status();
  }
  CallOutput inner_out = std::move(inner).value();

  size_t total_bytes = AnswerSetByteSize(inner_out.answers);
  CallOutput out = ComposeRemoteLatency(transfer, std::move(inner_out));

  double network_ms = out.all_ms;
  double charge = NetworkSimulator::Charge(site_, total_bytes);
  ctx.metrics.bytes_transferred += total_bytes;
  ctx.metrics.network_charge += charge;
  ctx.metrics.network_ms += network_ms;
  site_bytes_->Add(total_bytes);
  site_charge_->Add(charge);
  hop_sim_ms_->Observe(network_ms);
  end_hop(network_ms, total_bytes, "", false);
  return out;
}

void NetworkInterceptor::BindMetrics(obs::MetricsRegistry& registry,
                                     const std::string& domain) {
  obs::Labels labels = {{"site", site_.name}};
  if (!domain.empty()) labels.push_back({"domain", domain});
  registry.Register("hermes_site_calls_total",
                    "Remote calls attempted against this site", labels,
                    site_calls_);
  registry.Register("hermes_site_failures_total",
                    "Calls lost to this site's unavailability", labels,
                    site_failures_);
  registry.Register("hermes_site_bytes_total",
                    "Answer bytes shipped from this site", labels, site_bytes_);
  registry.Register("hermes_site_charge_total",
                    "Access fees accrued at this site (simulated)", labels,
                    site_charge_);
  registry.Register("hermes_site_hop_sim_ms",
                    "Per-call simulated network time for this site's hops",
                    labels, hop_sim_ms_);
}

Result<CostVector> NetworkInterceptor::EstimateCost(
    const lang::DomainCallSpec& pattern, const EstimateNext& next) const {
  HERMES_ASSIGN_OR_RETURN(CostVector inner_cost, next(pattern));
  return DecorateRemoteEstimate(site_, inner_cost);
}

}  // namespace hermes::net
