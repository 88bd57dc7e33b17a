#ifndef HERMES_NET_NETWORK_INTERCEPTOR_H_
#define HERMES_NET_NETWORK_INTERCEPTOR_H_

#include <memory>
#include <string>

#include "domain/pipeline.h"
#include "net/faults/fault_plan.h"
#include "net/network.h"
#include "net/site.h"
#include "obs/metrics.h"

namespace hermes::net {

/// The network layer of the call pipeline: plans each call's transfer over
/// a simulated wide-area link, composes the latency profile onto the inner
/// result, and counts its traffic (calls, failures, bytes, charges,
/// simulated network time) twice: for the query in CallContext::metrics,
/// and for the link in its own counters, exposed as hermes_site_* series.
///
/// When the site is (probabilistically) unavailable the call fails with
/// Status::Unavailable after charging the retry timeout, which a cache
/// layer above can mask with cached results — the paper's "temporary
/// unavailability" motivation.
class NetworkInterceptor : public CallInterceptor {
 public:
  NetworkInterceptor(SiteParams site, std::shared_ptr<NetworkSimulator> network)
      : site_(std::move(site)), network_(std::move(network)) {}

  const std::string& name() const override;

  Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                               const Next& next) override;

  /// Cost estimation decorates the inner model with expected (jitter-free)
  /// network time: request/response flight plus ~64 bytes per answer.
  Result<CostVector> EstimateCost(const lang::DomainCallSpec& pattern,
                                  const EstimateNext& next) const override;

  const SiteParams& site() const { return site_; }
  /// Mutable link parameters — used by failure-injection scenarios to take
  /// a site down (set availability to 0) or degrade it mid-run.
  SiteParams& mutable_site() { return site_; }

  /// Installs (or clears) a deterministic fault-injection plan: each call
  /// attempt first consults `faults` (outage windows, flakiness, latency
  /// spikes, slow responses) before the simulator's own availability draw.
  /// Wiring-time only; Mediator::LoadFaultPlan fans one injector out to
  /// every registered link.
  void set_fault_injector(std::shared_ptr<const FaultInjector> faults) {
    faults_ = std::move(faults);
  }
  const std::shared_ptr<const FaultInjector>& fault_injector() const {
    return faults_;
  }

  /// This link's own counters: every call made through it, with or
  /// without a query context. BindMetrics exposes them.
  const obs::Counter& calls() const { return *site_calls_; }
  const obs::Counter& failures() const { return *site_failures_; }
  const obs::Counter& bytes() const { return *site_bytes_; }
  const obs::FloatCounter& charge() const { return *site_charge_; }
  /// Simulated network time of each successful call.
  const obs::Histogram& hop_sim_ms() const { return *hop_sim_ms_; }

  /// Registers this link's per-site counters and hop-latency histogram
  /// with `registry`, labeled {site=<site name>, domain=<domain>} (the
  /// domain label keeps two domains on one site distinct; empty omits it).
  /// Counting happens whether or not this is ever called.
  void BindMetrics(obs::MetricsRegistry& registry,
                   const std::string& domain = "");

 private:
  SiteParams site_;
  std::shared_ptr<NetworkSimulator> network_;
  std::shared_ptr<const FaultInjector> faults_;

  // This link's traffic, exposed through the registry on bind.
  std::shared_ptr<obs::Counter> site_calls_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> site_failures_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> site_bytes_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::FloatCounter> site_charge_ =
      std::make_shared<obs::FloatCounter>();
  std::shared_ptr<obs::Histogram> hop_sim_ms_ = std::make_shared<obs::Histogram>(
      obs::Histogram::ExponentialBounds(1.0, 2.0, 16));
};

}  // namespace hermes::net

#endif  // HERMES_NET_NETWORK_INTERCEPTOR_H_
