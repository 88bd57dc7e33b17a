#ifndef HERMES_NET_NETWORK_INTERCEPTOR_H_
#define HERMES_NET_NETWORK_INTERCEPTOR_H_

#include <atomic>
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
/// result, and attributes traffic (calls, bytes, charges, failures) to the
/// query via CallContext::metrics — in addition to the simulator's global
/// aggregate statistics.
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

  /// Simulated time the last call (by any thread) lost to an unavailable
  /// site (0 when the last call succeeded).
  double last_unavailable_penalty_ms() const {
    return last_penalty_ms_.load(std::memory_order_relaxed);
  }

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
  std::atomic<double> last_penalty_ms_{0.0};

  // Per-site slice of the traffic, mirrored into the registry on bind.
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
