#ifndef HERMES_DOMAIN_OVERLOAD_H_
#define HERMES_DOMAIN_OVERLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "domain/pipeline.h"
#include "obs/metrics.h"

namespace hermes::overload {

/// AIMD per-site concurrency limiter: each admitted call occupies a slot in
/// the site's window for its simulated duration; a call arriving when the
/// window is at the limit is shed with kResourceExhausted. The limit grows
/// additively on calls that complete near the DCSM baseline and shrinks
/// multiplicatively on failures or latencies past 3 × baseline — so a
/// slow site backpressures its own callers instead of starving the pool.
struct LimiterPolicy {
  bool enabled = false;
  double initial_limit = 8.0;
  double min_limit = 1.0;   ///< Floor; also the cap while the breaker is open.
  double max_limit = 64.0;
  double additive_increase = 1.0;      ///< Limit growth per healthy call.
  double multiplicative_decrease = 0.5;  ///< Limit cut on a congestion signal.
};

/// Hedged requests: a call with a registered failover replica whose primary
/// response is slower than the per-(site, domain) trailing-p95 latency gets
/// a speculative second attempt at that trigger time on the simulated
/// clock; the first response wins and the loser is cancelled. Hedges are
/// capped at `budget_percent` of the query's admitted calls to that site.
struct HedgePolicy {
  bool enabled = false;
  double quantile = 0.95;    ///< Trailing-latency quantile that arms a hedge.
  size_t min_samples = 4;    ///< Observations before the trigger is armed.
  size_t window = 32;        ///< Trailing-latency ring size per site.
  double budget_percent = 5.0;  ///< Max hedges as % of admitted calls.
  /// While the trailing ring has fewer than min_samples observations, arm
  /// the hedge at baseline_trigger_factor × the DCSM baseline for the call
  /// shape instead of leaving it unarmed. Early failures on a cold ring are
  /// exactly the tail a hedge exists to cut; 0 disables the fallback.
  double baseline_trigger_factor = 2.0;
};

/// Everything the overload layer enforces for one site's calls. The default
/// policy is exact pass-through (no limiter, no hedging) — historical
/// behavior byte-for-byte.
struct OverloadPolicy {
  LimiterPolicy limiter;
  HedgePolicy hedge;
};

/// The brownout ladder: under sustained shed pressure the mediator degrades
/// in steps instead of collapsing.
///
///   level 0 kNormal   — full service.
///   level 1 kNoHedge  — hedging disabled (shed speculative load first).
///   level 2 kDegrade  — + prefer stale-cache serves, shrink scatter-gather
///                         fanout (sequential execution) for low-priority
///                         queries.
///   level 3 kShedLow  — + low-priority queries shed at pool admission.
///
/// Pressure is the EWMA of the shed fraction over fixed-size event windows
/// (every limiter/admission decision reports an outcome); escalation and
/// de-escalation use separate thresholds plus a dwell so the ladder does
/// not flap. Event-count driven — no wall clock — but fed by load-dependent
/// shed decisions, so deterministic replay tests must run with the ladder
/// cold or assert on outcomes, not levels.
class BrownoutController {
 public:
  enum Level : int { kNormal = 0, kNoHedge = 1, kDegrade = 2, kShedLow = 3 };

  struct Options {
    uint64_t window_events = 64;   ///< Outcomes per pressure evaluation.
    double up_threshold = 0.20;    ///< Shed fraction that escalates a level.
    double down_threshold = 0.05;  ///< Shed fraction that de-escalates.
    double ewma_alpha = 0.4;       ///< Smoothing across windows.
    uint64_t min_dwell_windows = 2;  ///< Windows between level changes.
  };

  /// (from_level, to_level, shed_rate) on every ladder transition. Wiring
  /// time only; the mediator uses it to capture diag bundles and emit
  /// kBrownout flight events.
  using TransitionHook = std::function<void(int, int, double)>;

  // Two overloads rather than one defaulted argument: Options' member
  // initializers are not available for default arguments until the
  // enclosing class is complete.
  BrownoutController() : BrownoutController(Options()) {}
  explicit BrownoutController(Options options) : options_(options) {}

  BrownoutController(const BrownoutController&) = delete;
  BrownoutController& operator=(const BrownoutController&) = delete;

  /// Reports one admission/limiter decision. Thread-safe.
  void RecordOutcome(bool shed);

  int level() const { return level_.load(std::memory_order_relaxed); }
  double shed_rate() const;
  uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }

  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }
  const Options& options() const { return options_; }

  /// Stable lowercase name ("normal", "no_hedge", "degrade", "shed_low").
  static const char* LevelName(int level);

  /// Registers hermes_overload_brownout_level (gauge) and
  /// hermes_overload_brownout_transitions_total with `registry`.
  void BindMetrics(obs::MetricsRegistry& registry);

 private:
  const Options options_;
  mutable std::mutex mu_;
  uint64_t window_events_ = 0;  ///< Outcomes in the current window.
  uint64_t window_sheds_ = 0;
  uint64_t dwell_windows_ = 0;  ///< Windows since the last level change.
  double ewma_ = 0.0;
  bool ewma_valid_ = false;
  std::atomic<int> level_{kNormal};
  std::atomic<uint64_t> transitions_{0};
  TransitionHook hook_;
  std::shared_ptr<obs::Gauge> level_gauge_ = std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Counter> transitions_total_ =
      std::make_shared<obs::Counter>();
};

/// The overload layer of the call pipeline. Sits between resilience and the
/// network link ([cache →] resilience → overload → network → domain) and
/// enforces the OverloadPolicy: per-site AIMD concurrency limiting plus
/// hedged requests.
///
/// Determinism contract (the breaker precedent): limiter windows, trailing
/// latency rings and hedge budgets live on the query's CallContext, so
/// every shed/hedge decision is a pure function of the query's own call
/// sequence on the simulated clock — bit-identical replay at any QueryPool
/// thread count. Shared members are advisory only (metrics).
class OverloadInterceptor : public CallInterceptor {
 public:
  /// Reroutes a hedge to the registered failover replica (the mediator
  /// installs the same reroute AddFailover gives the resilience layer).
  using HedgeFn =
      std::function<Result<CallOutput>(CallContext&, const DomainCall&)>;
  /// Expected all_ms of `call` from the DCSM; <= 0 means unknown (the
  /// limiter then falls back to the query's own trailing mean).
  using BaselineFn = std::function<double(const DomainCall&)>;

  explicit OverloadInterceptor(std::string site_name)
      : site_name_(std::move(site_name)) {}

  const std::string& name() const override;

  Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                               const Next& next) override;

  /// Wiring-time only: policies must not change while queries run.
  void set_policy(const OverloadPolicy& policy) { policy_ = policy; }
  const OverloadPolicy& policy() const { return policy_; }

  void set_baseline(BaselineFn baseline) { baseline_ = std::move(baseline); }
  /// Wiring-time only: where hedged calls go. No route = no hedging.
  void set_hedge_route(HedgeFn route) { hedge_route_ = std::move(route); }
  bool has_hedge_route() const { return hedge_route_ != nullptr; }
  void set_brownout(std::shared_ptr<BrownoutController> brownout) {
    brownout_ = std::move(brownout);
  }

  /// Registers the hermes_overload_* / hermes_hedge_* instruments with
  /// `registry`, labeled {site=<site name>, domain=<domain>}.
  void BindMetrics(obs::MetricsRegistry& registry,
                   const std::string& domain = "");

 private:
  /// The armed hedge trigger for `st`: the trailing-quantile latency once
  /// the ring has min_samples, else baseline_trigger_factor × the DCSM
  /// baseline for `call`, else negative (unarmed).
  double TriggerMs(const CallContext::OverloadState& st,
                   const DomainCall& call) const;

  std::string site_name_;
  OverloadPolicy policy_;
  BaselineFn baseline_;
  HedgeFn hedge_route_;
  std::shared_ptr<BrownoutController> brownout_;

  // hermes_overload_* / hermes_hedge_* instruments (count whether or not
  // bound). The limit gauge is advisory: last writer wins across queries.
  std::shared_ptr<obs::Counter> admitted_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> shed_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Gauge> limit_ = std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Counter> hedges_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> hedge_wins_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> hedge_cancelled_ =
      std::make_shared<obs::Counter>();
};

}  // namespace hermes::overload

#endif  // HERMES_DOMAIN_OVERLOAD_H_
