#include "domain/overload.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/flight_recorder.h"

namespace hermes::overload {

namespace {

/// Observed all_ms above this multiple of the baseline is congestion.
constexpr double kCongestionLatencyFactor = 3.0;

/// Opens the span of an overload action (a load shed or a hedge) at
/// `sim_ms`: its begin event names the site and domain and carries the
/// action's `value` (shed limit, hedge trigger) and `aux` (window size,
/// hedges issued).
uint32_t BeginOverloadSpan(CallContext& ctx, obs::FlightEventKind kind,
                           const std::string& site, const std::string& domain,
                           double sim_ms, double value, uint64_t aux) {
  if (!ctx.observed()) return 0;
  obs::FlightEvent ev = obs::FlightEvent::At(kind, sim_ms);
  ev.set_site(site).set_domain(domain);
  ev.value = value;
  ev.aux = aux;
  return ctx.Emit(ev);
}

/// Closes a hedge span at `sim_ms` with its result, `win` or `cancelled`.
/// `value` is the adopted answer's latency after a rescue, the time a
/// speculative win saved, or the primary's latency when cancelled.
void EndHedgeSpan(CallContext& ctx, uint32_t span, const char* result,
                  double sim_ms, double value) {
  if (!ctx.observed()) return;
  obs::FlightEvent ev =
      obs::FlightEvent::End(obs::FlightEventKind::kHedgeEnd, span, sim_ms);
  ev.set_detail(result);
  ev.value = value;
  ctx.Emit(ev);
}

}  // namespace

// ---- BrownoutController -----------------------------------------------------

const char* BrownoutController::LevelName(int level) {
  switch (level) {
    case kNormal: return "normal";
    case kNoHedge: return "no_hedge";
    case kDegrade: return "degrade";
    case kShedLow: return "shed_low";
  }
  return "unknown";
}

void BrownoutController::BindMetrics(obs::MetricsRegistry& registry) {
  registry.Register("hermes_overload_brownout_level",
                    "Current brownout-ladder level (0 = normal, 3 = shedding "
                    "low-priority queries at admission)",
                    {}, level_gauge_);
  registry.Register("hermes_overload_brownout_transitions_total",
                    "Brownout-ladder level transitions", {},
                    transitions_total_);
}

double BrownoutController::shed_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_valid_ ? ewma_ : 0.0;
}

void BrownoutController::RecordOutcome(bool shed) {
  int from = -1;
  int to = -1;
  double rate = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++window_events_;
    if (shed) ++window_sheds_;
    if (window_events_ < options_.window_events) return;
    double window_rate =
        static_cast<double>(window_sheds_) / static_cast<double>(window_events_);
    window_events_ = 0;
    window_sheds_ = 0;
    ewma_ = ewma_valid_
                ? options_.ewma_alpha * window_rate +
                      (1.0 - options_.ewma_alpha) * ewma_
                : window_rate;
    ewma_valid_ = true;
    ++dwell_windows_;
    if (dwell_windows_ < options_.min_dwell_windows) return;
    int current = level_.load(std::memory_order_relaxed);
    int next = current;
    if (ewma_ > options_.up_threshold && current < kShedLow) {
      next = current + 1;
    } else if (ewma_ < options_.down_threshold && current > kNormal) {
      next = current - 1;
    }
    if (next == current) return;
    dwell_windows_ = 0;
    level_.store(next, std::memory_order_relaxed);
    level_gauge_->Set(static_cast<double>(next));
    transitions_.fetch_add(1, std::memory_order_relaxed);
    transitions_total_->Add(1);
    from = current;
    to = next;
    rate = ewma_;
  }
  // Hook outside the lock: it captures diag bundles and snapshots metrics,
  // which must not nest under the controller's mutex.
  if (hook_) hook_(from, to, rate);
}

// ---- OverloadInterceptor ----------------------------------------------------

const std::string& OverloadInterceptor::name() const {
  static const std::string kName = "overload";
  return kName;
}

void OverloadInterceptor::BindMetrics(obs::MetricsRegistry& registry,
                                      const std::string& domain) {
  obs::Labels labels = {{"site", site_name_}};
  if (!domain.empty()) labels.push_back({"domain", domain});
  registry.Register("hermes_overload_admitted_total",
                    "Calls admitted through the per-site concurrency limiter",
                    labels, admitted_);
  registry.Register("hermes_overload_shed_total",
                    "Calls shed by the per-site AIMD concurrency limiter",
                    labels, shed_);
  registry.Register("hermes_overload_limit",
                    "Most recent per-query AIMD concurrency limit (advisory)",
                    labels, limit_);
  registry.Register("hermes_hedge_issued_total",
                    "Speculative hedge calls issued past the trailing-p95 "
                    "trigger",
                    labels, hedges_);
  registry.Register("hermes_hedge_wins_total",
                    "Hedge calls whose response beat the primary", labels,
                    hedge_wins_);
  registry.Register("hermes_hedge_cancelled_total",
                    "Hedge calls cancelled because the primary won", labels,
                    hedge_cancelled_);
}

double OverloadInterceptor::TriggerMs(const CallContext::OverloadState& st,
                                      const DomainCall& call) const {
  if (st.latency_window.size() < policy_.hedge.min_samples) {
    // Cold ring: borrow the cross-query DCSM baseline so the first few
    // calls of a query are still hedgeable. The factor keeps ordinary
    // jitter (bounded well under 2× the mean) from wasting budget.
    if (policy_.hedge.baseline_trigger_factor > 0.0 && baseline_) {
      double base = baseline_(call);
      if (base > 0.0) return policy_.hedge.baseline_trigger_factor * base;
    }
    return -1.0;
  }
  // Nearest-rank quantile over a copy of the trailing ring; the ring is
  // bounded by HedgePolicy::window so this stays cheap and allocation-light.
  std::vector<double> sorted(st.latency_window);
  std::sort(sorted.begin(), sorted.end());
  double rank = policy_.hedge.quantile * static_cast<double>(sorted.size() - 1);
  size_t index = static_cast<size_t>(rank);
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

Result<CallOutput> OverloadInterceptor::Intercept(CallContext& ctx,
                                                  const DomainCall& call,
                                                  const Next& next) {
  if (!policy_.limiter.enabled && !policy_.hedge.enabled) {
    return next(ctx, call);  // pass-through: historical behavior exactly
  }

  const std::string& site_key = site_name_.empty() ? call.domain : site_name_;
  CallContext::OverloadState& st = ctx.overload_states[site_key];
  if (st.limit <= 0.0) st.limit = policy_.limiter.initial_limit;
  const double t_open = ctx.now_ms;
  const bool probe = ctx.breaker_probe;

  if (policy_.limiter.enabled && !probe) {
    // Drain completed intervals: a slot whose simulated completion is at or
    // before this call's open time is free again.
    auto& window = st.in_flight_until_ms;
    window.erase(
        std::remove_if(window.begin(), window.end(),
                       [t_open](double end_ms) { return end_ms <= t_open; }),
        window.end());
    // Breaker open ⇒ the site gets the limit floor regardless of AIMD
    // state: probes trickle through, everything else stays off its back.
    double limit = st.limit;
    auto breaker = ctx.breaker_states.find(site_key);
    if (breaker != ctx.breaker_states.end() &&
        breaker->second.state == CallContext::BreakerState::kOpen) {
      limit = policy_.limiter.min_limit;
    }
    if (static_cast<double>(window.size()) >= limit) {
      ++ctx.metrics.load_shed;
      shed_->Add(1);
      if (brownout_ != nullptr) brownout_->RecordOutcome(true);
      if (ctx.observed()) {
        const uint32_t span = BeginOverloadSpan(
            ctx, obs::FlightEventKind::kLoadShedBegin, site_key, call.domain,
            t_open, limit, window.size());
        ctx.Emit(obs::FlightEvent::End(obs::FlightEventKind::kLoadShedEnd,
                                       span, t_open)
                     .set_failed("limit"));
      }
      ctx.last_failure_site = site_key;
      ctx.last_failure_cause = "load-shed";
      ctx.last_call_penalty_ms = 0.0;
      SourceError err;
      err.site = site_key;
      err.domain = call.domain;
      err.function = call.function;
      err.cause = "load-shed";
      err.t_ms = t_open;
      Status shed = Status::ResourceExhausted(
          "per-site concurrency limit " + std::to_string(window.size()) + "/" +
          std::to_string(limit) + " reached for site '" + site_key +
          "': " + call.ToString() + " shed");
      err.message = shed.ToString();
      ctx.source_errors.push_back(std::move(err));
      return shed;
    }
    if (brownout_ != nullptr) brownout_->RecordOutcome(false);
  }

  Result<CallOutput> run = next(ctx, call);

  // Half-open breaker probes are exempt from all limiter accounting: they
  // must neither occupy a window slot nor move the AIMD limit, or a
  // recovering site would be starved of exactly the traffic that closes
  // its breaker.
  if (probe) return run;

  const bool hedging_armed =
      policy_.hedge.enabled && hedge_route_ != nullptr &&
      !ctx.hedging_disabled &&
      (brownout_ == nullptr ||
       brownout_->level() < BrownoutController::kNoHedge);

  if (!run.ok()) {
    if (policy_.limiter.enabled) {
      st.limit = std::max(policy_.limiter.min_limit,
                          st.limit * policy_.limiter.multiplicative_decrease);
      limit_->Set(st.limit);
    }
    // Failure rescue: on the simulated clock the speculative request was
    // already in flight at trigger time, so a failed primary adopts the
    // hedge's answer instead of surfacing the failure. This is the hedge
    // win that cuts the *unavailability* tail (timeout penalties), not
    // just the jitter tail. Shed calls are excluded — hedging a load-shed
    // call would defeat the limiter.
    if (hedging_armed && !run.status().IsResourceExhausted()) {
      const double trigger = TriggerMs(st, call);
      // Rescues are deliberately not budget-gated: when a failover route
      // exists, the resilience layer above would retry this failure anyway
      // — after the full timeout penalty. The rescue is that same extra
      // call moved earlier, not an additional one, so only speculative
      // hedges (below) draw down the budget.
      if (trigger >= 0.0) {
        ++st.hedges_issued;
        ++ctx.metrics.hedges;
        hedges_->Add(1);
        const uint32_t span = BeginOverloadSpan(
            ctx, obs::FlightEventKind::kHedgeBegin, site_key, call.domain,
            t_open + trigger, trigger, st.hedges_issued);
        ctx.now_ms = t_open + trigger;
        Result<CallOutput> alt = hedge_route_(ctx, call);
        ctx.now_ms = t_open;
        if (alt.ok()) {
          CallOutput won = std::move(alt).value();
          won.first_ms += trigger;
          won.all_ms += trigger;
          EndHedgeSpan(ctx, span, "win", t_open + won.all_ms, won.all_ms);
          ++ctx.metrics.hedge_wins;
          hedge_wins_->Add(1);
          // The hedge answered for the failed primary: mask its source
          // error (mirrors the failover and cache-degradation paths).
          for (auto it = ctx.source_errors.rbegin();
               it != ctx.source_errors.rend(); ++it) {
            if (it->function == call.function && !it->masked) {
              it->masked = true;
              break;
            }
          }
          ++st.calls_seen;
          admitted_->Add(1);
          return won;
        }
        if (ctx.observed()) {
          ctx.Emit(obs::FlightEvent::End(obs::FlightEventKind::kHedgeEnd, span,
                                         t_open + trigger)
                       .set_failed(ctx.failure_cause(),
                                   ctx.last_failure_site));
        }
        hedge_cancelled_->Add(1);
      }
    }
    return run;
  }
  CallOutput out = std::move(run).value();

  if (policy_.limiter.enabled) {
    st.in_flight_until_ms.push_back(t_open + out.all_ms);
    // AIMD feed: congestion = observed latency past
    // kCongestionLatencyFactor × the DCSM baseline (falling back to this
    // query's own trailing mean while the DCSM has no estimate for the call
    // shape).
    double baseline = baseline_ ? baseline_(call) : 0.0;
    if (baseline <= 0.0 && !st.latency_window.empty()) {
      double sum = 0.0;
      for (double v : st.latency_window) sum += v;
      baseline = sum / static_cast<double>(st.latency_window.size());
    }
    if (baseline > 0.0 && out.all_ms > kCongestionLatencyFactor * baseline) {
      st.limit = std::max(policy_.limiter.min_limit,
                          st.limit * policy_.limiter.multiplicative_decrease);
    } else {
      st.limit = std::min(policy_.limiter.max_limit,
                          st.limit + policy_.limiter.additive_increase);
    }
    limit_->Set(st.limit);
  }
  ++st.calls_seen;
  admitted_->Add(1);

  // Hedge decision — after the primary's simulated latency is known, which
  // on the simulated clock is equivalent to arming a timer at the trigger:
  // the hedge runs iff the primary is still in flight at trigger time.
  const double primary_ms = out.all_ms;
  if (hedging_armed) {
    double trigger = TriggerMs(st, call);
    // Speculative hedges draw down the budget: the first is free, after
    // that issued hedges (rescues included) must stay inside
    // budget_percent of this query's calls to the site.
    bool budget_ok =
        static_cast<double>(st.hedges_issued) * 100.0 <=
        policy_.hedge.budget_percent * static_cast<double>(st.calls_seen);
    if (trigger >= 0.0 && primary_ms > trigger && budget_ok) {
      ++st.hedges_issued;
      ++ctx.metrics.hedges;
      hedges_->Add(1);
      const uint32_t span = BeginOverloadSpan(
          ctx, obs::FlightEventKind::kHedgeBegin, site_key, call.domain,
          t_open + trigger, trigger, st.hedges_issued);
      // The hedge opens at trigger time on the simulated clock; the route
      // runs the replica's full pipeline under this query's context, so
      // its traffic and latency are charged to this query (the ≤ budget %
      // extra calls the policy allows).
      ctx.now_ms = t_open + trigger;
      Result<CallOutput> alt = hedge_route_(ctx, call);
      ctx.now_ms = t_open;
      if (alt.ok() && trigger + alt->all_ms < primary_ms) {
        // The hedge answered first: adopt it and cancel the primary (its
        // remaining in-flight time is abandoned on the simulated clock).
        CallOutput won = std::move(alt).value();
        won.first_ms = std::min(out.first_ms, trigger + won.first_ms);
        won.all_ms = trigger + won.all_ms;
        EndHedgeSpan(ctx, span, "win", t_open + won.all_ms,
                     primary_ms - won.all_ms);
        ++ctx.metrics.hedge_wins;
        hedge_wins_->Add(1);
        out = std::move(won);
      } else {
        // The primary won (or the hedge failed): the hedge is cancelled at
        // the primary's completion time.
        EndHedgeSpan(ctx, span, "cancelled", t_open + primary_ms,
                     primary_ms);
        hedge_cancelled_->Add(1);
      }
    }
  }

  // Trailing-latency ring (hedge trigger + limiter fallback baseline),
  // observed from the primary's raw latency after this call's own trigger
  // was computed — a call never hedges against itself.
  if (policy_.hedge.window > 0) {
    if (st.latency_window.size() < policy_.hedge.window) {
      st.latency_window.push_back(primary_ms);
    } else {
      st.latency_window[st.latency_next % policy_.hedge.window] = primary_ms;
    }
    ++st.latency_next;
  }

  return out;
}

}  // namespace hermes::overload
