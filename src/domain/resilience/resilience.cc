#include "domain/resilience/resilience.h"

#include <cmath>

#include "common/rng.h"
#include "obs/flight_recorder.h"

namespace hermes::resilience {

namespace {

/// Flight-recorder note of a breaker state change on `site` at `sim_ms`.
void RecordBreakerEvent(CallContext& ctx, const std::string& site,
                        const char* to_state, double sim_ms,
                        uint64_t consecutive_failures) {
  if (!ctx.observed()) return;
  obs::FlightEvent ev =
      obs::FlightEvent::At(obs::FlightEventKind::kBreakerTransition, sim_ms);
  ev.set_site(site).set_detail(to_state);
  ev.aux = consecutive_failures;
  ctx.Emit(ev);
}

/// Salt separating the backoff-jitter streams from the network-jitter and
/// fault-plan streams derived from the same base seed.
constexpr uint64_t kBackoffStreamSalt = 0xb0ff0e75ULL;

using BreakerState = CallContext::BreakerState;

}  // namespace

const std::string& ResilienceInterceptor::name() const {
  static const std::string kName = "resilience";
  return kName;
}

void ResilienceInterceptor::BindMetrics(obs::MetricsRegistry& registry,
                                        const std::string& domain) {
  obs::Labels labels = {{"site", site_name_}};
  if (!domain.empty()) labels.push_back({"domain", domain});
  registry.Register("hermes_resilience_retries_total",
                    "Retry attempts issued after a failed call", labels,
                    retries_);
  registry.Register("hermes_resilience_giveups_total",
                    "Calls abandoned after exhausting the retry budget",
                    labels, giveups_);
  registry.Register("hermes_resilience_breaker_shed_total",
                    "Calls short-circuited by an open circuit breaker",
                    labels, shed_);
  obs::Labels open_labels = labels;
  open_labels.push_back({"to", "open"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", open_labels,
                    to_open_);
  obs::Labels half_labels = labels;
  half_labels.push_back({"to", "half_open"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", half_labels,
                    to_half_open_);
  obs::Labels closed_labels = labels;
  closed_labels.push_back({"to", "closed"});
  registry.Register("hermes_resilience_breaker_transitions_total",
                    "Circuit-breaker state transitions", closed_labels,
                    to_closed_);
  registry.Register("hermes_resilience_deadline_aborts_total",
                    "Calls abandoned at a per-call or per-query deadline",
                    labels, deadline_aborts_);
  registry.Register("hermes_resilience_failovers_total",
                    "Calls rerouted to an alternate source after giving up",
                    labels, failovers_);
  registry.Register("hermes_resilience_backoff_sim_ms_total",
                    "Simulated time spent waiting between retry attempts",
                    labels, backoff_ms_);
}

Result<CallOutput> ResilienceInterceptor::AttemptWithRetries(
    CallContext& ctx, const DomainCall& call, const Next& next,
    bool single_attempt, double* waited_ms) {
  const double t_call = ctx.now_ms;
  const int attempts = single_attempt ? 1 : policy_.retry.max_retries + 1;
  double waited = 0.0;
  Status last_failure;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Deadlines bound the whole retry schedule, not just the first try.
    const char* expired = nullptr;
    if (t_call + waited >= ctx.deadline_ms) {
      expired = "query";
    } else if (waited >= policy_.call_deadline_ms) {
      expired = "call";
    }
    if (expired != nullptr) {
      ++ctx.metrics.deadline_aborts;
      deadline_aborts_->Add(1);
      ctx.last_failure_site = site_name_;
      ctx.last_failure_cause = "deadline";
      ctx.last_call_penalty_ms = waited;
      *waited_ms = waited;
      return Status::DeadlineExceeded(
          std::string(expired) + " deadline expired before attempt " +
          std::to_string(attempt + 1) + " of " + call.ToString());
    }

    // The attempt sees the query clock advanced by the waits so far: an
    // outage window can end while the call backs off, and the fault plan
    // redraws this attempt's fate under its own attempt index.
    ctx.call_attempt = static_cast<uint64_t>(attempt);
    ctx.now_ms = t_call + waited;
    ctx.last_call_penalty_ms = 0.0;
    Result<CallOutput> run = next(ctx, call);
    ctx.now_ms = t_call;
    ctx.call_attempt = 0;

    if (run.ok()) {
      CallOutput out = std::move(run).value();
      out.first_ms += waited;
      out.all_ms += waited;
      if (out.all_ms > policy_.call_deadline_ms) {
        // Slow-response injection landed: the answers would arrive, but
        // past the deadline — the caller abandons the call at the
        // deadline instead of waiting them out.
        ++ctx.metrics.deadline_aborts;
        deadline_aborts_->Add(1);
        ctx.last_failure_site = site_name_;
        ctx.last_failure_cause = "deadline";
        ctx.last_call_penalty_ms = policy_.call_deadline_ms;
        *waited_ms = policy_.call_deadline_ms;
        return Status::DeadlineExceeded(
            "response to " + call.ToString() + " abandoned at the " +
            std::to_string(policy_.call_deadline_ms) + "ms call deadline");
      }
      *waited_ms = waited;
      return out;
    }

    last_failure = run.status();
    if (!last_failure.IsUnavailable()) {
      *waited_ms = waited;
      return last_failure;  // non-retryable error class
    }
    waited += ctx.last_call_penalty_ms;  // the failed attempt's timeout
    if (attempt + 1 < attempts) {
      double backoff = policy_.retry.backoff_base_ms *
                       std::pow(policy_.retry.backoff_multiplier, attempt);
      if (policy_.retry.backoff_jitter > 0.0) {
        Rng jitter(Rng::StreamSeed(
            Rng::StreamSeed(
                Rng::StreamSeed(seed_ ^ kBackoffStreamSalt, ctx.query_id),
                static_cast<uint64_t>(call.Hash())),
            static_cast<uint64_t>(attempt)));
        backoff *=
            1.0 + policy_.retry.backoff_jitter * (2.0 * jitter.NextDouble() - 1.0);
      }
      if (ctx.observed()) {
        // The wait's begin names the retry; its end gives the cause and
        // the backoff.
        obs::FlightEvent wait = obs::FlightEvent::At(
            obs::FlightEventKind::kRetryWaitBegin, t_call + waited);
        wait.set_site(site_name_).set_domain(call.domain);
        wait.aux = static_cast<uint64_t>(attempt) + 1;
        obs::FlightEvent end =
            obs::FlightEvent::End(obs::FlightEventKind::kRetryWaitEnd,
                                  ctx.Emit(wait), t_call + waited + backoff);
        end.set_detail(ctx.last_failure_cause);
        end.value = backoff;
        ctx.Emit(end);
      }
      waited += backoff;
      ++ctx.metrics.retries;
      ctx.metrics.retry_backoff_ms += backoff;
      retries_->Add(1);
      backoff_ms_->Add(backoff);
    }
  }
  ctx.last_call_penalty_ms = waited;
  *waited_ms = waited;
  return last_failure;
}

Result<CallOutput> ResilienceInterceptor::GiveUp(CallContext& ctx,
                                                 const DomainCall& call,
                                                 Status failure,
                                                 const std::string& cause,
                                                 double lost_ms) {
  if (policy_.enable_failover && failover_ != nullptr) {
    ++ctx.metrics.failovers;
    failovers_->Add(1);
    const double t_open = ctx.now_ms;
    uint32_t span = 0;
    if (ctx.observed()) {
      span = ctx.Emit(
          obs::FlightEvent::At(obs::FlightEventKind::kFailoverBegin, t_open)
              .set_site(site_name_));
    }
    Result<CallOutput> alternate = failover_(ctx, call);
    if (alternate.ok()) {
      CallOutput out = std::move(alternate).value();
      out.first_ms += lost_ms;  // the time lost before failing over
      out.all_ms += lost_ms;
      ctx.Emit(obs::FlightEventKind::kFailoverEnd, t_open + out.all_ms, span);
      return out;
    }
    if (ctx.observed()) {
      ctx.Emit(obs::FlightEvent::End(obs::FlightEventKind::kFailoverEnd, span,
                                     t_open)
                   .set_failed(ctx.failure_cause(), ctx.last_failure_site));
    }
  }

  SourceError err;
  err.site = ctx.last_failure_site.empty() ? site_name_ : ctx.last_failure_site;
  err.domain = call.domain;
  err.function = call.function;
  err.cause = cause;
  err.message = failure.ToString();
  err.t_ms = ctx.now_ms + lost_ms;
  err.masked = false;  // the cache layer above flips this when it masks
  ctx.source_errors.push_back(std::move(err));
  ctx.last_failure_cause = cause;
  if (ctx.last_failure_site.empty()) ctx.last_failure_site = site_name_;
  return failure;
}

Result<CallOutput> ResilienceInterceptor::Intercept(CallContext& ctx,
                                                    const DomainCall& call,
                                                    const Next& next) {
  const std::string& breaker_key =
      site_name_.empty() ? call.domain : site_name_;
  BreakerState* breaker = nullptr;
  bool probe = false;
  if (policy_.breaker.enabled) {
    breaker = &ctx.breaker_states[breaker_key];
    if (breaker->state != BreakerState::kClosed) {
      ++breaker->shed_since_probe;
      if (policy_.breaker.probe_interval > 0 &&
          breaker->shed_since_probe % policy_.breaker.probe_interval == 0) {
        probe = true;
        breaker->state = BreakerState::kHalfOpen;
        to_half_open_->Add(1);
        RecordBreakerEvent(ctx, breaker_key, "half_open", ctx.now_ms,
                           breaker->consecutive_failures);
      } else {
        // Shed: fail fast without attempting the call (that is the load
        // the breaker takes off a struggling site).
        ++ctx.metrics.breaker_shed;
        shed_->Add(1);
        if (ctx.observed()) {
          const uint32_t span =
              ctx.Emit(obs::FlightEventKind::kBreakerShedBegin, ctx.now_ms);
          ctx.Emit(obs::FlightEvent::End(obs::FlightEventKind::kBreakerShedEnd,
                                         span, ctx.now_ms)
                       .set_failed("breaker-open"));
        }
        ctx.last_failure_site = site_name_;
        ctx.last_failure_cause = "breaker-open";
        ctx.last_call_penalty_ms = 0.0;
        return GiveUp(ctx, call,
                      Status::Unavailable("circuit breaker open for site '" +
                                          site_name_ + "': " +
                                          call.ToString() + " shed"),
                      "breaker-open", 0.0);
      }
    }
  }

  double waited = 0.0;
  // Mark half-open probes for the overload layer below: probe traffic is
  // exempt from the AIMD limiter so a recovering site always sees its probe.
  ctx.breaker_probe = probe;
  Result<CallOutput> run =
      AttemptWithRetries(ctx, call, next, /*single_attempt=*/probe, &waited);
  ctx.breaker_probe = false;
  if (run.ok()) {
    if (breaker != nullptr) {
      if (breaker->state != BreakerState::kClosed) {
        to_closed_->Add(1);
        RecordBreakerEvent(ctx, breaker_key, "closed", ctx.now_ms + waited, 0);
      }
      breaker->state = BreakerState::kClosed;
      breaker->consecutive_failures = 0;
      breaker->shed_since_probe = 0;
    }
    return run;
  }
  if (!run.status().IsUnavailable() && !run.status().IsDeadlineExceeded()) {
    return run;  // invariant violations etc. are not resilience's business
  }

  if (breaker != nullptr) {
    ++breaker->consecutive_failures;
    bool opened = false;
    if (breaker->state == BreakerState::kHalfOpen) {
      opened = true;  // failed probe re-opens
    } else if (breaker->state == BreakerState::kClosed &&
               breaker->consecutive_failures >=
                   policy_.breaker.failure_threshold) {
      opened = true;
    }
    if (opened) {
      breaker->state = BreakerState::kOpen;
      breaker->shed_since_probe = 0;
      to_open_->Add(1);
      RecordBreakerEvent(ctx, breaker_key, "open", ctx.now_ms + waited,
                         breaker->consecutive_failures);
    }
  }
  giveups_->Add(1);
  std::string cause = !ctx.last_failure_cause.empty()
                          ? ctx.last_failure_cause
                          : std::string(run.status().IsDeadlineExceeded()
                                            ? "deadline"
                                            : "unavailable");
  return GiveUp(ctx, call, run.status(), cause, waited);
}

Result<CostVector> ResilienceInterceptor::EstimateCost(
    const lang::DomainCallSpec& pattern, const EstimateNext& next) const {
  HERMES_ASSIGN_OR_RETURN(CostVector inner, next(pattern));
  double availability = link_ != nullptr ? link_->site().availability : 1.0;
  double p = 1.0 - availability;
  if (p <= 0.0) return inner;  // fully available: exact pass-through
  double timeout = link_ != nullptr ? link_->site().retry_timeout_ms
                                    : kDefaultRetryTimeoutMs;
  // Expected penalty of the retry schedule: attempt k (k = 0..R) fails
  // with probability p^(k+1), costing one retry timeout; each retry k is
  // reached with probability p^(k+1) and waits the k-th backoff first.
  double penalty = 0.0;
  double p_k = p;
  double backoff = policy_.retry.backoff_base_ms;
  for (int k = 0; k <= policy_.retry.max_retries; ++k) {
    penalty += p_k * timeout;
    if (k < policy_.retry.max_retries) {
      penalty += p_k * backoff;
      backoff *= policy_.retry.backoff_multiplier;
    }
    p_k *= p;
  }
  return CostVector(inner.t_first_ms + penalty, inner.t_all_ms + penalty,
                    inner.cardinality);
}

}  // namespace hermes::resilience
