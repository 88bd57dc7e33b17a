#include "domain/resilience/resilience.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "domain/pipeline.h"
#include "obs/flight_recorder.h"

namespace hermes::resilience {
namespace {

constexpr double kTimeoutMs = 2000.0;  // per-failure penalty the fake charges

DomainCall TheCall() { return DomainCall{"video", "frames", {Value::Int(4)}}; }

/// A fake inner layer (the network + domain below the resilience layer):
/// unavailable until the query clock reaches `recover_at_ms`, then answers
/// with fixed latencies. Each failed attempt charges the retry timeout the
/// way NetworkInterceptor does.
struct FlakySite {
  double recover_at_ms = 0.0;
  int attempts = 0;
  double slow_all_ms = 10.0;  // latency of a successful response

  CallInterceptor::Next AsNext() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      ++attempts;
      if (ctx.now_ms < recover_at_ms) {
        ctx.last_failure_site = "umd";
        ctx.last_failure_cause = "outage";
        ctx.last_call_penalty_ms = kTimeoutMs;
        return Status::Unavailable("site 'umd' is down");
      }
      CallOutput out;
      out.answers = {Value::Int(1)};
      out.first_ms = 5.0;
      out.all_ms = slow_all_ms;
      return out;
    };
  }
};

ResiliencePolicy NoJitterRetries(int max_retries) {
  ResiliencePolicy policy;
  policy.retry.max_retries = max_retries;
  policy.retry.backoff_base_ms = 100.0;
  policy.retry.backoff_multiplier = 2.0;
  policy.retry.backoff_jitter = 0.0;
  return policy;
}

TEST(ResilienceTest, DefaultPolicyIsSingleAttemptPassThrough) {
  FlakySite site;
  site.recover_at_ms = 1e12;  // never recovers
  ResilienceInterceptor shield("umd", 1996, nullptr);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsUnavailable());
  EXPECT_EQ(site.attempts, 1);
  EXPECT_EQ(ctx.metrics.retries, 0u);
  // Giving up names the lost source.
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_EQ(ctx.source_errors[0].site, "umd");
  EXPECT_EQ(ctx.source_errors[0].cause, "outage");
  EXPECT_FALSE(ctx.source_errors[0].masked);
}

TEST(ResilienceTest, BackoffRidesOutAnOutageWindow) {
  // Attempt 0 at t=0 fails (+2000ms timeout, +100ms backoff); attempt 1 at
  // t=2100 fails (+2000, +200); attempt 2 at t=4300 is past the outage.
  FlakySite site;
  site.recover_at_ms = 2500.0;
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  obs::Tracer tracer;
  obs::EventSinks sinks{&tracer};
  CallContext ctx;
  ctx.sinks = &sinks;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(site.attempts, 3);
  EXPECT_EQ(ctx.metrics.retries, 2u);
  EXPECT_DOUBLE_EQ(ctx.metrics.retry_backoff_ms, 300.0);  // 100 + 200
  // The waits ride on the answer's simulated latency.
  EXPECT_DOUBLE_EQ(run->all_ms, 4300.0 + 10.0);
  EXPECT_DOUBLE_EQ(run->first_ms, 4300.0 + 5.0);
  EXPECT_TRUE(ctx.source_errors.empty());  // it recovered: nothing lost

  // Each retry is one retry-wait span and nothing else: its begin names
  // the site, the domain and the attempt, its end the cause and backoff.
  const std::vector<obs::FlightEvent>& events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  const double begin_ms[] = {2000.0, 4100.0};
  const double backoff_ms[] = {100.0, 200.0};
  for (size_t i = 0; i < 2; ++i) {
    const obs::FlightEvent& begin = events[2 * i];
    const obs::FlightEvent& end = events[2 * i + 1];
    EXPECT_EQ(begin.kind, obs::FlightEventKind::kRetryWaitBegin);
    EXPECT_EQ(begin.site_str(), "umd");
    EXPECT_EQ(begin.domain_str(), "video");
    EXPECT_EQ(begin.detail_str(), "");
    EXPECT_EQ(begin.aux, i + 1);
    EXPECT_DOUBLE_EQ(begin.sim_ms, begin_ms[i]);
    EXPECT_EQ(end.kind, obs::FlightEventKind::kRetryWaitEnd);
    EXPECT_EQ(end.begin_seq, begin.seq);
    EXPECT_EQ(end.detail_str(), "outage");
    EXPECT_DOUBLE_EQ(end.value, backoff_ms[i]);
    EXPECT_DOUBLE_EQ(end.sim_ms, begin_ms[i] + backoff_ms[i]);
  }
}

TEST(ResilienceTest, BackoffJitterIsDeterministicPerQueryAndCall) {
  ResiliencePolicy policy = NoJitterRetries(2);
  policy.retry.backoff_jitter = 0.10;
  auto run_once = [&](uint64_t seed, uint64_t query_id) {
    FlakySite site;
    site.recover_at_ms = 1e12;
    ResilienceInterceptor shield("umd", seed, nullptr, policy);
    CallContext ctx;
    ctx.query_id = query_id;
    (void)shield.Intercept(ctx, TheCall(), site.AsNext());
    return ctx.metrics.retry_backoff_ms;
  };
  double first = run_once(1996, 7);
  EXPECT_DOUBLE_EQ(first, run_once(1996, 7));  // bit-identical replay
  // Jitter stays inside the +/-10% band around the nominal 100+200ms.
  EXPECT_GE(first, 300.0 * 0.9);
  EXPECT_LE(first, 300.0 * 1.1);
  // ... and the stream really is keyed on (seed, query).
  EXPECT_NE(first, run_once(1996, 8));
  EXPECT_NE(first, run_once(2024, 7));
}

TEST(ResilienceTest, CallDeadlineBoundsTheRetrySchedule) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy = NoJitterRetries(5);
  policy.call_deadline_ms = 1500.0;  // one 2000ms timeout already overshoots
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(site.attempts, 1);  // attempt 2 was never issued
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_EQ(ctx.source_errors[0].cause, "deadline");
}

TEST(ResilienceTest, QueryDeadlineAbortsBeforeAnyAttempt) {
  FlakySite site;
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(2));
  CallContext ctx;
  ctx.now_ms = 10.0;
  ctx.deadline_ms = 5.0;  // already past the query deadline
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(site.attempts, 0);
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
}

TEST(ResilienceTest, SlowResponseIsAbandonedAtTheCallDeadline) {
  FlakySite site;
  site.slow_all_ms = 50000.0;  // a slow-injection-sized response
  ResiliencePolicy policy;
  policy.call_deadline_ms = 10000.0;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsDeadlineExceeded());
  EXPECT_EQ(ctx.metrics.deadline_aborts, 1u);
}

TEST(ResilienceTest, BreakerOpensShedsAndProbesBackClosed) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;  // no retries: one attempt per call
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 2;
  policy.breaker.probe_interval = 4;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;

  // Calls 1-2 attempt and fail: the breaker trips at the threshold.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_EQ(site.attempts, 2);
  ASSERT_EQ(ctx.breaker_states.count("umd"), 1u);
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kOpen);

  // Calls 3-5 are shed without touching the site; call 6 is the probe.
  for (int i = 0; i < 3; ++i) {
    Result<CallOutput> shed = shield.Intercept(ctx, TheCall(), site.AsNext());
    EXPECT_FALSE(shed.ok());
  }
  EXPECT_EQ(site.attempts, 2);  // load was shed, not attempted
  EXPECT_EQ(ctx.metrics.breaker_shed, 3u);
  EXPECT_EQ(ctx.source_errors.back().cause, "breaker-open");

  site.recover_at_ms = 0.0;  // the site comes back...
  Result<CallOutput> probe = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(probe.ok()) << probe.status();  // ...and the probe finds out
  EXPECT_EQ(site.attempts, 3);
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kClosed);
  // Closed again: the next call goes straight through.
  EXPECT_TRUE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  EXPECT_EQ(site.attempts, 4);
  EXPECT_EQ(ctx.metrics.breaker_shed, 3u);
}

TEST(ResilienceTest, FailedProbeReopensTheBreaker) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 1;
  policy.breaker.probe_interval = 2;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  CallContext ctx;
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // trip
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // shed
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());  // probe
  EXPECT_EQ(site.attempts, 2);  // trip + failed probe
  EXPECT_EQ(ctx.breaker_states["umd"].state,
            CallContext::BreakerState::kOpen);
  EXPECT_EQ(ctx.metrics.breaker_shed, 1u);
}

TEST(ResilienceTest, FailoverReroutesAfterGivingUp) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResilienceInterceptor shield("umd", 1996, nullptr);
  shield.set_failover([](CallContext&, const DomainCall&) {
    CallOutput out;
    out.answers = {Value::Str("mirror")};
    out.first_ms = 1.0;
    out.all_ms = 2.0;
    return Result<CallOutput>(std::move(out));
  });
  CallContext ctx;
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->answers.size(), 1u);
  EXPECT_EQ(run->answers[0], Value::Str("mirror"));
  EXPECT_EQ(ctx.metrics.failovers, 1u);
  // The time burned on the dead primary precedes the alternate's answer.
  EXPECT_DOUBLE_EQ(run->all_ms, kTimeoutMs + 2.0);
  EXPECT_TRUE(ctx.source_errors.empty());  // nothing was lost in the end
}

TEST(ResilienceTest, FailoverCanBeDisabledByPolicy) {
  FlakySite site;
  site.recover_at_ms = 1e12;
  ResiliencePolicy policy;
  policy.enable_failover = false;
  ResilienceInterceptor shield("umd", 1996, nullptr, policy);
  bool failover_ran = false;
  shield.set_failover([&](CallContext&, const DomainCall&) {
    failover_ran = true;
    return Result<CallOutput>(CallOutput{});
  });
  CallContext ctx;
  EXPECT_FALSE(shield.Intercept(ctx, TheCall(), site.AsNext()).ok());
  EXPECT_FALSE(failover_ran);
  EXPECT_EQ(ctx.metrics.failovers, 0u);
}

TEST(ResilienceTest, NonRetryableErrorsPassThroughUntouched) {
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  CallContext ctx;
  int attempts = 0;
  auto next = [&](CallContext&, const DomainCall&) -> Result<CallOutput> {
    ++attempts;
    return Status::InvalidArgument("bad call shape");
  };
  Result<CallOutput> run = shield.Intercept(ctx, TheCall(), next);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(attempts, 1);  // invariant violations are not retried
  EXPECT_EQ(ctx.metrics.retries, 0u);
  EXPECT_TRUE(ctx.source_errors.empty());  // and not a "lost source" either
}

TEST(ResilienceTest, EstimatePassesThroughForFullyAvailableSites) {
  ResilienceInterceptor shield("umd", 1996, nullptr, NoJitterRetries(3));
  lang::DomainCallSpec spec;
  auto next = [](const lang::DomainCallSpec&) {
    return Result<CostVector>(CostVector(10.0, 20.0, 5.0));
  };
  Result<CostVector> cost = shield.EstimateCost(spec, next);
  ASSERT_TRUE(cost.ok());
  // No link → availability 1 → byte-identical inner estimate (what keeps
  // the historical experiment tables unchanged).
  EXPECT_DOUBLE_EQ(cost->t_first_ms, 10.0);
  EXPECT_DOUBLE_EQ(cost->t_all_ms, 20.0);
  EXPECT_DOUBLE_EQ(cost->cardinality, 5.0);
}

}  // namespace
}  // namespace hermes::resilience
