#include "domain/overload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "domain/pipeline.h"
#include "obs/flight_recorder.h"

namespace hermes::overload {
namespace {

DomainCall TheCall() { return DomainCall{"video", "frames", {Value::Int(4)}}; }

/// A context whose events land in `tracer`.
struct TracedContext {
  obs::Tracer tracer;
  obs::EventSinks sinks{&tracer};
  CallContext ctx;
  TracedContext() { ctx.sinks = &sinks; }
};

/// Expects `events` to be exactly one span opened by `begin_kind` at
/// `begin_ms` that names site umd and domain video and carries `value` and
/// `aux`, and returns its end event.
const obs::FlightEvent& ExpectOneSpan(
    const std::vector<obs::FlightEvent>& events,
    obs::FlightEventKind begin_kind, double begin_ms, double value,
    uint64_t aux) {
  static const obs::FlightEvent kNone;
  if (events.size() != 2) {
    ADD_FAILURE() << "expected one span's two events, got " << events.size();
    return kNone;
  }
  const obs::FlightEvent& begin = events.front();
  EXPECT_EQ(begin.kind, begin_kind);
  EXPECT_DOUBLE_EQ(begin.sim_ms, begin_ms);
  EXPECT_EQ(begin.site_str(), "umd");
  EXPECT_EQ(begin.domain_str(), "video");
  EXPECT_EQ(begin.detail_str(), "");
  EXPECT_DOUBLE_EQ(begin.value, value);
  EXPECT_EQ(begin.aux, aux);
  const obs::FlightEvent& end = events.back();
  EXPECT_EQ(end.begin_seq, begin.seq);
  return end;
}

/// Fake inner layer (network + domain below the overload layer): answers
/// with a scripted latency per attempt, or fails when the script says so.
/// A negative latency means "fail this attempt with Unavailable".
struct ScriptedSite {
  std::vector<double> latencies_ms;
  size_t attempts = 0;

  CallInterceptor::Next AsNext() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      double ms =
          attempts < latencies_ms.size() ? latencies_ms[attempts] : 10.0;
      ++attempts;
      if (ms < 0.0) {
        ctx.last_failure_site = "umd";
        ctx.last_failure_cause = "outage";
        SourceError err;
        err.site = "umd";
        err.domain = "video";
        err.function = "frames";
        err.cause = "outage";
        err.t_ms = ctx.now_ms;
        ctx.source_errors.push_back(std::move(err));
        return Status::Unavailable("site 'umd' is down");
      }
      CallOutput out;
      out.answers = {Value::Int(1)};
      out.first_ms = ms / 2.0;
      out.all_ms = ms;
      return out;
    };
  }
};

OverloadPolicy LimiterOnly(double initial, double min = 1.0) {
  OverloadPolicy policy;
  policy.limiter.enabled = true;
  policy.limiter.initial_limit = initial;
  policy.limiter.min_limit = min;
  policy.limiter.max_limit = 64.0;
  return policy;
}

TEST(OverloadTest, DefaultPolicyIsPassThrough) {
  ScriptedSite site{{25.0}};
  OverloadInterceptor governor("umd");
  CallContext ctx;
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 25.0);
  EXPECT_TRUE(ctx.overload_states.empty());  // no state is even touched
}

TEST(OverloadTest, LimitGrowsAdditivelyOnHealthyCalls) {
  ScriptedSite site{{10.0, 10.0, 10.0}};
  OverloadInterceptor governor("umd");
  governor.set_policy(LimiterOnly(4.0));
  CallContext ctx;
  for (int i = 0; i < 3; ++i) {
    ctx.now_ms = 100.0 * i;  // past each previous call's completion
    ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_DOUBLE_EQ(ctx.overload_states["umd"].limit, 7.0);  // 4 + 1 + 1 + 1
  EXPECT_EQ(ctx.overload_states["umd"].calls_seen, 3u);
}

TEST(OverloadTest, LimitShrinksMultiplicativelyOnFailure) {
  ScriptedSite site{{-1.0}};
  OverloadInterceptor governor("umd");
  governor.set_policy(LimiterOnly(8.0));
  CallContext ctx;
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(run.ok());
  EXPECT_DOUBLE_EQ(ctx.overload_states["umd"].limit, 4.0);  // 8 × 0.5
}

TEST(OverloadTest, LatencyPastBaselineFactorIsCongestion) {
  // Baseline 10ms, congestion factor 3: a 35ms call is a congestion signal
  // even though it succeeded.
  ScriptedSite site{{35.0}};
  OverloadInterceptor governor("umd");
  governor.set_policy(LimiterOnly(8.0));
  governor.set_baseline([](const DomainCall&) { return 10.0; });
  CallContext ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  EXPECT_DOUBLE_EQ(ctx.overload_states["umd"].limit, 4.0);
}

TEST(OverloadTest, CallPastTheWindowLimitIsShedTyped) {
  // Two concurrent calls at t=0 fill a limit-2 window (they complete at
  // t=50); the third is shed with kResourceExhausted and counted.
  ScriptedSite site{{50.0, 50.0, 50.0}};
  OverloadInterceptor governor("umd");
  OverloadPolicy pinned = LimiterOnly(2.0);
  pinned.limiter.additive_increase = 0.0;  // pin the limit at 2 for the test
  governor.set_policy(pinned);
  TracedContext traced;
  CallContext& ctx = traced.ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> shed = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted()) << shed.status();
  EXPECT_EQ(ctx.metrics.load_shed, 1u);
  EXPECT_EQ(site.attempts, 2u);  // the shed call never reached the site
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_EQ(ctx.source_errors[0].cause, "load-shed");

  // Once the window drains on the simulated clock, admission resumes.
  ctx.now_ms = 60.0;
  EXPECT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());

  // The shed is one load-shed span: its begin carries the limit and the
  // window size, its end the failure.
  const obs::FlightEvent& end =
      ExpectOneSpan(traced.tracer.events(),
                    obs::FlightEventKind::kLoadShedBegin, 0.0, 2.0, 2);
  EXPECT_EQ(end.kind, obs::FlightEventKind::kLoadShedEnd);
  EXPECT_TRUE(end.failed);
  EXPECT_EQ(end.detail_str(), "limit");
}

TEST(OverloadTest, OpenBreakerClampsTheLimitToTheFloor) {
  ScriptedSite site{{50.0, 50.0}};
  OverloadInterceptor governor("umd");
  governor.set_policy(LimiterOnly(8.0, /*min=*/1.0));
  CallContext ctx;
  ctx.breaker_states["umd"].state = CallContext::BreakerState::kOpen;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  // The AIMD limit is still ~8, but the open breaker caps admission at the
  // floor: the second concurrent call is shed.
  Result<CallOutput> shed = governor.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
}

TEST(OverloadTest, BreakerProbesBypassLimiterAdmissionAndAccounting) {
  // A full window must not starve the half-open probe that would close the
  // breaker — and the probe must not occupy a slot or move the limit.
  ScriptedSite site{{50.0, 10.0}};
  OverloadInterceptor governor("umd");
  governor.set_policy(LimiterOnly(1.0));
  CallContext ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ctx.breaker_probe = true;
  Result<CallOutput> probe = governor.Intercept(ctx, TheCall(), site.AsNext());
  ctx.breaker_probe = false;
  ASSERT_TRUE(probe.ok()) << probe.status();
  const CallContext::OverloadState& st = ctx.overload_states["umd"];
  EXPECT_EQ(st.in_flight_until_ms.size(), 1u);  // only the first call
  EXPECT_EQ(st.calls_seen, 1u);
  EXPECT_DOUBLE_EQ(st.limit, 2.0);  // one healthy +1; probe moved nothing
}

OverloadPolicy HedgeOnly(double quantile = 0.5, size_t min_samples = 2,
                         double budget_percent = 100.0) {
  OverloadPolicy policy;
  policy.hedge.enabled = true;
  policy.hedge.quantile = quantile;
  policy.hedge.min_samples = min_samples;
  policy.hedge.budget_percent = budget_percent;
  policy.hedge.baseline_trigger_factor = 0.0;  // ring-armed only
  return policy;
}

/// A replica that always answers in `ms` and records when it was asked.
struct Replica {
  double ms = 5.0;
  size_t attempts = 0;
  std::vector<double> asked_at_ms;

  OverloadInterceptor::HedgeFn AsRoute() {
    return [this](CallContext& ctx, const DomainCall&) -> Result<CallOutput> {
      ++attempts;
      asked_at_ms.push_back(ctx.now_ms);
      CallOutput out;
      out.answers = {Value::Int(2)};
      out.first_ms = ms / 2.0;
      out.all_ms = ms;
      return out;
    };
  }
};

TEST(OverloadTest, HedgeWinAdoptsTheFasterReplicaAnswer) {
  // Warm the ring with two 10ms calls (median trigger = 10ms), then a
  // 100ms straggler: the hedge opens at t=10 on the simulated clock and
  // its 5ms answer lands at 15ms — it wins.
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  OverloadInterceptor governor("umd");
  governor.set_policy(HedgeOnly());
  governor.set_hedge_route(replica.AsRoute());
  TracedContext traced;
  CallContext& ctx = traced.ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 15.0);  // trigger 10 + replica 5
  EXPECT_EQ(ctx.metrics.hedges, 1u);
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);
  ASSERT_EQ(replica.asked_at_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(replica.asked_at_ms[0], 10.0);  // opened at the trigger
  EXPECT_DOUBLE_EQ(ctx.now_ms, 0.0);  // the clock was restored

  // One hedge span: opened at the 10ms trigger as the first hedge issued,
  // closed by the win at 15ms with the 85ms it saved.
  const obs::FlightEvent& end =
      ExpectOneSpan(traced.tracer.events(), obs::FlightEventKind::kHedgeBegin,
                    10.0, 10.0, 1);
  EXPECT_EQ(end.kind, obs::FlightEventKind::kHedgeEnd);
  EXPECT_FALSE(end.failed);
  EXPECT_EQ(end.detail_str(), "win");
  EXPECT_DOUBLE_EQ(end.sim_ms, 15.0);
  EXPECT_DOUBLE_EQ(end.value, 85.0);
}

TEST(OverloadTest, SlowReplicaLosesAndThePrimaryAnswerStands) {
  ScriptedSite site{{10.0, 10.0, 100.0}};
  Replica replica;
  replica.ms = 500.0;  // slower than the primary even from the trigger
  OverloadInterceptor governor("umd");
  governor.set_policy(HedgeOnly());
  governor.set_hedge_route(replica.AsRoute());
  TracedContext traced;
  CallContext& ctx = traced.ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 100.0);  // the primary stood
  EXPECT_EQ(ctx.metrics.hedges, 1u);
  EXPECT_EQ(ctx.metrics.hedge_wins, 0u);

  // One hedge span, cancelled when the primary answered at 100ms.
  const obs::FlightEvent& end =
      ExpectOneSpan(traced.tracer.events(), obs::FlightEventKind::kHedgeBegin,
                    10.0, 10.0, 1);
  EXPECT_EQ(end.kind, obs::FlightEventKind::kHedgeEnd);
  EXPECT_FALSE(end.failed);
  EXPECT_EQ(end.detail_str(), "cancelled");
  EXPECT_DOUBLE_EQ(end.sim_ms, 100.0);
  EXPECT_DOUBLE_EQ(end.value, 100.0);
}

TEST(OverloadTest, HedgeBudgetCapsSpeculativeHedges) {
  // 10% budget: the first hedge is free, the second needs ≥ 10 admitted
  // calls to the site. Every call past the warmup is a 100ms straggler.
  ScriptedSite site{{10.0, 10.0, 100.0, 100.0, 100.0}};
  Replica replica;
  OverloadInterceptor governor("umd");
  governor.set_policy(HedgeOnly(0.5, 2, /*budget_percent=*/10.0));
  governor.set_hedge_route(replica.AsRoute());
  CallContext ctx;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  }
  EXPECT_EQ(ctx.metrics.hedges, 1u);  // the free one; budget blocked the rest
}

TEST(OverloadTest, ColdRingFallsBackToBaselineTrigger) {
  // No warmup at all: the ring is cold, but a DCSM baseline of 10ms with
  // factor 2 arms the hedge at t=20 for the very first call.
  ScriptedSite site{{100.0}};
  Replica replica;
  OverloadInterceptor governor("umd");
  OverloadPolicy policy = HedgeOnly(0.5, /*min_samples=*/4);
  policy.hedge.baseline_trigger_factor = 2.0;
  governor.set_policy(policy);
  governor.set_hedge_route(replica.AsRoute());
  governor.set_baseline([](const DomainCall&) { return 10.0; });
  CallContext ctx;
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 25.0);  // trigger 20 + replica 5
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);
}

TEST(OverloadTest, FailedPrimaryIsRescuedByTheHedgeAndMasked) {
  // Warmup, then the primary fails outright: the hedge that was already in
  // flight at the trigger adopts the call, and the primary's source error
  // is masked the way failover rescues are.
  ScriptedSite site{{10.0, 10.0, -1.0}};
  Replica replica;
  OverloadInterceptor governor("umd");
  governor.set_policy(HedgeOnly());
  governor.set_hedge_route(replica.AsRoute());
  TracedContext traced;
  CallContext& ctx = traced.ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> run = governor.Intercept(ctx, TheCall(), site.AsNext());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_DOUBLE_EQ(run->all_ms, 15.0);  // trigger 10 + replica 5
  EXPECT_EQ(ctx.metrics.hedge_wins, 1u);
  ASSERT_EQ(ctx.source_errors.size(), 1u);
  EXPECT_TRUE(ctx.source_errors[0].masked);

  // The rescue is one hedge span that wins with the replica's answer.
  const obs::FlightEvent& end =
      ExpectOneSpan(traced.tracer.events(), obs::FlightEventKind::kHedgeBegin,
                    10.0, 10.0, 1);
  EXPECT_EQ(end.kind, obs::FlightEventKind::kHedgeEnd);
  EXPECT_FALSE(end.failed);
  EXPECT_EQ(end.detail_str(), "win");
  EXPECT_DOUBLE_EQ(end.sim_ms, 15.0);
  EXPECT_DOUBLE_EQ(end.value, 15.0);
}

TEST(OverloadTest, LoadShedCallsAreNeverHedged) {
  // A shed call must not trigger its own hedge — that would defeat the
  // limiter. Limit 1, two concurrent calls: the second is shed, and the
  // replica is never consulted for it.
  ScriptedSite site{{50.0, 50.0}};
  Replica replica;
  OverloadInterceptor governor("umd");
  OverloadPolicy policy = LimiterOnly(1.0);
  policy.limiter.additive_increase = 0.0;  // pin the limit at 1
  policy.hedge.enabled = true;
  policy.hedge.min_samples = 1;
  // Ring-armed only, so the admitted 50ms call (faster than any trigger
  // the empty ring can produce) does not hedge — isolating the shed call.
  policy.hedge.baseline_trigger_factor = 0.0;
  governor.set_policy(policy);
  governor.set_hedge_route(replica.AsRoute());
  CallContext ctx;
  ASSERT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
  Result<CallOutput> shed = governor.Intercept(ctx, TheCall(), site.AsNext());
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_EQ(replica.attempts, 0u);
  EXPECT_EQ(ctx.metrics.hedges, 0u);
}

TEST(OverloadTest, HedgingDisabledFlagAndBrownoutLevelSuppressHedges) {
  auto run_once = [](bool disable_flag, int brownout_level) {
    ScriptedSite site{{10.0, 10.0, 100.0}};
    Replica replica;
    OverloadInterceptor governor("umd");
    governor.set_policy(HedgeOnly());
    governor.set_hedge_route(replica.AsRoute());
    auto brownout = std::make_shared<BrownoutController>();
    if (brownout_level > 0) {
      // Drive the ladder up by brute force: windows of pure sheds.
      BrownoutController::Options opt;
      opt.window_events = 1;
      opt.min_dwell_windows = 0;
      brownout = std::make_shared<BrownoutController>(opt);
      while (brownout->level() < brownout_level) {
        brownout->RecordOutcome(true);
      }
    }
    governor.set_brownout(brownout);
    CallContext ctx;
    ctx.hedging_disabled = disable_flag;
    EXPECT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
    EXPECT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
    EXPECT_TRUE(governor.Intercept(ctx, TheCall(), site.AsNext()).ok());
    return ctx.metrics.hedges;
  };
  EXPECT_EQ(run_once(false, 0), 1u);  // control: the straggler hedges
  EXPECT_EQ(run_once(true, 0), 0u);   // per-query kill switch
  EXPECT_EQ(run_once(false, BrownoutController::kNoHedge), 0u);  // ladder
}

TEST(OverloadTest, BrownoutLadderEscalatesAndRecoversWithDwell) {
  BrownoutController::Options opt;
  opt.window_events = 4;
  opt.up_threshold = 0.5;
  opt.down_threshold = 0.1;
  opt.ewma_alpha = 1.0;  // no smoothing: each window is the pressure
  opt.min_dwell_windows = 2;
  BrownoutController ladder(opt);
  EXPECT_EQ(ladder.level(), BrownoutController::kNormal);

  auto window = [&](bool shed) {
    for (int i = 0; i < 4; ++i) ladder.RecordOutcome(shed);
  };
  // Two all-shed windows satisfy the dwell and escalate one level.
  window(true);
  EXPECT_EQ(ladder.level(), BrownoutController::kNormal);  // dwell holds it
  window(true);
  EXPECT_EQ(ladder.level(), BrownoutController::kNoHedge);
  // Escalate to the top of the ladder.
  window(true);
  window(true);
  EXPECT_EQ(ladder.level(), BrownoutController::kDegrade);
  window(true);
  window(true);
  EXPECT_EQ(ladder.level(), BrownoutController::kShedLow);
  window(true);
  window(true);
  EXPECT_EQ(ladder.level(), BrownoutController::kShedLow);  // clamped
  // Pressure gone: de-escalation walks back down one dwell at a time.
  window(false);
  window(false);
  EXPECT_EQ(ladder.level(), BrownoutController::kDegrade);
  window(false);
  window(false);
  EXPECT_EQ(ladder.level(), BrownoutController::kNoHedge);
  window(false);
  window(false);
  EXPECT_EQ(ladder.level(), BrownoutController::kNormal);
  EXPECT_EQ(ladder.transitions(), 6u);
}

TEST(OverloadTest, BrownoutTransitionHookSeesEveryLevelChange) {
  BrownoutController::Options opt;
  opt.window_events = 1;
  opt.up_threshold = 0.5;
  opt.ewma_alpha = 1.0;
  opt.min_dwell_windows = 0;
  BrownoutController ladder(opt);
  std::vector<std::pair<int, int>> seen;
  ladder.set_transition_hook(
      [&](int from, int to, double) { seen.push_back({from, to}); });
  for (int i = 0; i < 5; ++i) ladder.RecordOutcome(true);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(seen[1], (std::pair<int, int>{1, 2}));
  EXPECT_EQ(seen[2], (std::pair<int, int>{2, 3}));
}

TEST(OverloadTest, LevelNamesAreStable) {
  EXPECT_STREQ(BrownoutController::LevelName(BrownoutController::kNormal),
               "normal");
  EXPECT_STREQ(BrownoutController::LevelName(BrownoutController::kNoHedge),
               "no_hedge");
  EXPECT_STREQ(BrownoutController::LevelName(BrownoutController::kDegrade),
               "degrade");
  EXPECT_STREQ(BrownoutController::LevelName(BrownoutController::kShedLow),
               "shed_low");
  EXPECT_STREQ(BrownoutController::LevelName(99), "unknown");
}

TEST(OverloadTest, ShedDecisionsAreDeterministicAcrossReplays) {
  // The full decision path (limiter windows, ring, budget) lives on the
  // CallContext, so replaying the same call sequence is bit-identical.
  auto run_once = [] {
    ScriptedSite site{{10.0, 12.0, -1.0, 100.0, 11.0, 100.0}};
    Replica replica;
    OverloadInterceptor governor("umd");
    OverloadPolicy policy = LimiterOnly(3.0);
    policy.hedge.enabled = true;
    policy.hedge.quantile = 0.5;
    policy.hedge.min_samples = 2;
    policy.hedge.budget_percent = 50.0;
    governor.set_policy(policy);
    governor.set_hedge_route(replica.AsRoute());
    CallContext ctx;
    std::string trace;
    for (int i = 0; i < 6; ++i) {
      ctx.now_ms = 5.0 * i;
      Result<CallOutput> run =
          governor.Intercept(ctx, TheCall(), site.AsNext());
      trace += run.ok() ? std::to_string(run->all_ms) : run.status().ToString();
      trace += ";";
    }
    trace += std::to_string(ctx.metrics.hedges) + "/" +
             std::to_string(ctx.metrics.hedge_wins) + "/" +
             std::to_string(ctx.metrics.load_shed);
    return trace;
  };
  std::string first = run_once();
  EXPECT_EQ(first, run_once());
  EXPECT_EQ(first, run_once());
}

}  // namespace
}  // namespace hermes::overload
