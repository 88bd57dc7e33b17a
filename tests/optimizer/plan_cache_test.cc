// The plan cache, a memo of the plan chosen for each query text: hits on
// repeated texts, misses on new constants, the hit rate under rotating
// constants, LRU eviction, answers of cached plans against a cache-less
// mediator, and the three invalidation paths (breaker-open site, DCSM drift
// exceedance, wiring mutation).

#include "optimizer/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/mediator.h"
#include "net/faults/fault_plan.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::unique_ptr<Mediator> RopeMediator(bool caching = true) {
  auto med = std::make_unique<Mediator>();
  testbed::RopeScenarioOptions scenario;
  scenario.enable_caching = caching;
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), scenario).ok());
  return med;
}

// A rule-free query: every constant lives in the query text itself.
const char kFlattened[] =
    "?- in(Object, video:frames_to_objects('rope', %d, %d)) & "
    "in(T, relation:equal('cast', role, Object)) & =(Actor, T.name).";

std::string Flattened(int first, int last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), kFlattened, first, last);
  return buf;
}

// ---- Hit/miss behavior through the mediator -------------------------------

TEST(PlanCacheTest, RepeatQueryHitsAndSkipsTheOptimizer) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnablePlanCache().ok());

  Result<QueryResult> cold =
      med->Query(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_FALSE(cold->candidates.empty());  // the optimizer ran

  Result<QueryResult> warm =
      med->Query(testbed::AppendixQuery(3, false, 4, 47), {});
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_TRUE(warm->candidates.empty());  // skeleton reused, no optimizer
  EXPECT_EQ(warm->plan_description, cold->plan_description);
  EXPECT_EQ(warm->execution.answers, cold->execution.answers);

  optimizer::PlanCacheStats stats = med->plan_cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PlanCacheTest, RuleConstantsForceExactOnlyEntries) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnablePlanCache().ok());

  // Entries are keyed on the exact text: query3 over other frame bounds is
  // a miss (a hit would serve a plan whose rules pin the old bounds).
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(3, false, 4, 47), {}).ok());
  Result<QueryResult> other =
      med->Query(testbed::AppendixQuery(3, false, 10, 60), {});
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->plan_cache_hit);
  optimizer::PlanCacheStats stats = med->plan_cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(PlanCacheTest, NewConstantsMissAndTheirRepeatMatchesAColdMediator) {
  QueryOptions options;
  options.record_statistics = false;  // keep both mediators' DCSMs static

  std::unique_ptr<Mediator> cached = RopeMediator();
  ASSERT_TRUE(cached->EnablePlanCache().ok());
  ASSERT_TRUE(cached->Query(Flattened(4, 47), options).ok());
  Result<QueryResult> first = cached->Query(Flattened(10, 60), options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(cached->plan_cache()->stats().entries, 2u);
  Result<QueryResult> repeat = cached->Query(Flattened(10, 60), options);
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_TRUE(repeat->plan_cache_hit);

  std::unique_ptr<Mediator> cold = RopeMediator();
  Result<QueryResult> reference = cold->Query(Flattened(10, 60), options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->execution.answers.empty());
  EXPECT_EQ(repeat->execution.answers, reference->execution.answers);
  EXPECT_EQ(repeat->execution.var_names, reference->execution.var_names);

  // The first text's entry survived the second text's insert.
  Result<QueryResult> again = cached->Query(Flattened(4, 47), options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
  EXPECT_EQ(cached->plan_cache()->stats().hits, 2u);
}

TEST(PlanCacheTest, RotatingConstantsHitAfterEachWindowsFirstQuery) {
  constexpr int kWindows = 8;
  constexpr int kRounds = 4;
  QueryOptions options;
  options.record_statistics = false;  // keep both mediators' DCSMs static
  auto window = [](int w) {
    return testbed::AppendixQuery(3, false, 4 + 2 * w, 47 + 5 * w);
  };

  std::unique_ptr<Mediator> cached = RopeMediator();
  ASSERT_TRUE(cached->EnablePlanCache().ok());
  std::unique_ptr<Mediator> cold = RopeMediator();
  for (int round = 0; round < kRounds; ++round) {
    for (int w = 0; w < kWindows; ++w) {
      Result<QueryResult> res = cached->Query(window(w), options);
      ASSERT_TRUE(res.ok()) << res.status();
      EXPECT_EQ(res->plan_cache_hit, round > 0) << "round " << round;
      Result<QueryResult> reference = cold->Query(window(w), options);
      ASSERT_TRUE(reference.ok()) << reference.status();
      EXPECT_EQ(res->execution.answers, reference->execution.answers)
          << "round " << round << " window " << w;
    }
  }
  optimizer::PlanCacheStats stats = cached->plan_cache()->stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kWindows));
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kWindows * (kRounds - 1)));
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kWindows));
}

TEST(PlanCacheTest, EvictsTheLeastRecentlyLookedUpEntry) {
  constexpr size_t kCapacity = optimizer::PlanCache::kCapacity;
  optimizer::PlanCache cache;
  auto plan = std::make_shared<const optimizer::CandidatePlan>();
  auto text = [](size_t i) { return "?- p(" + std::to_string(i) + ")."; };
  for (size_t i = 0; i < kCapacity; ++i) cache.Insert(text(i), plan, {});
  // Looking text 0 up leaves text 1 the least recently used.
  ASSERT_NE(cache.Lookup(text(0)), nullptr);
  cache.Insert(text(kCapacity), plan, {});

  optimizer::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, kCapacity);
  EXPECT_EQ(cache.Lookup(text(1)), nullptr);
  EXPECT_NE(cache.Lookup(text(0)), nullptr);
  EXPECT_NE(cache.Lookup(text(kCapacity)), nullptr);
}

TEST(PlanCacheTest, HitAndMissLandInTheFlightStream) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnableDiagnostics({}).ok());
  ASSERT_TRUE(med->EnablePlanCache().ok());

  Result<QueryResult> cold =
      med->Query(testbed::AppendixQuery(1, false, 1, 9000), {});
  ASSERT_TRUE(cold.ok());
  Result<QueryResult> warm =
      med->Query(testbed::AppendixQuery(1, false, 1, 9000), {});
  ASSERT_TRUE(warm.ok());

  auto has_kind = [&med](uint64_t query_id, obs::FlightEventKind kind) {
    for (const obs::FlightEvent& ev :
         med->flight_recorder()->SnapshotQuery(query_id)) {
      if (ev.kind == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_kind(cold->query_id, obs::FlightEventKind::kPlanCacheMiss));
  EXPECT_FALSE(has_kind(cold->query_id, obs::FlightEventKind::kPlanCacheHit));
  EXPECT_TRUE(has_kind(warm->query_id, obs::FlightEventKind::kPlanCacheHit));

  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_plan_cache_hits_total 1"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("hermes_plan_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(prom.find("hermes_plan_cache_entries 1"), std::string::npos);
}

// ---- Invalidation ----------------------------------------------------------

TEST(PlanCacheTest, BreakerOpenInvalidatesPlansDependingOnTheSite) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnablePlanCache().ok());
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  options.record_statistics = false;

  ASSERT_TRUE(med->Query(Flattened(4, 47), options).ok());
  Result<QueryResult> warm = med->Query(Flattened(4, 47), options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);

  // Kill the relation site with a hair-trigger breaker: the next query
  // trips it, and the mediator invalidates every cornell-dependent entry.
  med->remote_link("relation")->mutable_site().availability = 0.0;
  resilience::ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 2;
  policy.breaker.probe_interval = 1e9;
  ASSERT_TRUE(med->SetResiliencePolicy("relation", policy).ok());

  options.partial_results = true;
  Result<QueryResult> tripped = med->Query(Flattened(4, 47), options);
  ASSERT_TRUE(tripped.ok()) << tripped.status();
  optimizer::PlanCacheStats stats = med->plan_cache()->stats();
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);

  Result<QueryResult> after = med->Query(Flattened(4, 47), options);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);
}

TEST(PlanCacheTest, PlansDependOnlyOnDomainsTheirQueryReaches) {
  Mediator med;
  ASSERT_TRUE(med.RegisterRemoteDomain(
                     "a",
                     std::make_shared<relational::RelationalDomain>(
                         "a", testbed::MakeCastDatabase()),
                     net::UsaSite("site_a"))
                  .ok());
  ASSERT_TRUE(med.RegisterRemoteDomain(
                     "b",
                     std::make_shared<relational::RelationalDomain>(
                         "b", testbed::MakeCastDatabase()),
                     net::UsaSite("site_b"))
                  .ok());
  ASSERT_TRUE(med.LoadProgram("m(X) :- in(X, a:all('cast')).\n"
                              "u(X) :- in(X, b:all('cast')).")
                  .ok());
  ASSERT_TRUE(med.EnablePlanCache().ok());
  QueryOptions options;
  options.use_optimizer = false;
  options.record_statistics = false;

  ASSERT_TRUE(med.Query("?- m(X).", options).ok());
  // Only u, which ?- m(X) never reaches, calls site_b.
  med.plan_cache()->InvalidateSite("site_b");
  Result<QueryResult> warm = med.Query("?- m(X).", options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->plan_cache_hit);
  EXPECT_EQ(med.plan_cache()->stats().invalidations, 0u);
}

TEST(PlanCacheTest, DriftExceedanceInvalidatesThroughTheTrackerHook) {
  std::unique_ptr<Mediator> med = RopeMediator(/*caching=*/false);
  DiagnosticsOptions diag;
  diag.drift.threshold = 0.5;
  diag.drift.min_samples = 1;
  ASSERT_TRUE(med->EnableDiagnostics(diag).ok());
  ASSERT_TRUE(med->EnablePlanCache().ok());

  // Warm-up populates the DCSM (and the cache) with calm-network numbers.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  }
  EXPECT_GT(med->plan_cache()->stats().hits, 0u);

  // ×8 latency: observations shoot past the recorded estimates, the drift
  // tracker crosses its threshold, and its hook drops dependent entries.
  Result<net::FaultPlan> plan = net::FaultPlan::Parse(
      "seed 7\nlatency site=* factor=8 from=0 until=100000000\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(med->SetFaultPlan(std::move(plan).value()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  }
  EXPECT_FALSE(med->DriftReport().Exceeded().empty());
  EXPECT_GE(med->plan_cache()->stats().invalidations, 1u);
  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_plan_cache_invalidations_total"),
            std::string::npos);
}

TEST(PlanCacheTest, WiringMutationsClearTheCache) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnablePlanCache().ok());
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  EXPECT_EQ(med->plan_cache()->stats().entries, 1u);

  // Any wiring change may alter what plans mean; cached skeletons from the
  // old wiring must not survive it.
  ASSERT_TRUE(med->AddInvariants("F2 <= F1 & L1 <= L2 => "
                                 "video:frames_to_objects(V, F2, L2) >= "
                                 "video:frames_to_objects(V, F1, L1).")
                  .ok());
  EXPECT_EQ(med->plan_cache()->stats().entries, 0u);
  Result<QueryResult> after =
      med->Query(testbed::AppendixQuery(1, false, 1, 9000), {});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);
}

}  // namespace
}  // namespace hermes
