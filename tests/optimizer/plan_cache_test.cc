// The adornment-keyed plan cache: constant masking in the key, exact vs
// rebinding hits, correctness of rebound plans against a cache-less
// mediator, and the three invalidation paths (breaker-open site, DCSM
// drift exceedance, wiring mutation).

#include "optimizer/plan_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "engine/mediator.h"
#include "lang/parser.h"
#include "net/faults/fault_plan.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

lang::Query MustParse(const std::string& text) {
  Result<lang::Query> query = lang::Parser::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  return *query;
}

std::unique_ptr<Mediator> RopeMediator(bool caching = true) {
  auto med = std::make_unique<Mediator>();
  testbed::RopeScenarioOptions scenario;
  scenario.enable_caching = caching;
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), scenario).ok());
  return med;
}

// A rule-free query: rebinding requires every constant to live in the query
// text itself (rule bodies pin 'rope'/'cast' and force exact-only entries).
const char kFlattened[] =
    "?- in(Object, video:frames_to_objects('rope', %d, %d)) & "
    "in(T, relation:equal('cast', role, Object)) & =(Actor, T.name).";

std::string Flattened(int first, int last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), kFlattened, first, last);
  return buf;
}

// ---- MakeKey: masking and adornment ---------------------------------------

TEST(PlanCacheKeyTest, ConstantsAreMaskedButTypesAndPositionsKept) {
  std::vector<Value> c1, c2;
  optimizer::PlanCacheKey k1 =
      optimizer::PlanCache::MakeKey(MustParse("?- in(X, d:f(1, 'a'))."),
                                    "opt", &c1);
  optimizer::PlanCacheKey k2 =
      optimizer::PlanCache::MakeKey(MustParse("?- in(X, d:f(2, 'b'))."),
                                    "opt", &c2);
  // Same shape, same adornment: the keys collide; the constants differ.
  EXPECT_EQ(k1.text, k2.text);
  ASSERT_EQ(c1.size(), 2u);
  ASSERT_EQ(c2.size(), 2u);
  EXPECT_EQ(c1[0], Value::Int(1));
  EXPECT_EQ(c2[1], Value::Str("b"));

  // A type change at a constant position is a different adornment.
  std::vector<Value> c3;
  optimizer::PlanCacheKey k3 =
      optimizer::PlanCache::MakeKey(MustParse("?- in(X, d:f('one', 'a'))."),
                                    "opt", &c3);
  EXPECT_NE(k1.text, k3.text);

  // Constant-vs-variable argument positions differ too.
  std::vector<Value> c4;
  optimizer::PlanCacheKey k4 =
      optimizer::PlanCache::MakeKey(MustParse("?- in(X, d:f(Y, 'a'))."),
                                    "opt", &c4);
  EXPECT_NE(k1.text, k4.text);
  EXPECT_EQ(c4.size(), 1u);

  // The compile-options tag keys optimizer-on and as-written plans apart.
  std::vector<Value> c5;
  optimizer::PlanCacheKey k5 =
      optimizer::PlanCache::MakeKey(MustParse("?- in(X, d:f(1, 'a'))."),
                                    "raw", &c5);
  EXPECT_NE(k1.text, k5.text);
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

  // query3's rule body pins 'rope' and 'cast': a cached instance cannot be
  // rebound to new frame bounds, so a different-constant repeat must be a
  // miss (a wrong-answer hit would be silent corruption).
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(3, false, 4, 47), {}).ok());
  Result<QueryResult> other =
      med->Query(testbed::AppendixQuery(3, false, 10, 60), {});
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->plan_cache_hit);
  optimizer::PlanCacheStats stats = med->plan_cache()->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(PlanCacheTest, RebindingHitMatchesAColdMediatorsAnswers) {
  QueryOptions options;
  options.record_statistics = false;  // keep both mediators' DCSMs static

  std::unique_ptr<Mediator> cached = RopeMediator();
  ASSERT_TRUE(cached->EnablePlanCache().ok());
  ASSERT_TRUE(cached->Query(Flattened(4, 47), options).ok());
  Result<QueryResult> rebound = cached->Query(Flattened(10, 60), options);
  ASSERT_TRUE(rebound.ok()) << rebound.status();
  EXPECT_TRUE(rebound->plan_cache_hit);

  std::unique_ptr<Mediator> cold = RopeMediator();
  Result<QueryResult> reference = cold->Query(Flattened(10, 60), options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_FALSE(reference->execution.answers.empty());
  EXPECT_EQ(rebound->execution.answers, reference->execution.answers);
  EXPECT_EQ(rebound->execution.var_names, reference->execution.var_names);

  // And a third shape repeats the rebind off the pooled instance.
  Result<QueryResult> again = cached->Query(Flattened(4, 47), options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
  EXPECT_EQ(cached->plan_cache()->stats().hits, 2u);
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
