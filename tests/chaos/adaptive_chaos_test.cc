// Chaos suite with adaptive execution armed: the plan cache and mid-query
// replanning both enabled while the canned fault plan batters the sources
// through a concurrent QueryPool. On trial:
//
//   1. Liveness — every query still terminates cleanly with both features
//      in the hot path.
//   2. Determinism — per-query outcomes INCLUDING the replan decisions are
//      bit-identical at 1, 4 and 8 worker threads. Replan triggers read
//      only per-query state (the query's own breaker map, estimates
//      snapshotted at plan time), so scheduling cannot change them. What
//      *is* scheduling-dependent — whether a given query hit or missed the
//      shared plan cache — must never leak into an outcome.
//
// CI also runs this binary under ThreadSanitizer as part of the chaos
// stress job.

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "net/faults/fault_plan.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string CannedPlanPath() {
  return std::string(HERMES_TEST_SRCDIR) + "/chaos/chaos.faults";
}

/// One query's outcome, flattened for exact comparison across runs. Same
/// core fields as chaos_test.cc plus the adaptive-execution decisions;
/// plan-cache hit/miss is deliberately absent (what a shared cache holds
/// when a query arrives legitimately depends on completion order).
struct Outcome {
  bool ok = false;
  std::string error;
  size_t answers = 0;
  double t_all_ms = 0.0;
  uint64_t retries = 0;
  uint64_t breaker_shed = 0;
  uint64_t deadline_aborts = 0;
  uint64_t degraded_calls = 0;
  uint64_t remote_failures = 0;
  int completeness = 0;
  size_t lost_sources = 0;
  size_t replans = 0;
  std::string replan_triggers;  ///< Concatenated per-event trigger strings.

  bool operator==(const Outcome& other) const {
    return ok == other.ok && error == other.error &&
           answers == other.answers && t_all_ms == other.t_all_ms &&
           retries == other.retries && breaker_shed == other.breaker_shed &&
           deadline_aborts == other.deadline_aborts &&
           degraded_calls == other.degraded_calls &&
           remote_failures == other.remote_failures &&
           completeness == other.completeness &&
           lost_sources == other.lost_sources && replans == other.replans &&
           replan_triggers == other.replan_triggers;
  }
};

std::string Describe(const Outcome& o) {
  return "ok=" + std::to_string(o.ok) + " answers=" +
         std::to_string(o.answers) + " t_all=" + std::to_string(o.t_all_ms) +
         " retries=" + std::to_string(o.retries) + " shed=" +
         std::to_string(o.breaker_shed) + " completeness=" +
         std::to_string(o.completeness) + " lost=" +
         std::to_string(o.lost_sources) + " replans=" +
         std::to_string(o.replans) + " triggers=[" + o.replan_triggers +
         "] err=" + o.error;
}

/// Flattened (rule-free) queries so the top-level spine is replannable: the
/// umd video call feeds per-object cornell lookups, and cornell's 30%
/// flakiness opens per-query breakers mid-join in a workload-dependent but
/// schedule-independent set of queries. Each text comes twice back to back,
/// so the second of a pair can hit the plan cache.
std::vector<std::string> Workload(size_t n) {
  std::vector<std::string> queries;
  for (size_t j = 0; j < n; ++j) {
    const size_t i = j / 2;
    int64_t first = 4 + static_cast<int64_t>(3 * (i % 5));
    int64_t last = first + 20 + static_cast<int64_t>(17 * (i % 7));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "?- in(Object, video:frames_to_objects('rope', %lld, %lld)) "
                  "& in(T, relation:equal('cast', role, Object)) & "
                  "=(Actor, T.name).",
                  static_cast<long long>(first), static_cast<long long>(last));
    queries.push_back(buf);
  }
  return queries;
}

std::unique_ptr<Mediator> AdaptiveChaosMediator() {
  auto med = std::make_unique<Mediator>();
  resilience::ResiliencePolicy policy;
  policy.retry.max_retries = 2;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 3;
  policy.call_deadline_ms = 25000.0;  // abandons the 30s slow injections
  med->set_default_resilience_policy(policy);
  testbed::RopeScenarioOptions scenario;
  scenario.enable_caching = true;  // the CIMs are the replan redirect target
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), scenario).ok());

  // Warm the CIM wrappers over the full movie BEFORE the faults land, so a
  // replan redirect always finds its answers cached: every per-object
  // relation lookup a workload window can produce is a subset of this one.
  // (Redirects that missed would fall through to the flaky site and write
  // back on success — making later queries' timing depend on completion
  // order, which the bit-identity tests below would catch.)
  QueryOptions warm;
  warm.use_optimizer = false;
  warm.use_cim = true;
  warm.record_statistics = false;
  EXPECT_TRUE(
      med->Query("?- in(Object, video:frames_to_objects('rope', 1, 129999)) "
                 "& in(T, relation:equal('cast', role, Object)) & "
                 "=(Actor, T.name).",
                 warm)
          .ok());

  // With retries on, cornell's 30% flakiness almost never costs a whole
  // call, so breakers stay closed and there is nothing to replan around.
  // The relation stack instead fails fast with a hair-trigger breaker: two
  // failed per-object lookups open it mid-join, and the replan path is the
  // only thing standing between the query and bleeding its suffix.
  resilience::ResiliencePolicy relation_policy;
  relation_policy.retry.max_retries = 0;
  relation_policy.breaker.enabled = true;
  relation_policy.breaker.failure_threshold = 2;
  relation_policy.breaker.probe_interval = 1e9;  // no probe within a query
  relation_policy.call_deadline_ms = 25000.0;
  EXPECT_TRUE(med->SetResiliencePolicy("relation", relation_policy).ok());

  EXPECT_TRUE(med->LoadFaultPlan(CannedPlanPath()).ok());
  med->set_per_query_network_rng(true);
  EXPECT_TRUE(med->EnablePlanCache().ok());
  engine::op::ReplanOptions replan;
  replan.enabled = true;
  med->set_replan_options(replan);
  return med;
}

std::vector<Outcome> RunPool(size_t threads,
                             const std::vector<std::string>& queries) {
  std::unique_ptr<Mediator> med = AdaptiveChaosMediator();
  QueryPoolOptions pool_options;
  pool_options.num_threads = threads;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;  // the CIM enters only through a replan redirect
  options.partial_results = true;
  options.record_statistics = false;
  options.explain = true;
  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryOptions pinned = options;
    pinned.query_id = 1000 + i;
    futures.push_back(pool->Submit(queries[i], pinned));
  }
  std::vector<Outcome> outcomes;
  for (auto& future : futures) {
    Result<QueryResult> res = future.get();
    Outcome o;
    o.ok = res.ok();
    if (!res.ok()) {
      o.error = res.status().ToString();
    } else {
      o.answers = res->execution.answers.size();
      o.t_all_ms = res->execution.t_all_ms;
      o.retries = res->metrics.retries;
      o.breaker_shed = res->metrics.breaker_shed;
      o.deadline_aborts = res->metrics.deadline_aborts;
      o.degraded_calls = res->metrics.degraded_calls;
      o.remote_failures = res->metrics.remote_failures;
      o.completeness = static_cast<int>(res->completeness);
      o.lost_sources = res->lost_sources.size();
      o.replans = res->replan_events.size();
      for (const engine::op::ReplanEvent& ev : res->replan_events) {
        o.replan_triggers += ev.trigger + ";";
        // A replanned query's EXPLAIN must carry the spliced marker.
        EXPECT_NE(res->explain_text.find("replanned@"), std::string::npos);
      }
    }
    outcomes.push_back(std::move(o));
  }
  pool->Shutdown();

  // The cache actually carried load. Only the serial run is asserted to
  // hit: with more workers both texts of a pair can be in flight at once,
  // and a breaker trip can invalidate an entry before its repeat arrives.
  optimizer::PlanCacheStats stats = med->plan_cache()->stats();
  EXPECT_EQ(stats.hits + stats.misses, queries.size());
  if (threads == 1) {
    EXPECT_GT(stats.hits, 0u);
  }
  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_plan_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("hermes_replan_triggers_total"), std::string::npos);
  return outcomes;
}

TEST(AdaptiveChaosTest, EveryQueryTerminatesWithAdaptiveExecutionArmed) {
  std::vector<std::string> queries = Workload(24);
  std::vector<Outcome> outcomes = RunPool(8, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  size_t replanned = 0, with_faults = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    EXPECT_TRUE(o.ok) << "query " << i << ": " << o.error;
    replanned += o.replans > 0;
    with_faults += (o.retries + o.deadline_aborts + o.breaker_shed +
                    o.remote_failures) > 0;
  }
  EXPECT_GT(with_faults, 0u);
  // The canned plan's cornell flakiness opens per-query breakers mid-join
  // in some queries; those must have rerouted rather than bled answers.
  EXPECT_GT(replanned, 0u);
}

TEST(AdaptiveChaosTest, OutcomesAndReplansAreBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> queries = Workload(16);
  std::vector<Outcome> serial = RunPool(1, queries);
  std::vector<Outcome> four = RunPool(4, queries);
  std::vector<Outcome> eight = RunPool(8, queries);
  ASSERT_EQ(serial.size(), four.size());
  ASSERT_EQ(serial.size(), eight.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == four[i])
        << "query " << i << " diverged:\n  1 thread:  "
        << Describe(serial[i]) << "\n  4 threads: " << Describe(four[i]);
    EXPECT_TRUE(serial[i] == eight[i])
        << "query " << i << " diverged:\n  1 thread:  "
        << Describe(serial[i]) << "\n  8 threads: " << Describe(eight[i]);
  }
}

}  // namespace
}  // namespace hermes
