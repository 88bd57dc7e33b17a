// Per-query network-traffic attribution: QueryResult::metrics counts the
// query's own traffic as its calls run (the network layer attributes per
// query), never by diffing a shared counter — so unrelated traffic on the
// same links can never leak into a query's bill, and every byte of every
// query adds up to the links' own counters.

#include <gtest/gtest.h>

#include "engine/mediator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

testbed::RopeScenarioOptions NoCacheOptions() {
  testbed::RopeScenarioOptions options;
  options.enable_caching = false;
  options.add_frame_invariants = false;
  return options;
}

QueryOptions AsWritten() {
  QueryOptions q;
  q.use_optimizer = false;
  return q;
}

const char* kObjectsRule =
    "objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).";

/// The mediator's network totals: its remote links' own counters, summed
/// (a cim_ wrapper shares its domain's link, so it is not summed again).
CallMetrics LinkTotals(Mediator& med) {
  CallMetrics totals;
  for (const std::string& domain : med.RemoteDomains()) {
    const net::NetworkInterceptor* link = med.remote_link(domain);
    totals.remote_calls += link->calls().Value();
    totals.remote_failures += link->failures().Value();
    totals.bytes_transferred += link->bytes().Value();
    totals.network_charge += link->charge().Value();
    totals.network_ms += link->hop_sim_ms().Snapshot().sum;
  }
  return totals;
}

TEST(QueryTrafficTest, UnrelatedGlobalTrafficDoesNotLeakIntoAQuery) {
  Mediator polluted, twin;
  ASSERT_TRUE(testbed::SetupRopeScenario(&polluted, NoCacheOptions()).ok());
  ASSERT_TRUE(testbed::SetupRopeScenario(&twin, NoCacheOptions()).ok());
  ASSERT_TRUE(polluted.LoadProgram(kObjectsRule).ok());
  ASSERT_TRUE(twin.LoadProgram(kObjectsRule).ok());

  // Unrelated activity on the same link: a context-free call made through
  // the registry, outside any query.
  ASSERT_TRUE(polluted.registry()
                  .Run(DomainCall{"video",
                                  "frames_to_objects",
                                  {Value::Str("rope"), Value::Int(1),
                                   Value::Int(9000)}})
                  .ok());
  const CallMetrics unrelated = LinkTotals(polluted);
  EXPECT_EQ(unrelated.remote_calls, 1u);
  EXPECT_GT(unrelated.bytes_transferred, 0u);

  Result<QueryResult> a = polluted.Query("?- objects(4, 47, O).", AsWritten());
  Result<QueryResult> b = twin.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_GT(b->metrics.bytes_transferred, 0u);

  // The polluted mediator's query is billed exactly what its twin is.
  EXPECT_EQ(a->metrics.remote_calls, b->metrics.remote_calls);
  EXPECT_EQ(a->metrics.remote_failures, b->metrics.remote_failures);
  EXPECT_EQ(a->metrics.bytes_transferred, b->metrics.bytes_transferred);
  EXPECT_DOUBLE_EQ(a->metrics.network_charge, b->metrics.network_charge);
  // The unrelated call is still on its link, just not attributed.
  const CallMetrics total = LinkTotals(polluted);
  EXPECT_EQ(total.remote_calls,
            unrelated.remote_calls + a->metrics.remote_calls);
  EXPECT_EQ(total.bytes_transferred,
            unrelated.bytes_transferred + a->metrics.bytes_transferred);
}

TEST(QueryTrafficTest, PerQueryTrafficSumsToGlobalStats) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, NoCacheOptions()).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  CallMetrics summed;
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> res =
        med.Query("?- objects(4, " + std::to_string(40 + i) + ", O).",
                  AsWritten());
    ASSERT_TRUE(res.ok()) << res.status();
    summed.Merge(res->metrics);
  }
  // The global totals are the links' own counters, summed over the links.
  const CallMetrics global = LinkTotals(med);
  EXPECT_GT(global.remote_calls, 0u);
  EXPECT_EQ(summed.remote_calls, global.remote_calls);
  EXPECT_EQ(summed.bytes_transferred, global.bytes_transferred);
  EXPECT_EQ(summed.remote_failures, global.remote_failures);
  EXPECT_NEAR(summed.network_charge, global.network_charge, 1e-9);
  EXPECT_NEAR(summed.network_ms, global.network_ms, 1e-6);
}

TEST(QueryTrafficTest, CacheHitsGenerateNoTraffic) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  Result<QueryResult> miss = med.Query("?- objects(4, 47, O).", AsWritten());
  Result<QueryResult> hit = med.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(miss.ok() && hit.ok());
  EXPECT_GT(miss->metrics.remote_calls, 0u);
  EXPECT_GT(miss->metrics.cache_misses, 0u);
  EXPECT_EQ(hit->metrics.remote_calls, 0u);
  EXPECT_EQ(hit->metrics.bytes_transferred, 0u);
  EXPECT_DOUBLE_EQ(hit->metrics.network_charge, 0.0);
  EXPECT_GT(hit->metrics.cache_hits, 0u);
  EXPECT_EQ(hit->execution.answers.size(), miss->execution.answers.size());
}

TEST(QueryTrafficTest, MaskedOutageIsAttributedAsFailure) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  // Warm the cache, then take the site down: the CIM masks the outage with
  // cached answers, and the lost call is still billed to the query.
  ASSERT_TRUE(med.Query("?- objects(4, 47, O).", AsWritten()).ok());
  ASSERT_NE(med.remote_link("video"), nullptr);
  med.remote_link("video")->mutable_site().availability = 0.0;

  // An exact hit never reaches the network at all.
  Result<QueryResult> exact = med.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->metrics.remote_failures, 0u);
  EXPECT_EQ(exact->metrics.remote_calls, 0u);

  // A partial-invariant hit attempts the actual call, loses it to the
  // outage, and serves the cached subset — the failed attempt is billed.
  Result<QueryResult> masked =
      med.Query("?- objects(4, 500, O).", AsWritten());
  ASSERT_TRUE(masked.ok()) << masked.status();
  EXPECT_GT(med.cim("video")->stats().unavailable_masked, 0u);
  EXPECT_GT(masked->metrics.remote_failures, 0u);
  EXPECT_EQ(masked->metrics.remote_failures, masked->metrics.remote_calls);
  EXPECT_EQ(masked->metrics.bytes_transferred, 0u);
}

TEST(QueryTrafficTest, MetricsExposePerLayerCounters) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  Result<QueryResult> res = med.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->metrics.domain_calls, 0u);
  EXPECT_EQ(res->metrics.domain_calls, res->execution.domain_calls);
  EXPECT_GT(res->metrics.stats_records, 0u);
  EXPECT_GT(res->metrics.bytes_transferred, 0u);
  EXPECT_EQ(res->metrics.bytes_transferred,
            LinkTotals(med).bytes_transferred);
  EXPECT_GT(res->metrics.network_ms, 0.0);
}

}  // namespace
}  // namespace hermes
