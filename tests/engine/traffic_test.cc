// Per-query network-traffic attribution: QueryResult::traffic is derived
// from the query's own CallContext metrics (the network layer attributes as
// it runs), never by diffing the shared simulator's global statistics — so
// unrelated traffic on the same simulator can no longer leak into a query's
// bill, and every byte of every query adds up to the global aggregate.

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

TEST(QueryTrafficTest, UnrelatedGlobalTrafficDoesNotLeakIntoAQuery) {
  Mediator polluted, twin;
  ASSERT_TRUE(testbed::SetupRopeScenario(&polluted, NoCacheOptions()).ok());
  ASSERT_TRUE(testbed::SetupRopeScenario(&twin, NoCacheOptions()).ok());
  ASSERT_TRUE(polluted.LoadProgram(kObjectsRule).ok());
  ASSERT_TRUE(twin.LoadProgram(kObjectsRule).ok());

  // Unrelated activity on the shared simulator: another query's transfers
  // and failures landing in the global statistics.
  (void)polluted.network().RecordTransfer(net::ItalySite(), 1 << 20, 9999.0);
  polluted.network().RecordFailure();

  Result<QueryResult> a = polluted.Query("?- objects(4, 47, O).", AsWritten());
  Result<QueryResult> b = twin.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_GT(b->traffic.bytes, 0u);

  // The polluted mediator's query is billed exactly what its twin is.
  EXPECT_EQ(a->traffic.remote_calls, b->traffic.remote_calls);
  EXPECT_EQ(a->traffic.failures, b->traffic.failures);
  EXPECT_EQ(a->traffic.bytes, b->traffic.bytes);
  EXPECT_DOUBLE_EQ(a->traffic.charge, b->traffic.charge);
  // The pollution is still visible globally, just not attributed.
  EXPECT_GE(polluted.network().stats().bytes_transferred,
            a->traffic.bytes + (1 << 20));
}

TEST(QueryTrafficTest, PerQueryTrafficSumsToGlobalStats) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, NoCacheOptions()).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  uint64_t calls = 0, bytes = 0, failures = 0;
  double charge = 0.0;
  for (int i = 0; i < 4; ++i) {
    Result<QueryResult> res =
        med.Query("?- objects(4, " + std::to_string(40 + i) + ", O).",
                  AsWritten());
    ASSERT_TRUE(res.ok()) << res.status();
    calls += res->traffic.remote_calls;
    bytes += res->traffic.bytes;
    failures += res->traffic.failures;
    charge += res->traffic.charge;
  }
  const net::NetworkStats& global = med.network().stats();
  EXPECT_EQ(calls, global.calls);
  EXPECT_EQ(bytes, global.bytes_transferred);
  EXPECT_EQ(failures, global.failures);
  EXPECT_NEAR(charge, global.total_charge, 1e-9);
}

TEST(QueryTrafficTest, CacheHitsGenerateNoTraffic) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  Result<QueryResult> miss = med.Query("?- objects(4, 47, O).", AsWritten());
  Result<QueryResult> hit = med.Query("?- objects(4, 47, O).", AsWritten());
  ASSERT_TRUE(miss.ok() && hit.ok());
  EXPECT_GT(miss->traffic.remote_calls, 0u);
  EXPECT_GT(miss->metrics.cache_misses, 0u);
  EXPECT_EQ(hit->traffic.remote_calls, 0u);
  EXPECT_EQ(hit->traffic.bytes, 0u);
  EXPECT_DOUBLE_EQ(hit->traffic.charge, 0.0);
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
  EXPECT_EQ(exact->traffic.failures, 0u);
  EXPECT_EQ(exact->traffic.remote_calls, 0u);

  // A partial-invariant hit attempts the actual call, loses it to the
  // outage, and serves the cached subset — the failed attempt is billed.
  Result<QueryResult> masked =
      med.Query("?- objects(4, 500, O).", AsWritten());
  ASSERT_TRUE(masked.ok()) << masked.status();
  EXPECT_GT(med.cim("video")->stats().unavailable_masked, 0u);
  EXPECT_GT(masked->traffic.failures, 0u);
  EXPECT_EQ(masked->traffic.failures, masked->traffic.remote_calls);
  EXPECT_EQ(masked->traffic.bytes, 0u);
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
  EXPECT_EQ(res->metrics.bytes_transferred, res->traffic.bytes);
  EXPECT_GT(res->metrics.network_ms, 0.0);
}

}  // namespace
}  // namespace hermes
