// End-to-end tests of the paper's worked examples: the Section 4 spatial
// invariants, the Section 2 routetosupplies rule, and per-query traffic /
// financial-charge accounting over priced links.

#include <gtest/gtest.h>

#include "engine/mediator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

TEST(SpatialInvariantTest, PaperSectionFourRangeClamping) {
  // "Dist > 142 ⇒ spatial:range('points',X,Y,Dist) =
  //  spatial:range('points',X,Y,142)." — all points lie in a 100×100
  // square, so any query radius beyond the diagonal returns everything.
  Mediator med;
  ASSERT_TRUE(med.RegisterRemoteDomain("spatial",
                                       testbed::MakeSectionFourSpatial(),
                                       net::UsaSite("umd"))
                  .ok());
  ASSERT_TRUE(med.EnableCaching("spatial").ok());
  ASSERT_TRUE(med.AddInvariants(
                     "Dist > 142 => spatial:range('points', X, Y, Dist) = "
                     "spatial:range('points', X, Y, 142).")
                  .ok());
  ASSERT_TRUE(med.LoadProgram("near(X, Y, D, P) :- "
                              "in(P, spatial:range('points', X, Y, D)).")
                  .ok());

  QueryOptions via_cim;
  via_cim.use_optimizer = false;

  // Warm with the clamped query.
  Result<QueryResult> clamped = med.Query("?- near(50, 50, 142, P).", via_cim);
  ASSERT_TRUE(clamped.ok()) << clamped.status();
  EXPECT_EQ(clamped->execution.answers.size(), 400u);

  // A huge radius is served by the equality invariant — no remote call.
  cim::CimDomain* cim = med.cim("spatial");
  uint64_t actual_before = cim->stats().actual_calls;
  Result<QueryResult> huge = med.Query("?- near(50, 50, 9000, P).", via_cim);
  ASSERT_TRUE(huge.ok()) << huge.status();
  EXPECT_EQ(huge->execution.answers.size(), 400u);
  EXPECT_EQ(cim->stats().actual_calls, actual_before);
  EXPECT_EQ(cim->stats().equality_hits, 1u);
  EXPECT_LT(huge->execution.t_all_ms, clamped->execution.t_all_ms / 5.0);

  // A radius below the clamp is NOT covered by the invariant.
  Result<QueryResult> small = med.Query("?- near(50, 50, 10, P).", via_cim);
  ASSERT_TRUE(small.ok());
  EXPECT_GT(cim->stats().actual_calls, actual_before);
  EXPECT_LT(small->execution.answers.size(), 400u);
}

TEST(SelectInvariantTest, PaperSectionFourContainment) {
  // "V1 ≤ V2 ⇒ relation:select_lt(T, A, V2) ⊇ relation:select_lt(T, A, V1)"
  Mediator med;
  auto db = std::make_shared<relational::Database>();
  ASSERT_TRUE(db->LoadCsv("inv", "item:string,qty:int\na,5\nb,12\nc,30\nd,47\n")
                  .ok());
  ASSERT_TRUE(
      med.RegisterRemoteDomain(
             "relation",
             std::make_shared<relational::RelationalDomain>("rel", db),
             net::UsaSite("bucknell"))
          .ok());
  ASSERT_TRUE(med.EnableCaching("relation").ok());
  ASSERT_TRUE(med.AddInvariants(
                     "V1 <= V2 => relation:select_lt(T, A, V2) >= "
                     "relation:select_lt(T, A, V1).")
                  .ok());
  ASSERT_TRUE(
      med.LoadProgram("low_stock(V, R) :- "
                      "in(R, relation:select_lt('inv', 'qty', V)).")
          .ok());

  QueryOptions via_cim;
  via_cim.use_optimizer = false;

  Result<QueryResult> narrow = med.Query("?- low_stock(13, R).", via_cim);
  ASSERT_TRUE(narrow.ok()) << narrow.status();
  EXPECT_EQ(narrow->execution.answers.size(), 2u);  // a, b

  // The wider threshold gets {a, b} from the cache immediately; the actual
  // call completes with c (a partial-invariant hit).
  Result<QueryResult> wide = med.Query("?- low_stock(31, R).", via_cim);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide->execution.answers.size(), 3u);
  EXPECT_EQ(med.cim("relation")->stats().partial_hits, 1u);
  EXPECT_LT(wide->execution.t_first_ms, narrow->execution.t_first_ms / 2.0);
}

TEST(TrafficAccountingTest, ChargesAccrueOnPricedLinks) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::AustraliaSite("canberra");
  options.enable_caching = true;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());

  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  Result<QueryResult> paid =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), direct);
  ASSERT_TRUE(paid.ok()) << paid.status();
  EXPECT_GT(paid->metrics.remote_calls, 0u);
  EXPECT_GT(paid->metrics.bytes_transferred, 0u);
  // Australia charges per call and per KB.
  EXPECT_GT(paid->metrics.network_charge, 0.0);

  // The same query through the cache costs nothing further.
  QueryOptions via_cim;
  via_cim.use_optimizer = false;
  ASSERT_TRUE(med.Query(testbed::AppendixQuery(1, true, 4, 47), via_cim).ok());
  Result<QueryResult> cached =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), via_cim);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->metrics.network_charge, 0.0);
  EXPECT_EQ(cached->metrics.bytes_transferred, 0u);
}

TEST(TrafficAccountingTest, FailuresCounted) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::UsaSite("umd");
  options.sites.video_site.availability = 0.0;
  options.enable_caching = false;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), direct);
  EXPECT_TRUE(res.status().IsUnavailable());
  EXPECT_GT(med.remote_link("video")->failures().Value(), 0u);
}

}  // namespace
}  // namespace hermes
