#include "engine/mediator.h"

#include <gtest/gtest.h>

#include "lang/parser.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

testbed::RopeScenarioOptions FastSites() {
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  return options;
}

TEST(MediatorTest, SetupAndSimpleQuery) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(1, false, 4, 47), QueryOptions{});
  ASSERT_TRUE(res.ok()) << res.status();
  // query1: one Size × the objects in [4,47].
  EXPECT_EQ(res->execution.answers.size(), 7u);
  EXPECT_GT(res->execution.t_all_ms, 0.0);
}

TEST(MediatorTest, PrimedAndUnprimedQueriesAgreeOnAnswers) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  QueryOptions raw;
  raw.use_optimizer = false;
  raw.use_cim = false;
  Result<QueryResult> q1 =
      med.Query(testbed::AppendixQuery(1, false, 4, 47), raw);
  Result<QueryResult> q1p =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), raw);
  ASSERT_TRUE(q1.ok() && q1p.ok());
  EXPECT_EQ(q1->execution.answers.size(), q1p->execution.answers.size());
}

TEST(MediatorTest, Query3AndQuery4AreEquivalentRewritings) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  QueryOptions raw;
  raw.use_optimizer = false;
  raw.use_cim = false;
  Result<QueryResult> q3 =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), raw);
  Result<QueryResult> q4 =
      med.Query(testbed::AppendixQuery(4, false, 4, 47), raw);
  ASSERT_TRUE(q3.ok()) << q3.status();
  ASSERT_TRUE(q4.ok()) << q4.status();
  EXPECT_EQ(q3->execution.answers.size(), 5u);
  EXPECT_EQ(q4->execution.answers.size(), q3->execution.answers.size());
}

TEST(MediatorTest, CachingAcceleratesRepeatQueries) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(
                  &med, testbed::RopeScenarioOptions{})
                  .ok());
  QueryOptions cim_only;
  cim_only.use_optimizer = false;
  cim_only.use_cim = true;
  Result<QueryResult> cold =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), cim_only);
  Result<QueryResult> warm =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), cim_only);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->execution.answers.size(), warm->execution.answers.size());
  EXPECT_LT(warm->execution.t_all_ms, cold->execution.t_all_ms / 50.0);
  EXPECT_GT(med.cim("video")->stats().exact_hits, 0u);
}

TEST(MediatorTest, InvariantServesWiderRangePartially) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions cim_only;
  cim_only.use_optimizer = false;
  cim_only.use_cim = true;
  // Warm with the narrow range, then query the wider one.
  ASSERT_TRUE(med.Query(testbed::AppendixQuery(1, true, 4, 47), cim_only).ok());
  Result<QueryResult> wide =
      med.Query(testbed::AppendixQuery(1, true, 4, 127), cim_only);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_GT(med.cim("video")->stats().partial_hits, 0u);
  // Answers must include mrs_wilson (in [40,127] only).
  bool found = false;
  for (const ValueList& row : wide->execution.answers) {
    for (const Value& v : row) {
      if (v == Value::Str("mrs_wilson")) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MediatorTest, OptimizerLearnsToPreferCim) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions opts;  // optimizer on, cim allowed
  // Round 1 executes (cold statistics), rounds 2-3 learn.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(med.Query(testbed::AppendixQuery(3, false, 4, 47), opts).ok());
  }
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), opts);
  ASSERT_TRUE(res.ok());
  // By now the CIM path has recorded cheap statistics and must be chosen.
  EXPECT_NE(res->plan_description.find("cim"), std::string::npos);
  EXPECT_LT(res->execution.t_all_ms, 100.0);
}

TEST(MediatorTest, InteractiveModeReturnsFirstBatch) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  QueryOptions opts;
  opts.mode = engine::ExecutionMode::kInteractive;
  opts.interactive_batch = 2;
  opts.use_optimizer = false;
  opts.use_cim = false;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), opts);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->execution.answers.size(), 2u);
  EXPECT_FALSE(res->execution.complete);
}

TEST(MediatorTest, PlanReturnsRankedCandidates) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  Result<optimizer::OptimizerResult> plan =
      med.Plan(testbed::AppendixQuery(3, false, 4, 47), QueryOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GE(plan->candidates.size(), 2u);  // direct and cim variants at least
  EXPECT_TRUE(plan->best.estimatable);
}

TEST(MediatorTest, NativeCostModelIsUsedWhenEnabled) {
  Mediator med;
  testbed::RopeScenarioOptions options = FastSites();
  options.relational_native_cost_model = true;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  Result<lang::DomainCallSpec> pattern = lang::Parser::ParseCallPattern(
      "relation:equal('cast', 'role', $b)");
  ASSERT_TRUE(pattern.ok());
  Result<dcsm::CostEstimate> est = med.dcsm().Cost(*pattern);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source.ToString(pattern->domain), "native:relation");
}

TEST(MediatorTest, InvariantForUncachedDomainRejected) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  EXPECT_FALSE(med.AddInvariants("=> ghost:f(X) = ghost:g(X).").ok());
}

// A CIM caches one domain's calls, so an invariant relating two domains
// could never be served from it; it is rejected naming both, and nothing
// of the text is installed.
TEST(MediatorTest, CrossDomainInvariantRejected) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  const size_t video = med.cim("video")->num_invariants();
  const size_t relation = med.cim("relation")->num_invariants();
  Status st = med.AddInvariants(
      "=> video:frames_to_objects(V, F, 9) = video:frames_to_objects(V, F, 9)."
      "=> video:frames_to_objects(V, F, L) = "
      "relation:frames_to_objects(V, F, L).");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  EXPECT_NE(st.message().find("'video'"), std::string::npos) << st;
  EXPECT_NE(st.message().find("'relation'"), std::string::npos) << st;
  EXPECT_EQ(med.cim("video")->num_invariants(), video);
  EXPECT_EQ(med.cim("relation")->num_invariants(), relation);
}

TEST(MediatorTest, ParseErrorsSurfaceFromQuery) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  EXPECT_TRUE(med.Query("?- broken(", QueryOptions{}).status().IsParseError());
  EXPECT_TRUE(med.LoadProgram("junk :-").IsParseError());
}

TEST(MediatorTest, UndefinedPredicateIsNotFoundWithTheOptimizer) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  // Only queries 1 and 2 have primed rules.
  const std::string query = testbed::AppendixQuery(3, true, 4, 47);
  Result<QueryResult> res = med.Query(query, QueryOptions{});
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsNotFound()) << res.status();
  EXPECT_NE(res.status().message().find("query3p/4"), std::string::npos)
      << res.status();
  Result<std::string> explain = med.Explain(query);
  ASSERT_FALSE(explain.ok());
  EXPECT_TRUE(explain.status().IsNotFound()) << explain.status();
  EXPECT_NE(explain.status().message().find("query3p/4"), std::string::npos)
      << explain.status();
}

TEST(MediatorTest, OutOfRangeLiteralIsParseErrorNotException) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  Result<QueryResult> res = med.Query(
      "?- query3(10, 99999999999999999999, Object, Actor).", QueryOptions{});
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsParseError()) << res.status();
}

TEST(MediatorTest, HugePathIndexIsTypeErrorNotException) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  // video_size answers an elementary value, so positional access past 1 is
  // a TypeError — however many digits the index has.
  Result<QueryResult> small = med.Query(
      "?- in(X, video:video_size('rope')) & X.5 = 1.", QueryOptions{});
  ASSERT_FALSE(small.ok());
  EXPECT_EQ(small.status().code(), StatusCode::kTypeError) << small.status();
  Result<QueryResult> huge = med.Query(
      "?- in(X, video:video_size('rope')) & X.99999999999999999999 = 1.",
      QueryOptions{});
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().ToString(), small.status().ToString());
}

TEST(MediatorTest, StatisticsAccumulateAcrossQueries) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  QueryOptions raw;
  raw.use_optimizer = false;
  raw.use_cim = false;
  (void)med.Query(testbed::AppendixQuery(3, false, 4, 47), raw);
  size_t after_one = med.dcsm().database().TotalRecords();
  EXPECT_GT(after_one, 0u);
  (void)med.Query(testbed::AppendixQuery(3, false, 4, 127), raw);
  EXPECT_GT(med.dcsm().database().TotalRecords(), after_one);
}

TEST(MediatorTest, RecordStatisticsCanBeDisabled) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, FastSites()).ok());
  QueryOptions opts;
  opts.use_optimizer = false;
  opts.use_cim = false;
  opts.record_statistics = false;
  (void)med.Query(testbed::AppendixQuery(3, false, 4, 47), opts);
  EXPECT_EQ(med.dcsm().database().TotalRecords(), 0u);
}

TEST(MediatorTest, NetworkStatsTrackTraffic) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions raw;
  raw.use_optimizer = false;
  raw.use_cim = false;
  (void)med.Query(testbed::AppendixQuery(1, true, 4, 47), raw);
  uint64_t calls = 0, bytes = 0;
  for (const std::string& domain : med.RemoteDomains()) {
    calls += med.remote_link(domain)->calls().Value();
    bytes += med.remote_link(domain)->bytes().Value();
  }
  EXPECT_GT(calls, 0u);
  EXPECT_GT(bytes, 0u);
}

TEST(MediatorTest, SectionTwoRouteToSuppliesScenario) {
  // The paper's Section 2 example: find a supply location and plan a route
  // to it, mediating between a relational inventory and a path planner.
  Mediator med;
  auto inventory = testbed::MakeInventoryDatabase();
  ASSERT_TRUE(med.RegisterDomain(
                     "ingres", std::make_shared<relational::RelationalDomain>(
                                   "ingres", inventory))
                  .ok());
  ASSERT_TRUE(med.RegisterDomain("terraindb", testbed::MakeSupplyTerrain())
                  .ok());
  ASSERT_TRUE(med.LoadProgram(R"(
    routetosupplies(From, Sup, To, R) :-
        in(Tuple, ingres:equal('inventory', item, Sup)) &
        =(Tuple.loc, To) &
        in(R, terraindb:findrte(From, To)).
  )")
                  .ok());
  Result<QueryResult> res = med.Query(
      "?- routetosupplies('place1', 'h-22 fuel', To, R).", QueryOptions{});
  ASSERT_TRUE(res.ok()) << res.status();
  // Two depots stock h-22 fuel and both are reachable.
  EXPECT_EQ(res->execution.answers.size(), 2u);
  for (const ValueList& row : res->execution.answers) {
    // Columns: From(const) appears? var_names = [From?...] — query args
    // are constants, so vars are To and R.
    EXPECT_TRUE(row.back().is_struct());  // the route struct
  }
}

}  // namespace
}  // namespace hermes
