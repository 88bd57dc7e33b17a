#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/mediator.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

/// The domain-call spans of a query's trace, in call order.
std::vector<obs::Span> CallSpans(const obs::Tracer& tracer) {
  std::vector<obs::Span> calls;
  for (const obs::Span& span : tracer.spans()) {
    if (span.category == "domain-call") calls.push_back(span);
  }
  return calls;
}

/// Value of `span`'s argument `key`, or "" when absent.
std::string Arg(const obs::Span& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return "";
}

TEST(TraceTest, OffByDefault) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  // No tracer and no diagnostics ring: queries have nowhere to emit to.
  EXPECT_EQ(QueryOptions{}.tracer, nullptr);
  EXPECT_EQ(med.flight_recorder(), nullptr);
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), QueryOptions{});
  ASSERT_TRUE(res.ok());
}

TEST(TraceTest, RecordsEveryCallInPipelineOrder) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = false;
  obs::Tracer tracer;
  qo.tracer = &tracer;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), qo);
  ASSERT_TRUE(res.ok()) << res.status();
  std::vector<obs::Span> calls = CallSpans(tracer);
  ASSERT_EQ(calls.size(), res->execution.domain_calls);
  // The first call is the frames_to_objects sweep; each relation probe
  // follows, with non-decreasing pipeline start times.
  EXPECT_EQ(calls[0].name, "call:video:frames_to_objects");
  double prev = -1.0;
  for (const obs::Span& call : calls) {
    EXPECT_FALSE(call.failed);
    EXPECT_GE(call.sim_begin_ms, prev);
    prev = call.sim_begin_ms;
    EXPECT_FALSE(Arg(call, "answers").empty());
  }
  // 1 video call + one relation call per object in [4,47].
  EXPECT_EQ(calls.size(), 8u);
}

TEST(TraceTest, RecordsFailures) {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.sites.video_site.availability = 0.0;
  options.enable_caching = false;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, options).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = false;
  obs::Tracer tracer;
  qo.tracer = &tracer;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(1, true, 4, 47), qo);
  EXPECT_TRUE(res.status().IsUnavailable());
  // The trace outlives the failed query: the lost call carries the cause
  // and site, and the query span is marked failed.
  std::vector<obs::Span> calls = CallSpans(tracer);
  ASSERT_FALSE(calls.empty());
  EXPECT_TRUE(calls.back().failed);
  EXPECT_EQ(Arg(calls.back(), "error"), "unavailable");
  EXPECT_EQ(Arg(calls.back(), "site"), options.sites.video_site.name);
  std::vector<obs::Span> spans = tracer.spans();
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_TRUE(spans[0].failed);
  EXPECT_GE(spans[0].sim_end_ms, calls.back().sim_end_ms);
}

TEST(TraceTest, TraceShowsCimServingFromCache) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions qo;
  qo.use_optimizer = false;
  qo.use_cim = true;
  std::string query = testbed::AppendixQuery(1, true, 4, 47);
  ASSERT_TRUE(med.Query(query, qo).ok());  // warm
  obs::Tracer tracer;
  qo.tracer = &tracer;
  Result<QueryResult> warm = med.Query(query, qo);
  ASSERT_TRUE(warm.ok());
  std::vector<obs::Span> calls = CallSpans(tracer);
  ASSERT_FALSE(calls.empty());
  // Calls route to the CIM wrapper and return in ~cache time.
  EXPECT_EQ(calls[0].name.rfind("call:cim_video:", 0), 0u);
  EXPECT_LT(calls[0].sim_end_ms - calls[0].sim_begin_ms, 10.0);
}

TEST(TraceTest, OptimizeSpanNestsUnderTheQuery) {
  Mediator med;
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  obs::Tracer tracer;
  QueryOptions qo;
  qo.tracer = &tracer;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), qo);
  ASSERT_TRUE(res.ok()) << res.status();

  std::vector<obs::Span> spans = tracer.spans();
  ASSERT_GE(spans.size(), 2u);
  const obs::Span& query = spans[0];
  const obs::Span& optimize = spans[1];
  EXPECT_EQ(query.name, "query");
  EXPECT_EQ(optimize.name, "optimize");
  EXPECT_EQ(optimize.category, "optimizer");
  EXPECT_EQ(optimize.parent, query.id);
  EXPECT_EQ(Arg(optimize, "plan"), res->plan_description);
  EXPECT_EQ(Arg(optimize, "candidates"),
            std::to_string(res->candidates.size()));
  EXPECT_DOUBLE_EQ(optimize.sim_end_ms, res->optimize_ms);
  EXPECT_GE(query.sim_end_ms, optimize.sim_end_ms);
  // Host time: the query span opens before planning starts.
  EXPECT_LE(query.wall_begin_us, optimize.wall_begin_us);
  EXPECT_LE(optimize.wall_begin_us, optimize.wall_end_us);
}

}  // namespace
}  // namespace hermes
