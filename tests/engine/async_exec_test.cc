// Async scatter-gather execution: runs of independent domain calls (no
// shared bound variables) compile into a ScatterGatherOp whose members are
// issued concurrently on the simulated clock, so the group's latency is the
// max over branches instead of the sum. These tests pin the grouping rule,
// the answer-set equivalence with the sequential tree, the max-not-sum
// timing, and the EXPLAIN markers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/mediator.h"

namespace hermes {
namespace {

/// Echo domain with fixed inner latency: id(x) → {x} in first=3/all=7 ms.
class EchoDomain : public Domain {
 public:
  explicit EchoDomain(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"id", 1, "id(x): {x}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    if (call.function != "id" || call.args.size() != 1) {
      return Status::NotFound("no function " + call.function);
    }
    CallOutput out;
    out.answers = {call.args[0]};
    out.first_ms = 3.0;
    out.all_ms = 7.0;
    return out;
  }

 private:
  std::string name_;
};

/// A jitter-free site: every transfer plan is a pure function of the
/// parameters, so simulated latencies compare exactly across plan shapes.
net::SiteParams FlatSite(std::string name, double rtt_ms) {
  net::SiteParams site = net::UsaSite(std::move(name));
  site.jitter = 0.0;
  site.rtt_ms = rtt_ms;
  return site;
}

/// Three echo sources on independent links with well-separated latencies.
void SetupFanout(Mediator* med) {
  ASSERT_TRUE(med->RegisterRemoteDomain("d1", std::make_shared<EchoDomain>("d1"),
                                        FlatSite("s1", 400.0))
                  .ok());
  ASSERT_TRUE(med->RegisterRemoteDomain("d2", std::make_shared<EchoDomain>("d2"),
                                        FlatSite("s2", 800.0))
                  .ok());
  ASSERT_TRUE(med->RegisterRemoteDomain("d3", std::make_shared<EchoDomain>("d3"),
                                        FlatSite("s3", 1200.0))
                  .ok());
}

const char* kFanoutQuery = "?- in(A, d1:id(1)) & in(B, d2:id(2)) & in(C, d3:id(3)).";

/// As-written query options. `async` switches the mediator's async
/// execution, which holds until it is switched again; these tests run one
/// query at a time.
QueryOptions AsWritten(Mediator& med, bool async) {
  med.set_async_execution(async);
  QueryOptions q;
  q.use_optimizer = false;
  q.record_statistics = false;
  return q;
}

TEST(AsyncExecTest, IndependentCallsCostMaxNotSum) {
  Mediator med;
  SetupFanout(&med);

  // Per-branch latency baselines: each call alone.
  double branch_ta[3];
  const char* singles[] = {"?- in(A, d1:id(1)).", "?- in(B, d2:id(2)).",
                           "?- in(C, d3:id(3))."};
  for (int i = 0; i < 3; ++i) {
    Result<QueryResult> res = med.Query(singles[i], AsWritten(med, false));
    ASSERT_TRUE(res.ok()) << res.status();
    branch_ta[i] = res->execution.t_all_ms;
  }
  const double max_branch = std::max({branch_ta[0], branch_ta[1], branch_ta[2]});
  const double sum_branch = branch_ta[0] + branch_ta[1] + branch_ta[2];

  Result<QueryResult> sync = med.Query(kFanoutQuery, AsWritten(med, false));
  ASSERT_TRUE(sync.ok()) << sync.status();
  Result<QueryResult> async = med.Query(kFanoutQuery, AsWritten(med, true));
  ASSERT_TRUE(async.ok()) << async.status();

  // Sequential chain: the three waits add up. Scatter-gather: all three
  // calls are in flight from t=0, so the group costs the slowest branch.
  EXPECT_NEAR(async->execution.t_all_ms, max_branch, 1e-6);
  EXPECT_GT(sync->execution.t_all_ms, 0.9 * sum_branch);
  EXPECT_LT(async->execution.t_all_ms, 0.5 * sync->execution.t_all_ms);

  // Both plans ship the same three calls; only the overlap differs.
  EXPECT_EQ(sync->metrics.remote_calls, 3u);
  EXPECT_EQ(async->metrics.remote_calls, 3u);

  // QueryResult mirrors the paper's Tf/Ta measures.
  EXPECT_DOUBLE_EQ(async->tf_sim_ms, async->execution.t_first_ms);
  EXPECT_DOUBLE_EQ(async->ta_sim_ms, async->execution.t_all_ms);
}

TEST(AsyncExecTest, AsyncAndSyncPlansProduceIdenticalAnswers) {
  Mediator med;
  SetupFanout(&med);
  Result<QueryResult> sync = med.Query(kFanoutQuery, AsWritten(med, false));
  ASSERT_TRUE(sync.ok()) << sync.status();
  Result<QueryResult> async = med.Query(kFanoutQuery, AsWritten(med, true));
  ASSERT_TRUE(async.ok()) << async.status();

  ASSERT_EQ(sync->execution.answers.size(), async->execution.answers.size());
  EXPECT_EQ(sync->execution.var_names, async->execution.var_names);
  for (size_t i = 0; i < sync->execution.answers.size(); ++i) {
    ASSERT_EQ(sync->execution.answers[i].size(),
              async->execution.answers[i].size());
    for (size_t j = 0; j < sync->execution.answers[i].size(); ++j) {
      EXPECT_EQ(sync->execution.answers[i][j], async->execution.answers[i][j])
          << "answer " << i << " column " << j;
    }
  }
}

TEST(AsyncExecTest, DependentCallsStaySequential) {
  Mediator med;
  SetupFanout(&med);
  // d2's argument is d1's output: not independent, so no group forms and
  // the async option changes nothing.
  const char* dependent = "?- in(A, d1:id(1)) & in(B, d2:id(A)).";
  Result<QueryResult> sync = med.Query(dependent, AsWritten(med, false));
  ASSERT_TRUE(sync.ok()) << sync.status();
  Result<QueryResult> async = med.Query(dependent, AsWritten(med, true));
  ASSERT_TRUE(async.ok()) << async.status();
  EXPECT_DOUBLE_EQ(sync->execution.t_all_ms, async->execution.t_all_ms);
  EXPECT_EQ(sync->execution.answers.size(), async->execution.answers.size());

  Result<std::string> plan = med.Explain(dependent, AsWritten(med, true));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->find("ScatterGather"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("async"), std::string::npos) << *plan;
}

TEST(AsyncExecTest, ExplainMarksGroupedCallsAsync) {
  Mediator med;
  SetupFanout(&med);

  Result<std::string> sync_plan =
      med.Explain(kFanoutQuery, AsWritten(med, false));
  ASSERT_TRUE(sync_plan.ok()) << sync_plan.status();
  EXPECT_EQ(sync_plan->find("ScatterGather"), std::string::npos) << *sync_plan;
  EXPECT_EQ(sync_plan->find("async"), std::string::npos) << *sync_plan;

  Result<std::string> async_plan =
      med.Explain(kFanoutQuery, AsWritten(med, true));
  ASSERT_TRUE(async_plan.ok()) << async_plan.status();
  EXPECT_NE(async_plan->find("ScatterGather"), std::string::npos) << *async_plan;
  EXPECT_NE(async_plan->find("fanout=3"), std::string::npos) << *async_plan;
  EXPECT_NE(async_plan->find("async"), std::string::npos) << *async_plan;

  // The executed tree renders the same markers with actuals.
  QueryOptions options = AsWritten(med, true);
  options.explain = true;
  Result<QueryResult> res = med.Query(kFanoutQuery, options);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_NE(res->explain_text.find("ScatterGather"), std::string::npos)
      << res->explain_text;
  EXPECT_NE(res->explain_text.find("async"), std::string::npos)
      << res->explain_text;
}

TEST(AsyncExecTest, MediatorDefaultEnablesAsyncForEveryQuery) {
  Mediator med;
  SetupFanout(&med);
  med.set_async_execution(true);
  // Plain QueryOptions: the mediator setting alone turns async on.
  QueryOptions q;
  q.use_optimizer = false;
  q.record_statistics = false;
  Result<std::string> plan = med.Explain(kFanoutQuery, q);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("ScatterGather"), std::string::npos) << *plan;
}

TEST(AsyncExecTest, GroupInsideRuleBodyReissuesPerOuterRow) {
  Mediator med;
  SetupFanout(&med);
  // The group sits in a rule body under an outer enumeration: it must
  // re-ground and re-issue per outer row, producing the same cross product
  // as the sequential tree.
  ASSERT_TRUE(
      med.LoadProgram("pair(X, B, C) :- in(B, d2:id(X)) & in(C, d3:id(X)).")
          .ok());
  const char* query = "?- in(A, d1:id(5)) & pair(A, B, C).";
  Result<QueryResult> sync = med.Query(query, AsWritten(med, false));
  ASSERT_TRUE(sync.ok()) << sync.status();
  Result<QueryResult> async = med.Query(query, AsWritten(med, true));
  ASSERT_TRUE(async.ok()) << async.status();
  ASSERT_EQ(sync->execution.answers.size(), async->execution.answers.size());
  EXPECT_GT(async->execution.answers.size(), 0u);
  EXPECT_LT(async->execution.t_all_ms, sync->execution.t_all_ms);
}

}  // namespace
}  // namespace hermes
