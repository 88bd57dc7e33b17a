// Chaos suite for the async execution path (ctest -L chaos): the rope
// testbed under the canned fault plan with scatter-gather compilation
// turned on, served through a concurrent QueryPool. On trial:
//
//   1. Liveness — every query terminates despite faults.
//   2. Determinism — per-query outcomes (answers, virtual times, every
//      CallMetrics field, completeness) are bit-identical at 1, 4 and 8
//      worker threads: every query plans its own transfers from its own
//      RNG stream, so nothing about its outcome depends on what else is
//      in flight.
//
// CI also runs this binary under ThreadSanitizer as a chaos stress job.

#include <gtest/gtest.h>

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

/// Echo source for fan-out queries: id(x) → {x} at fixed inner latency.
class EchoDomain : public Domain {
 public:
  explicit EchoDomain(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"id", 1, "id(x): {x}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    CallOutput out;
    out.answers = {call.args[0]};
    out.first_ms = 3.0;
    out.all_ms = 7.0;
    return out;
  }

 private:
  std::string name_;
};

/// One query's outcome, flattened for exact comparison across runs.
struct Outcome {
  bool ok = false;
  std::string error;
  size_t answers = 0;
  double t_first_ms = 0.0;
  double t_all_ms = 0.0;
  CallMetrics metrics;
  int completeness = 0;
  size_t lost_sources = 0;

  bool operator==(const Outcome& other) const {
    bool same = ok == other.ok && error == other.error &&
                answers == other.answers && t_first_ms == other.t_first_ms &&
                t_all_ms == other.t_all_ms &&
                completeness == other.completeness &&
                lost_sources == other.lost_sources;
#define HERMES_FIELD(f) same = same && metrics.f == other.metrics.f;
    HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
    HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
    return same;
  }
};

std::string Describe(const Outcome& o) {
  std::string out = "ok=" + std::to_string(o.ok) + " answers=" +
                    std::to_string(o.answers) + " t_first=" +
                    std::to_string(o.t_first_ms) + " t_all=" +
                    std::to_string(o.t_all_ms) + " completeness=" +
                    std::to_string(o.completeness) + " lost=" +
                    std::to_string(o.lost_sources);
#define HERMES_FIELD(f) out += " " #f "=" + std::to_string(o.metrics.f);
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
  return out + " err=" + o.error;
}

/// Appendix queries over shifting windows interleaved with fan-out echo
/// queries. The echo pair compiles into a scatter-gather group.
std::vector<std::string> Workload(size_t n) {
  std::vector<std::string> queries;
  for (size_t i = 0; i < n; ++i) {
    if (i % 3 == 2) {
      int64_t k = static_cast<int64_t>(i % 4);
      queries.push_back("?- in(X, echo1:id(" + std::to_string(k) +
                        ")) & in(Y, echo2:id(" + std::to_string(k) + ")).");
    } else {
      int number = 1 + static_cast<int>(i % 4);
      int64_t first = 4 + static_cast<int64_t>(3 * (i % 5));
      int64_t last = first + 20 + static_cast<int64_t>(i % 3);
      queries.push_back(testbed::AppendixQuery(number, false, first, last));
    }
  }
  return queries;
}

std::unique_ptr<Mediator> AsyncChaosMediator() {
  auto med = std::make_unique<Mediator>();
  resilience::ResiliencePolicy policy;
  policy.retry.max_retries = 2;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 3;
  policy.call_deadline_ms = 25000.0;
  med->set_default_resilience_policy(policy);
  testbed::RopeScenarioOptions scenario;
  scenario.enable_caching = false;  // shared-cache state is order-dependent
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), scenario).ok());
  EXPECT_TRUE(med->RegisterRemoteDomain(
                      "echo1", std::make_shared<EchoDomain>("echo1"),
                      net::UsaSite("echo-east"))
                  .ok());
  EXPECT_TRUE(med->RegisterRemoteDomain(
                      "echo2", std::make_shared<EchoDomain>("echo2"),
                      net::UsaSite("echo-west"))
                  .ok());
  EXPECT_TRUE(med->LoadFaultPlan(CannedPlanPath()).ok());
  med->set_per_query_network_rng(true);
  med->set_async_execution(true);
  return med;
}

std::vector<Outcome> RunPool(size_t threads,
                             const std::vector<std::string>& queries) {
  std::unique_ptr<Mediator> med = AsyncChaosMediator();
  QueryPoolOptions pool_options;
  pool_options.num_threads = threads;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  options.partial_results = true;
  options.record_statistics = false;
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
      o.t_first_ms = res->execution.t_first_ms;
      o.t_all_ms = res->execution.t_all_ms;
      o.metrics = res->metrics;
      o.completeness = static_cast<int>(res->completeness);
      o.lost_sources = res->lost_sources.size();
    }
    outcomes.push_back(std::move(o));
  }
  pool->Shutdown();
  return outcomes;
}

TEST(AsyncChaosTest, EveryQueryTerminatesWithAsyncExecutionOn) {
  std::vector<std::string> queries = Workload(24);
  std::vector<Outcome> outcomes = RunPool(8, queries);
  ASSERT_EQ(outcomes.size(), queries.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].ok) << "query " << i << ": " << outcomes[i].error;
  }
}

TEST(AsyncChaosTest, OutcomesAreBitIdenticalAcrossThreadCounts) {
  std::vector<std::string> queries = Workload(18);
  std::vector<Outcome> serial = RunPool(1, queries);
  std::vector<Outcome> four = RunPool(4, queries);
  std::vector<Outcome> eight = RunPool(8, queries);
  ASSERT_EQ(serial.size(), four.size());
  ASSERT_EQ(serial.size(), eight.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == four[i])
        << "query " << i << " diverged:\n  1 thread:  " << Describe(serial[i])
        << "\n  4 threads: " << Describe(four[i]);
    EXPECT_TRUE(serial[i] == eight[i])
        << "query " << i << " diverged:\n  1 thread:  " << Describe(serial[i])
        << "\n  8 threads: " << Describe(eight[i]);
  }
}

}  // namespace
}  // namespace hermes
