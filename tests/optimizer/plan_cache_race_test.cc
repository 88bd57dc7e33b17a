// Invalidation races: 8 threads looking up and inserting cached plans while
// drift- and breaker-style invalidations (and full clears) land mid-flight.
// Correctness bar: every query still returns the cold-mediator answers —
// an invalidation can cost a miss, never a stale or corrupt plan — and the
// cache's own accounting stays consistent. CI also runs this binary under
// ThreadSanitizer next to the chaos stress jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/mediator.h"
#include "optimizer/plan_cache.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string Flattened(int first, int last) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "?- in(Object, video:frames_to_objects('rope', %d, %d)) & "
                "in(T, relation:equal('cast', role, Object)) & "
                "=(Actor, T.name).",
                first, last);
  return buf;
}

QueryOptions RaceQuery() {
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  options.record_statistics = false;
  return options;
}

TEST(PlanCacheRaceTest, InvalidationsUnderConcurrentAcquiresStayCorrect) {
  constexpr size_t kThreads = 8;
  constexpr size_t kItersPerThread = 40;
  const std::vector<std::string> shapes = {
      Flattened(4, 47), Flattened(10, 60), Flattened(1, 9000),
      Flattened(20, 80)};

  // Reference answers from a mediator with no plan cache at all.
  std::map<std::string, std::vector<ValueList>> expected;
  {
    Mediator cold;
    ASSERT_TRUE(testbed::SetupRopeScenario(&cold, {}).ok());
    for (const std::string& shape : shapes) {
      Result<QueryResult> res = cold.Query(shape, RaceQuery());
      ASSERT_TRUE(res.ok()) << res.status();
      ASSERT_FALSE(res->execution.answers.empty());
      expected[shape] = res->execution.answers;
    }
  }

  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.EnablePlanCache().ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kItersPerThread; ++i) {
        const std::string& shape = shapes[(t + i) % shapes.size()];
        Result<QueryResult> res = med.Query(shape, RaceQuery());
        if (!res.ok() || res->execution.answers != expected[shape]) {
          ++wrong;
        }
      }
    });
  }
  // The antagonist: drift-style and breaker-style invalidations plus full
  // clears, racing every Lookup/Insert above.
  std::thread invalidator([&] {
    size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      switch (round++ % 3) {
        case 0:
          med.plan_cache()->InvalidateSite("umd");
          break;
        case 1:
          med.plan_cache()->InvalidateDrift("cornell", "relation");
          break;
        default:
          med.plan_cache()->Clear();
          break;
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true);
  invalidator.join();

  EXPECT_EQ(wrong.load(), 0u);
  optimizer::PlanCacheStats stats = med.plan_cache()->stats();
  // Every query either hit or missed — nothing double-counted or lost.
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kItersPerThread);
  EXPECT_GT(stats.misses, 0u);  // the invalidator landed at least once

  // After a final quiescent invalidation the next lookup must miss.
  med.plan_cache()->InvalidateSite("umd");
  Result<QueryResult> after = med.Query(shapes[0], RaceQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->plan_cache_hit);
  EXPECT_EQ(after->execution.answers, expected[shapes[0]]);
}

}  // namespace
}  // namespace hermes
