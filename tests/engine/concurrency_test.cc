// Concurrent serving: many clients hammering one shared Mediator through a
// QueryPool. These tests pin the concurrency contract — wiring frozen while
// serving, exact shared counters, per-query traffic attribution that sums
// to the remote links' own counters, and replay determinism of the
// per-query network RNG across thread counts. They are also the TSan
// workload of the CI thread-sanitizer job.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

const char* kObjectsRule =
    "objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).";

QueryOptions AsWritten() {
  QueryOptions q;
  q.use_optimizer = false;
  return q;
}

std::string ObjectsQuery(int last) {
  return "?- objects(4, " + std::to_string(last) + ", O).";
}

testbed::RopeScenarioOptions NoCacheOptions() {
  testbed::RopeScenarioOptions options;
  options.enable_caching = false;
  options.add_frame_invariants = false;
  return options;
}

/// The mediator's network totals: its remote links' own counters, summed.
CallMetrics LinkTotals(Mediator& med) {
  CallMetrics totals;
  for (const std::string& domain : med.RemoteDomains()) {
    const net::NetworkInterceptor* link = med.remote_link(domain);
    totals.remote_calls += link->calls().Value();
    totals.remote_failures += link->failures().Value();
    totals.bytes_transferred += link->bytes().Value();
    totals.network_charge += link->charge().Value();
  }
  return totals;
}

TEST(ConcurrencyTest, StressMixedWorkloadOnSharedMediator) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  EXPECT_EQ(pool->num_threads(), 8u);
  EXPECT_TRUE(med.serving());

  // A mix of repeated (cacheable) and one-off ranges, plus the appendix
  // join queries, all in flight at once.
  std::vector<std::string> texts;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int round = 0; round < 5; ++round) {
    texts.push_back(ObjectsQuery(47));  // repeats: exact hits after the first
    texts.push_back(ObjectsQuery(100 + round));          // always fresh
    texts.push_back(testbed::AppendixQuery(3, false, 4, 47));
    texts.push_back(testbed::AppendixQuery(1, false, 4, 60 + round));
  }
  futures.reserve(texts.size());
  for (const std::string& text : texts) {
    futures.push_back(pool->Submit(text, AsWritten()));
  }

  std::map<std::string, size_t> answers_by_text;
  std::set<uint64_t> ids;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResult> res = futures[i].get();
    ASSERT_TRUE(res.ok()) << texts[i] << ": " << res.status();
    EXPECT_GT(res->execution.answers.size(), 0u) << texts[i];
    EXPECT_NE(res->query_id, 0u);
    ids.insert(res->query_id);
    // The same query text must produce the same answer count no matter
    // whether it was served from cache or the source.
    auto [it, inserted] =
        answers_by_text.emplace(texts[i], res->execution.answers.size());
    if (!inserted) {
      EXPECT_EQ(it->second, res->execution.answers.size()) << texts[i];
    }
  }
  EXPECT_EQ(ids.size(), texts.size());  // every query ran under its own id

  pool->Shutdown();
  EXPECT_FALSE(med.serving());
  QueryPoolStats stats = pool->stats();
  EXPECT_EQ(stats.submitted, texts.size());
  EXPECT_EQ(stats.completed, texts.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ConcurrencyTest, WiringIsFrozenWhileServing) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, NoCacheOptions()).ok());

  std::unique_ptr<QueryPool> pool = med.Serve({});
  Status caching = med.EnableCaching("video");
  EXPECT_TRUE(caching.IsFailedPrecondition()) << caching;
  EXPECT_TRUE(med.LoadProgram(kObjectsRule).IsFailedPrecondition());
  EXPECT_TRUE(med.ClearProgram().IsFailedPrecondition());
  EXPECT_TRUE(med.AddInvariants("x = y.").IsFailedPrecondition());
  EXPECT_EQ(med.cim("video"), nullptr);  // the rejected call changed nothing

  pool->Shutdown();
  // After the pool is gone the same wiring calls succeed.
  EXPECT_TRUE(med.EnableCaching("video").ok());
  EXPECT_TRUE(med.LoadProgram(kObjectsRule).ok());
  EXPECT_NE(med.cim("video"), nullptr);
  Result<QueryResult> res = med.Query(ObjectsQuery(47), AsWritten());
  EXPECT_TRUE(res.ok()) << res.status();
}

TEST(ConcurrencyTest, SubmitAfterShutdownFailsCleanly) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, NoCacheOptions()).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  std::unique_ptr<QueryPool> pool = med.Serve({});
  pool->Shutdown();
  pool->Shutdown();  // idempotent

  Result<QueryResult> res = pool->Submit(ObjectsQuery(47)).get();
  EXPECT_TRUE(res.status().IsFailedPrecondition());
  std::future<Result<QueryResult>> out;
  Status refused = pool->TrySubmit(ObjectsQuery(47), {}, &out);
  EXPECT_TRUE(refused.IsFailedPrecondition()) << refused;
  EXPECT_GT(pool->stats().rejected, 0u);
}

TEST(ConcurrencyTest, ConcurrentPerQueryTrafficSumsToGlobalStats) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, NoCacheOptions()).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(pool->Submit(ObjectsQuery(40 + i), AsWritten()));
  }

  CallMetrics summed;
  for (std::future<Result<QueryResult>>& f : futures) {
    Result<QueryResult> res = f.get();
    ASSERT_TRUE(res.ok()) << res.status();
    summed.Merge(res->metrics);
  }
  pool->Shutdown();

  // Every remote byte of every concurrent query is attributed exactly once:
  // the per-query bills add up to the links' own counters.
  const CallMetrics global = LinkTotals(med);
  EXPECT_GT(global.remote_calls, 0u);
  EXPECT_EQ(summed.remote_calls, global.remote_calls);
  EXPECT_EQ(summed.bytes_transferred, global.bytes_transferred);
  EXPECT_EQ(summed.remote_failures, global.remote_failures);
  EXPECT_NEAR(summed.network_charge, global.network_charge, 1e-6);
}

TEST(ConcurrencyTest, CacheCountersStayExactUnderConcurrentHits) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  // Warm: exactly one miss + one actual call inserts the entry. The
  // counters only rise, so the served phase is read as a difference.
  ASSERT_TRUE(med.Query(ObjectsQuery(47), AsWritten()).ok());
  const cim::CimStats before = med.cim("video")->stats();
  const uint64_t cache_hits_before = med.cim("video")->cache().stats().hits;

  constexpr int kQueries = 40;
  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < kQueries; ++i) {
    futures.push_back(pool->Submit(ObjectsQuery(47), AsWritten()));
  }
  for (std::future<Result<QueryResult>>& f : futures) {
    Result<QueryResult> res = f.get();
    ASSERT_TRUE(res.ok()) << res.status();
    // Each repeat is served wholly from cache, and its own metrics say so —
    // outcome attribution is per-call, not diffed from shared counters.
    EXPECT_EQ(res->metrics.cache_hits, 1u);
    EXPECT_EQ(res->metrics.cache_misses, 0u);
    EXPECT_EQ(res->metrics.remote_calls, 0u);
  }
  pool->Shutdown();

  cim::CimStats stats = med.cim("video")->stats();
  EXPECT_EQ(stats.exact_hits - before.exact_hits,
            static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.misses - before.misses, 0u);
  EXPECT_EQ(stats.actual_calls - before.actual_calls, 0u);
  EXPECT_EQ(med.cim("video")->cache().stats().hits - cache_hits_before,
            static_cast<uint64_t>(kQueries));
}

// Satellite of the per-query RNG work: with set_per_query_network_rng(true),
// a query's simulated latencies and traffic depend only on (network seed,
// query id) — so replaying the same submissions on 1 thread and on 8 threads
// yields identical per-query results.
TEST(ConcurrencyTest, PerQueryRngReplaysIdenticallyAcrossThreadCounts) {
  auto run = [](size_t threads) {
    auto med = std::make_unique<Mediator>();
    EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), NoCacheOptions()).ok());
    EXPECT_TRUE(med->LoadProgram(kObjectsRule).ok());
    med->set_per_query_network_rng(true);

    QueryOptions options = AsWritten();
    options.record_statistics = false;

    QueryPoolOptions pool_options;
    pool_options.num_threads = threads;
    std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
    std::vector<std::future<Result<QueryResult>>> futures;
    for (int i = 0; i < 16; ++i) {
      // Pin the ids explicitly so both runs use the same (seed, id) streams
      // regardless of what else the mediator ran before.
      QueryOptions pinned = options;
      pinned.query_id = 1000 + i;
      futures.push_back(pool->Submit(ObjectsQuery(40 + i % 8), pinned));
    }
    std::vector<QueryResult> results;
    for (std::future<Result<QueryResult>>& f : futures) {
      Result<QueryResult> res = f.get();
      EXPECT_TRUE(res.ok()) << res.status();
      results.push_back(std::move(*res));
    }
    pool->Shutdown();
    return results;
  };

  std::vector<QueryResult> serial = run(1);
  std::vector<QueryResult> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].query_id, parallel[i].query_id);
    EXPECT_EQ(serial[i].execution.answers.size(),
              parallel[i].execution.answers.size());
    // The simulated clock readings — pure functions of the query's RNG
    // stream — replay exactly.
    EXPECT_DOUBLE_EQ(serial[i].execution.t_all_ms,
                     parallel[i].execution.t_all_ms);
    EXPECT_DOUBLE_EQ(serial[i].execution.t_first_ms,
                     parallel[i].execution.t_first_ms);
    EXPECT_EQ(serial[i].metrics.bytes_transferred,
              parallel[i].metrics.bytes_transferred);
    EXPECT_EQ(serial[i].metrics.remote_calls, parallel[i].metrics.remote_calls);
    EXPECT_DOUBLE_EQ(serial[i].metrics.network_charge,
                     parallel[i].metrics.network_charge);
  }
}

// Without per-query streams the shared legacy RNG sequence is consumed in
// scheduling order — latencies then legitimately differ between runs; the
// answers themselves must not.
TEST(ConcurrencyTest, SharedRngStillYieldsIdenticalAnswers) {
  auto run = [](size_t threads) {
    auto med = std::make_unique<Mediator>();
    EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), NoCacheOptions()).ok());
    EXPECT_TRUE(med->LoadProgram(kObjectsRule).ok());
    QueryPoolOptions pool_options;
    pool_options.num_threads = threads;
    std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
    std::vector<std::future<Result<QueryResult>>> futures;
    for (int i = 0; i < 12; ++i) {
      futures.push_back(pool->Submit(ObjectsQuery(40 + i), AsWritten()));
    }
    std::vector<size_t> counts;
    for (std::future<Result<QueryResult>>& f : futures) {
      Result<QueryResult> res = f.get();
      EXPECT_TRUE(res.ok()) << res.status();
      counts.push_back(res->execution.answers.size());
    }
    pool->Shutdown();
    return counts;
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace hermes
