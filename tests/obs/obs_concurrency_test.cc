// Concurrency contract of the observability layer — also part of the CI
// thread-sanitizer workload. The core invariant: each call-path fact is
// counted once per query (CallMetrics) and once by the layer that observes
// it (its labeled series), and summed over the queries the two agree at any
// thread count (nothing double-counted, nothing dropped, no data races).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "net/faults/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

const char* kObjectsRule =
    "objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).";

TEST(ObsConcurrency, CounterTotalsAreExactAcrossThreads) {
  obs::Counter counter;
  obs::FloatCounter fcounter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &fcounter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        fcounter.Add(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(fcounter.Value(), kThreads * kPerThread * 0.5);
}

TEST(ObsConcurrency, HistogramCountsAreExactAcrossThreads) {
  obs::Histogram h(obs::Histogram::ExponentialBounds(1.0, 2.0, 10));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>((t * kPerThread + i) % 700));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsConcurrency, HistogramMergeIsAssociative) {
  auto make = [](double base) {
    obs::Histogram h({1.0, 10.0, 100.0});
    h.Observe(base);
    h.Observe(base * 3.0);
    h.Observe(base * 30.0);
    return h.Snapshot();
  };
  obs::HistogramSnapshot a = make(0.5), b = make(2.0), c = make(4.0);

  obs::HistogramSnapshot left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  obs::HistogramSnapshot bc = b;     // a + (b + c)
  bc.Merge(c);
  obs::HistogramSnapshot right = a;
  right.Merge(bc);

  EXPECT_EQ(left.counts, right.counts);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_EQ(left.count, right.count);
}

/// Sum of every sample of `family` in a Prometheus exposition, over all of
/// its label sets: every link, layer instance or CIM that registered one.
double FamilyTotal(const std::string& prom, const std::string& family) {
  double total = 0.0;
  std::istringstream lines(prom);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(family, 0) != 0 || line.size() <= family.size()) continue;
    if (line[family.size()] != '{' && line[family.size()] != ' ') continue;
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

// The tentpole invariant: after 8 worker threads serve a mixed workload
// over a flaky, retrying video link, each CallMetrics field summed over the
// per-query results equals the series of the layer that counts it (DESIGN.md
// §8), summed over its label sets. domain_calls is counted per query only.
TEST(ObsConcurrency, LayerSeriesEqualSumOfPerQueryMetrics) {
  Mediator med;
  resilience::ResiliencePolicy retrying;
  retrying.retry.max_retries = 2;
  med.set_default_resilience_policy(retrying);
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());
  Result<net::FaultPlan> plan =
      net::FaultPlan::Parse("seed 7\nflaky site=umd p=0.4\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_TRUE(med.SetFaultPlan(std::move(plan).value()).ok());

  QueryOptions as_written;
  as_written.use_optimizer = false;
  as_written.partial_results = true;  // a lost source still reports metrics

  const std::string before = med.metrics().ExposePrometheus();
  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  std::vector<std::future<Result<QueryResult>>> futures;
  constexpr int kQueries = 48;
  for (int i = 0; i < kQueries; ++i) {
    // Mix of repeated (cache-hitting) and fresh (source-calling) ranges.
    int last = i % 3 == 0 ? 47 : 40 + i;
    futures.push_back(pool->Submit(
        "?- objects(4, " + std::to_string(last) + ", O).", as_written));
  }

  CallMetrics summed;
  for (std::future<Result<QueryResult>>& f : futures) {
    Result<QueryResult> res = f.get();
    ASSERT_TRUE(res.ok()) << res.status();
    summed.Merge(res->metrics);
  }
  pool->Shutdown();
  const std::string after = med.metrics().ExposePrometheus();

  // The workload reached the layers this test is about.
  EXPECT_GT(summed.cache_hits, 0u);
  EXPECT_GT(summed.remote_calls, 0u);
  EXPECT_GT(summed.remote_failures, 0u);
  EXPECT_GT(summed.retries, 0u);

  struct Field {
    const char* name;
    double summed;
    std::vector<std::string> families;
  };
  const std::vector<Field> fields = {
      {"stats_records", static_cast<double>(summed.stats_records),
       {"hermes_dcsm_records_total"}},
      {"cache_hits", static_cast<double>(summed.cache_hits),
       {"hermes_cim_exact_hits_total", "hermes_cim_equality_hits_total",
        "hermes_cim_partial_hits_total"}},
      {"cache_misses", static_cast<double>(summed.cache_misses),
       {"hermes_cim_misses_total"}},
      {"remote_calls", static_cast<double>(summed.remote_calls),
       {"hermes_site_calls_total"}},
      {"remote_failures", static_cast<double>(summed.remote_failures),
       {"hermes_site_failures_total"}},
      {"bytes_transferred", static_cast<double>(summed.bytes_transferred),
       {"hermes_site_bytes_total"}},
      {"retries", static_cast<double>(summed.retries),
       {"hermes_resilience_retries_total"}},
      {"breaker_shed", static_cast<double>(summed.breaker_shed),
       {"hermes_resilience_breaker_shed_total"}},
      {"deadline_aborts", static_cast<double>(summed.deadline_aborts),
       {"hermes_resilience_deadline_aborts_total"}},
      {"degraded_calls", static_cast<double>(summed.degraded_calls),
       {"hermes_resilience_stale_serves_total",
        "hermes_cim_unavailable_masked_total"}},
      {"failovers", static_cast<double>(summed.failovers),
       {"hermes_resilience_failovers_total"}},
      {"load_shed", static_cast<double>(summed.load_shed),
       {"hermes_overload_shed_total"}},
      {"hedges", static_cast<double>(summed.hedges),
       {"hermes_hedge_issued_total"}},
      {"hedge_wins", static_cast<double>(summed.hedge_wins),
       {"hermes_hedge_wins_total"}},
      {"network_charge", summed.network_charge, {"hermes_site_charge_total"}},
      {"network_ms", summed.network_ms, {"hermes_site_hop_sim_ms_sum"}},
      {"retry_backoff_ms", summed.retry_backoff_ms,
       {"hermes_resilience_backoff_sim_ms_total"}},
  };
  // Every field either has a layer series above or is counted per query
  // only, so a new CallMetrics field must be placed in one or the other.
  std::set<std::string> placed = {"domain_calls"};
  for (const Field& field : fields) {
    double layer = 0.0;
    for (const std::string& family : field.families) {
      layer += FamilyTotal(after, family) - FamilyTotal(before, family);
    }
    // The exposition prints 10 significant digits.
    EXPECT_NEAR(layer, field.summed, 1e-9 * std::max(1.0, field.summed))
        << field.name;
    placed.insert(field.name);
  }
  std::set<std::string> all;
#define HERMES_FIELD(f) all.insert(#f);
  HERMES_CALL_METRICS_UINT64_FIELDS(HERMES_FIELD)
  HERMES_CALL_METRICS_DOUBLE_FIELDS(HERMES_FIELD)
#undef HERMES_FIELD
  EXPECT_EQ(placed, all);

  // Query- and pool-level counters landed in the same registry.
  obs::MetricsRegistry& registry = med.metrics();
  EXPECT_EQ(registry.GetOrAddCounter("hermes_queries_total", "")->Value(),
            uint64_t{kQueries});
  EXPECT_EQ(registry.GetOrAddCounter("hermes_pool_submitted_total", "")->Value(),
            uint64_t{kQueries});
  EXPECT_EQ(registry.GetOrAddCounter("hermes_pool_completed_total", "")->Value(),
            uint64_t{kQueries});
  // The layer-owned series are the layers' own counters.
  EXPECT_EQ(
      registry
          .GetOrAddCounter("hermes_cim_exact_hits_total", "",
                           {{"domain", "video"}})
          ->Value(),
      med.cim("video")->stats().exact_hits);
  EXPECT_NE(after.find("hermes_pool_queue_wait_ms_bucket"), std::string::npos);
}

// Operator-layer metrics under concurrency: 8 worker threads execute
// queries while other threads render EXPLAIN against the same mediator.
// EXPLAIN is read-only (no domain call, no operator Open), so the
// hermes_exec_op_* folds must equal the executing queries' own metrics:
// opens{op=domain_call} is exactly the summed per-query domain-call count.
TEST(ObsConcurrency, ExecOpMetricsFoldUnderMixedExplainAndExecute) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  QueryOptions as_written;
  as_written.use_optimizer = false;

  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);

  // Concurrent EXPLAIN traffic: plan compilation + DCSM cost reads racing
  // the executing queries (TSan exercises Dcsm::Cost vs. RecordSample).
  std::atomic<bool> stop{false};
  std::vector<std::thread> explainers;
  for (int t = 0; t < 2; ++t) {
    explainers.emplace_back([&med, &as_written, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Result<std::string> text =
            med.Explain("?- objects(4, 47, O).", as_written);
        ASSERT_TRUE(text.ok()) << text.status();
        ASSERT_NE(text->find("DomainCall"), std::string::npos);
      }
    });
  }

  std::vector<std::future<Result<QueryResult>>> futures;
  constexpr int kQueries = 32;
  for (int i = 0; i < kQueries; ++i) {
    int last = i % 3 == 0 ? 47 : 40 + i;
    futures.push_back(pool->Submit(
        "?- objects(4, " + std::to_string(last) + ", O).", as_written));
  }

  uint64_t summed_domain_calls = 0;
  uint64_t summed_answers = 0;
  for (std::future<Result<QueryResult>>& f : futures) {
    Result<QueryResult> res = f.get();
    ASSERT_TRUE(res.ok()) << res.status();
    summed_domain_calls += res->execution.domain_calls;
    summed_answers += res->execution.answers.size();
  }
  pool->Shutdown();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : explainers) t.join();

  obs::MetricsRegistry& registry = med.metrics();
  EXPECT_EQ(registry
                .GetOrAddCounter("hermes_exec_op_opens_total", "",
                                 {{"op", "domain_call"}})
                ->Value(),
            summed_domain_calls);
  // Every answer passed through sink and project exactly once.
  EXPECT_EQ(registry
                .GetOrAddCounter("hermes_exec_op_rows_total", "",
                                 {{"op", "answer_sink"}})
                ->Value(),
            summed_answers);
  EXPECT_EQ(registry
                .GetOrAddCounter("hermes_exec_op_rows_total", "",
                                 {{"op", "project"}})
                ->Value(),
            summed_answers);
  // One sink open per query; no error was recorded on any operator.
  EXPECT_EQ(registry
                .GetOrAddCounter("hermes_exec_op_opens_total", "",
                                 {{"op", "answer_sink"}})
                ->Value(),
            uint64_t{kQueries});
  EXPECT_EQ(registry
                .GetOrAddCounter("hermes_exec_op_errors_total", "",
                                 {{"op", "domain_call"}})
                ->Value(),
            0u);
  std::string prom = registry.ExposePrometheus();
  EXPECT_NE(prom.find("hermes_exec_op_sim_ms_bucket"), std::string::npos);
}

// Tracing under concurrency: each query carries its own tracer; span trees
// stay per-query (no cross-talk) and merge into one valid Chrome document.
TEST(ObsConcurrency, PerQueryTracersStayIsolated) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  ASSERT_TRUE(med.LoadProgram(kObjectsRule).ok());

  QueryOptions as_written;
  as_written.use_optimizer = false;

  constexpr int kQueries = 16;
  std::vector<obs::Tracer> tracers(kQueries);
  QueryPoolOptions pool_options;
  pool_options.num_threads = 8;
  std::unique_ptr<QueryPool> pool = med.Serve(pool_options);
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < kQueries; ++i) {
    QueryOptions options = as_written;
    options.tracer = &tracers[i];
    futures.push_back(pool->Submit(
        "?- objects(4, " + std::to_string(40 + i) + ", O).", options));
  }
  for (std::future<Result<QueryResult>>& f : futures) {
    ASSERT_TRUE(f.get().ok());
  }
  pool->Shutdown();

  std::vector<const obs::Tracer*> all;
  for (const obs::Tracer& t : tracers) {
    ASSERT_FALSE(t.empty());
    // Exactly one root span, and it is the "query" envelope.
    size_t roots = 0;
    for (const obs::Span& s : t.spans()) {
      if (s.parent == 0) {
        ++roots;
        EXPECT_EQ(s.name, "query");
      }
      EXPECT_TRUE(s.closed) << s.name;
    }
    EXPECT_EQ(roots, 1u);
    all.push_back(&t);
  }
  std::string merged = obs::ChromeTraceJson(all);
  EXPECT_NE(merged.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace hermes
