// The diagnostics layer end to end: anomaly capture produces complete
// debug bundles, the slow-query log carries per-operator est-vs-actual
// rows, DCSM drift telemetry moves when a fault plan skews latencies, and
// DumpDiagnostics writes the on-demand snapshot.

#include "engine/diagnostics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "common/io.h"
#include "engine/mediator.h"
#include "net/faults/fault_plan.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::unique_ptr<Mediator> RopeMediator(bool caching = true) {
  auto med = std::make_unique<Mediator>();
  testbed::RopeScenarioOptions scenario;
  scenario.enable_caching = caching;
  EXPECT_TRUE(testbed::SetupRopeScenario(med.get(), scenario).ok());
  return med;
}

std::string TempDir(const std::string& leaf) {
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / leaf;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(Diagnostics, SlowThresholdCapturesACompleteBundle) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;
  options.slow_threshold_sim_ms = 1.0;  // everything is "slow"
  options.bundle_dir = TempDir("diag_bundles");
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());

  Result<QueryResult> res =
      med->Query(testbed::AppendixQuery(1, false, 1, 9000), {});
  ASSERT_TRUE(res.ok()) << res.status().ToString();

  DiagnosticsCenter* diag = med->diagnostics();
  ASSERT_NE(diag, nullptr);
  ASSERT_EQ(diag->captures(), 1u);
  std::vector<DebugBundle> bundles = diag->bundles();
  ASSERT_EQ(bundles.size(), 1u);
  const DebugBundle& bundle = bundles[0];
  EXPECT_EQ(bundle.reason, "slow-threshold");
  EXPECT_EQ(bundle.query_id, res->query_id);

  // All four components are present even though the caller passed no
  // tracer and asked for no EXPLAIN.
  EXPECT_FALSE(bundle.events.empty());
  EXPECT_EQ(bundle.events.front().kind, obs::FlightEventKind::kQueryStart);
  EXPECT_EQ(bundle.events.back().kind, obs::FlightEventKind::kQueryEnd);
  EXPECT_NE(bundle.chrome_trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(bundle.chrome_trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(bundle.explain_text.find("actual:"), std::string::npos);
  EXPECT_NE(bundle.prometheus.find("hermes_queries_total 1"),
            std::string::npos);
  ASSERT_FALSE(bundle.rows.empty());

  // Persisted layout: bundle dir with the four files plus the manifest,
  // and the rolling slow-query log beside it.
  ASSERT_FALSE(bundle.dir.empty());
  for (const char* file : {"manifest.json", "events.json", "trace.json",
                           "explain.txt", "metrics.prom"}) {
    EXPECT_TRUE(
        std::filesystem::exists(std::filesystem::path(bundle.dir) / file))
        << file;
  }
  Result<std::string> log = ReadFileToString(
      (std::filesystem::path(options.bundle_dir) / "slow_queries.log")
          .string());
  ASSERT_TRUE(log.ok());
  EXPECT_NE(log->find("slow-query q"), std::string::npos);
  EXPECT_NE(log->find("reason=slow-threshold"), std::string::npos);
}

// The rows walk into rule bodies: a query1 bundle lists the domain calls
// of query1's rule, each with the estimate its call site was stamped with.
TEST(Diagnostics, BundleRowsReachRuleBodies) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;
  options.slow_threshold_sim_ms = 1.0;  // capture every query
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());

  std::vector<DebugBundle> bundles = med->diagnostics()->bundles();
  ASSERT_EQ(bundles.size(), 1u);
  size_t calls = 0;
  for (const SlowQueryRow& row : bundles[0].rows) {
    if (row.op != "domain_call") continue;
    ++calls;
    EXPECT_TRUE(row.has_estimate) << row.ToString();
    EXPECT_GT(row.depth, 3u) << row.ToString();  // below the rule predicate
  }
  EXPECT_EQ(calls, 2u) << bundles[0].SlowQueryRecord();
  EXPECT_NE(bundles[0].SlowQueryRecord().find(" est=[Tf="), std::string::npos);
}

// One stream, two views: the caller's tracer and the bundle's ring slice
// receive the same events, so their Chrome traces are the same document.
TEST(Diagnostics, BundleTraceIsTheCallersTraceOfTheSameStream) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;
  options.slow_threshold_sim_ms = 1.0;  // capture every query
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());
  obs::Tracer tracer;
  QueryOptions query_options;
  query_options.tracer = &tracer;
  Result<QueryResult> res = med->Query(
      testbed::AppendixQuery(1, false, 1, 9000), query_options);
  ASSERT_TRUE(res.ok()) << res.status();

  std::vector<DebugBundle> bundles = med->diagnostics()->bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].events, tracer.events());
  EXPECT_EQ(bundles[0].chrome_trace, tracer.ToChromeJson());
  size_t calls = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.category == "domain-call") ++calls;
  }
  EXPECT_EQ(calls, res->execution.domain_calls);
}

uint64_t EstimatesTotal(Mediator& med) {
  return med.metrics()
      .GetOrAddCounter("hermes_dcsm_estimates_total", "")
      ->Value();
}

/// DCSM lookups made by one warm query3 CIM hit over frames [first, last],
/// with the optimizer and statistics off.
uint64_t LookupsPerHit(Mediator& med, int64_t first, int64_t last,
                       bool explain) {
  QueryOptions hit;
  hit.use_optimizer = false;
  hit.record_statistics = false;
  hit.explain = explain;
  const std::string query = testbed::AppendixQuery(3, false, first, last);
  EXPECT_TRUE(med.Query(query, hit).ok());  // warm the CIM
  const uint64_t before = EstimatesTotal(med);
  Result<QueryResult> res = med.Query(query, hit);
  EXPECT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->execution.domain_calls, 2u);
  return EstimatesTotal(med) - before;
}

// With diagnostics on, each call of a warm query3 CIM hit records exactly
// two events, its call span's, and the end event carries the hit's
// outcome; the cache-lookup span is derived from it at export.
TEST(Diagnostics, WarmCimHitRecordsTwoEventsPerCall) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnableDiagnostics({}).ok());
  QueryOptions hit;
  hit.use_optimizer = false;
  hit.record_statistics = false;
  const std::string query = testbed::AppendixQuery(3, false, 4, 47);
  ASSERT_TRUE(med->Query(query, hit).ok());  // warm the CIM
  Result<QueryResult> res = med->Query(query, hit);
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_GT(res->execution.domain_calls, 2u);

  std::vector<obs::FlightEvent> events =
      med->flight_recorder()->SnapshotQuery(res->query_id);
  uint64_t calls = 0;
  size_t call_events = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == obs::FlightEventKind::kCallCompleted) ++call_events;
    if (events[i].kind != obs::FlightEventKind::kCallIssued) continue;
    ++calls;
    ++call_events;
    ASSERT_LT(i + 1, events.size());
    const obs::FlightEvent& end = events[i + 1];
    EXPECT_EQ(end.kind, obs::FlightEventKind::kCallCompleted);
    EXPECT_EQ(end.begin_seq, events[i].seq);
    EXPECT_EQ(end.cache, obs::CacheLookup::kExactHit) << end.ToString();
    EXPECT_FALSE(end.degraded);
  }
  EXPECT_EQ(calls, res->execution.domain_calls);
  EXPECT_EQ(call_events, 2 * calls);
}

// Each call site is estimated once, as its op is compiled, and only when
// something reads the stamp. Drift observes every call against that stamp
// and EXPLAIN prints it, so neither adds a lookup of its own: a
// diagnostics-on hit costs one lookup per call site, whatever the number
// of calls.
TEST(Diagnostics, EachCallSiteIsEstimatedOncePerQuery) {
  std::unique_ptr<Mediator> plain = RopeMediator();
  EXPECT_EQ(LookupsPerHit(*plain, 4, 47, /*explain=*/false), 0u);
  EXPECT_EQ(LookupsPerHit(*plain, 4, 47, /*explain=*/true), 2u);

  std::unique_ptr<Mediator> diag = RopeMediator();
  ASSERT_TRUE(diag->EnableDiagnostics({}).ok());
  EXPECT_EQ(LookupsPerHit(*diag, 4, 47, /*explain=*/false), 2u);
  EXPECT_EQ(LookupsPerHit(*diag, 100, 4000, /*explain=*/false), 2u);
  EXPECT_EQ(LookupsPerHit(*diag, 4, 47, /*explain=*/true), 2u);
}

TEST(Diagnostics, UnremarkableQueriesAreNotCaptured) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;  // no threshold, no watermark
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  EXPECT_EQ(med->diagnostics()->captures(), 0u);
  // The recorder still has the query's events for on-demand inspection.
  EXPECT_GT(med->flight_recorder()->total_events(), 0u);
}

TEST(Diagnostics, PartialQueryCapturesWithCompletenessReason) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());
  // Outage covering the whole run: the video source is lost; with
  // partial_results the query completes partial and the policy captures.
  Result<net::FaultPlan> plan =
      net::FaultPlan::Parse("seed 7\noutage site=umd from=0 until=100000000\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(med->SetFaultPlan(std::move(plan).value()).ok());
  QueryOptions qopts;
  qopts.partial_results = true;
  Result<QueryResult> res =
      med->Query(testbed::AppendixQuery(1, false, 1, 9000), qopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res->completeness, QueryCompleteness::kPartial);
  std::vector<DebugBundle> bundles = med->diagnostics()->bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].reason, "partial");
  EXPECT_EQ(bundles[0].completeness, "partial");
}

TEST(Diagnostics, DriftGaugesMoveWhenLatencySkews) {
  std::unique_ptr<Mediator> med = RopeMediator(/*caching=*/false);
  DiagnosticsOptions options;
  options.drift.threshold = 0.5;
  options.drift.min_samples = 1;
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());

  // Warm-up: the first pass records statistics, so the second pass has
  // real (non-default) estimates to drift against.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  }
  dcsm::DriftReport calm = med->DriftReport();

  // ×8 latency on every link: observed Tf/Ta shoot past the estimates the
  // warm-up recorded.
  Result<net::FaultPlan> plan = net::FaultPlan::Parse(
      "seed 7\nlatency site=* factor=8 from=0 until=100000000\n");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(med->SetFaultPlan(std::move(plan).value()).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  }

  dcsm::DriftTracker* drift = med->drift_tracker();
  ASSERT_NE(drift, nullptr);
  EXPECT_GT(drift->observations(), 0u);
  dcsm::DriftReport skewed = med->DriftReport();
  ASSERT_FALSE(skewed.entries.empty());
  double max_ta = 0.0;
  for (const dcsm::DriftEntry& e : skewed.entries) {
    max_ta = std::max(max_ta, e.ewma_ta);
  }
  double calm_max_ta = 0.0;
  for (const dcsm::DriftEntry& e : calm.entries) {
    calm_max_ta = std::max(calm_max_ta, e.ewma_ta);
  }
  EXPECT_GT(max_ta, calm_max_ta);
  EXPECT_FALSE(skewed.Exceeded().empty());
  EXPECT_GT(drift->exceeded_events(), 0u);

  std::string prom = med->metrics().ExposePrometheus();
  EXPECT_NE(prom.find("hermes_dcsm_drift{"), std::string::npos);
  EXPECT_NE(prom.find("dim=\"ta\""), std::string::npos);
  EXPECT_NE(prom.find("hermes_dcsm_drift_exceeded_total"), std::string::npos);
}

TEST(Diagnostics, DumpWritesTheOnDemandSnapshot) {
  std::unique_ptr<Mediator> med = RopeMediator();
  ASSERT_TRUE(med->EnableDiagnostics({}).ok());
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  std::string dir = TempDir("diag_dump");
  ASSERT_TRUE(med->DumpDiagnostics(dir).ok());
  for (const char* file :
       {"events.json", "metrics.prom", "drift.txt", "slow_queries.log"}) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / file))
        << file;
  }
  Result<std::string> events =
      ReadFileToString((std::filesystem::path(dir) / "events.json").string());
  ASSERT_TRUE(events.ok());
  EXPECT_NE(events->find("\"kind\":\"query_start\""), std::string::npos);
  EXPECT_NE(events->find("\"kind\":\"call_issued\""), std::string::npos);
}

TEST(Diagnostics, SlowLogRotatesBySizeInsteadOfGrowingUnbounded) {
  std::unique_ptr<Mediator> med = RopeMediator();
  DiagnosticsOptions options;
  options.slow_threshold_sim_ms = 1.0;  // everything is "slow"
  options.bundle_dir = TempDir("diag_rotate");
  options.slow_log_max_bytes = 600;  // a couple of records per generation
  options.max_bundles = 2;           // rotation is the subject, not bundles
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());
  }

  std::filesystem::path log =
      std::filesystem::path(options.bundle_dir) / "slow_queries.log";
  std::filesystem::path rotated(log.string() + ".1");
  ASSERT_TRUE(std::filesystem::exists(log));
  // A capture storm rolled the log into its single predecessor generation —
  // the pair bounds total disk at roughly twice the configured cap.
  EXPECT_TRUE(std::filesystem::exists(rotated));
  EXPECT_GT(std::filesystem::file_size(rotated), 0u);
  // The live generation stays within one record of the cap.
  Result<std::string> live = ReadFileToString(log.string());
  ASSERT_TRUE(live.ok());
  EXPECT_NE(live->find("slow-query q"), std::string::npos);

  // The in-memory ring is bounded independently of the files.
  EXPECT_EQ(med->diagnostics()->captures(), 10u);
  EXPECT_LE(med->diagnostics()->bundles().size(), options.max_bundles);
}

TEST(Diagnostics, BrownoutTransitionsCaptureCrossQueryBundles) {
  std::unique_ptr<Mediator> med = RopeMediator();
  // A hair-trigger ladder the test can walk by hand.
  overload::BrownoutController::Options ladder;
  ladder.window_events = 4;
  ladder.up_threshold = 0.5;
  ladder.ewma_alpha = 1.0;
  ladder.min_dwell_windows = 0;
  ASSERT_TRUE(med->EnableOverloadControl({}, ladder).ok());
  DiagnosticsOptions options;
  options.bundle_dir = TempDir("diag_brownout");
  ASSERT_TRUE(med->EnableDiagnostics(options).ok());

  // A real query first, so the cross-query event snapshot has content.
  ASSERT_TRUE(med->Query(testbed::AppendixQuery(1, false, 1, 9000), {}).ok());

  overload::BrownoutController* brownout = med->brownout();
  ASSERT_NE(brownout, nullptr);
  while (brownout->level() < overload::BrownoutController::kNoHedge) {
    brownout->RecordOutcome(true);
  }
  ASSERT_GE(brownout->transitions(), 1u);

  DiagnosticsCenter* diag = med->diagnostics();
  std::vector<DebugBundle> bundles = diag->bundles();
  ASSERT_FALSE(bundles.empty());
  const DebugBundle& bundle = bundles.back();
  EXPECT_EQ(bundle.reason, "brownout-transition");
  EXPECT_NE(bundle.query_text.find("normal -> no_hedge"), std::string::npos)
      << bundle.query_text;
  // No single query owns a ladder transition: the bundle snapshots the
  // recorder's resident events and the metrics at the instant it fired.
  EXPECT_FALSE(bundle.events.empty());
  EXPECT_NE(bundle.prometheus.find("hermes_overload_brownout_level"),
            std::string::npos);
  // Persisted beside the slow log, which records the transition too.
  ASSERT_FALSE(bundle.dir.empty());
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(bundle.dir) / "manifest.json"));
  Result<std::string> log = ReadFileToString(
      (std::filesystem::path(options.bundle_dir) / "slow_queries.log")
          .string());
  ASSERT_TRUE(log.ok());
  EXPECT_NE(log->find("reason=brownout-transition"), std::string::npos);
}

TEST(Diagnostics, DumpRequiresEnableDiagnostics) {
  std::unique_ptr<Mediator> med = RopeMediator();
  Status st = med->DumpDiagnostics(TempDir("diag_never"));
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
}

}  // namespace
}  // namespace hermes
