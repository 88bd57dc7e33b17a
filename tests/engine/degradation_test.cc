// End-to-end coverage of the degradation ladder: a query whose sources die
// terminates with structured completeness — never hangs, crashes, or
// silently pretends to be complete.

#include <gtest/gtest.h>

#include <string>

#include "engine/mediator.h"
#include "net/faults/fault_plan.h"
#include "obs/flight_recorder.h"
#include "relational/relational_domain.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

/// Value of the first exposition sample whose line starts with `prefix`
/// (family name, optionally with a label block), or -1 when absent.
double MetricValue(const std::string& prom, const std::string& prefix) {
  size_t pos = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    std::string line = prom.substr(pos, eol - pos);
    if (line.rfind(prefix, 0) == 0) {
      size_t space = line.rfind(' ');
      if (space != std::string::npos) {
        return std::stod(line.substr(space + 1));
      }
    }
    pos = eol + 1;
  }
  return -1.0;
}

net::FaultPlan MustParse(const std::string& text) {
  Result<net::FaultPlan> plan = net::FaultPlan::Parse(text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return std::move(plan).value();
}

QueryOptions RawQuery() {
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  return options;
}

testbed::RopeScenarioOptions DeadVideoSite() {
  testbed::RopeScenarioOptions options;
  options.sites.video_site.availability = 0.0;
  options.enable_caching = false;
  return options;
}

// ---- Satellite: the pre-existing unavailability path -----------------------

TEST(DegradationTest, QueryOverDownSiteTerminatesWithUnavailable) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, DeadVideoSite()).ok());
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), RawQuery());
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsUnavailable()) << res.status();
  EXPECT_NE(res.status().message().find("umd"), std::string::npos)
      << res.status();
}

TEST(DegradationTest, FailedQueriesStillCountInTheLayerSeries) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, DeadVideoSite()).ok());
  const net::NetworkInterceptor* link = med.remote_link("video");
  ASSERT_NE(link, nullptr);
  ASSERT_FALSE(
      med.Query(testbed::AppendixQuery(3, false, 4, 47), RawQuery()).ok());
  // The failed query returned no metrics, yet the calls it lost happened:
  // the link that observed them counted them in its own series.
  const uint64_t lost_by_failed_query = link->failures().Value();
  EXPECT_GT(lost_by_failed_query, 0u);
  std::string prom = med.metrics().ExposePrometheus();
  EXPECT_EQ(MetricValue(prom, "hermes_site_failures_total{site=\"umd\","
                              "domain=\"video\"} "),
            static_cast<double>(lost_by_failed_query));
  EXPECT_EQ(MetricValue(prom, "hermes_query_failures_total "), 1.0);

  // The same query with partial results completes, and the failures it
  // reports are exactly what the link counted while it ran.
  QueryOptions partial = RawQuery();
  partial.partial_results = true;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), partial);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_GT(res->metrics.remote_failures, 0u);
  EXPECT_EQ(res->metrics.remote_failures,
            link->failures().Value() - lost_by_failed_query);
}

// ---- Partial results: losing a source is reported, not fatal ---------------

TEST(DegradationTest, PartialResultsNameTheLostSource) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, DeadVideoSite()).ok());
  QueryOptions options = RawQuery();
  options.partial_results = true;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->completeness, QueryCompleteness::kPartial);
  EXPECT_FALSE(res->execution.complete);
  EXPECT_TRUE(res->execution.answers.empty());  // the join lost its input
  ASSERT_FALSE(res->lost_sources.empty());
  EXPECT_EQ(res->lost_sources[0].site, "umd");
  EXPECT_EQ(res->lost_sources[0].domain, "video");
  EXPECT_FALSE(res->lost_sources[0].masked);
}

TEST(DegradationTest, QueryDeadlineYieldsPartialAnswersAtTheDeadline) {
  Mediator med;  // default (slow) transatlantic sites
  ASSERT_TRUE(
      testbed::SetupRopeScenario(&med, testbed::RopeScenarioOptions{}).ok());
  QueryOptions options = RawQuery();
  options.deadline_ms = 1000.0;  // the cold query needs ~8.5 simulated s
  Result<QueryResult> strict = med.Query(
      testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsDeadlineExceeded()) << strict.status();

  options.partial_results = true;
  Result<QueryResult> partial = med.Query(
      testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->completeness, QueryCompleteness::kPartial);
  EXPECT_FALSE(partial->execution.complete);
  EXPECT_GT(partial->metrics.deadline_aborts, 0u);
  // The clock stops at the deadline: answers in flight are cut off there.
  EXPECT_DOUBLE_EQ(partial->execution.t_all_ms, 1000.0);
}

// ---- Degraded: the CIM masks an outage with cached material ----------------

TEST(DegradationTest, StaleCacheMasksAnOutageAsDegraded) {
  testbed::RopeScenarioOptions scenario;  // caching + frame invariants on
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, scenario).ok());
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = true;
  // Warm the CIM with a narrower frame range than we will ask for.
  Result<QueryResult> warm =
      med.Query(testbed::AppendixQuery(3, false, 4, 40), options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->completeness, QueryCompleteness::kComplete);

  // Now the video site goes dark. The wider query gets a subset-invariant
  // (partial) hit; completing it needs the source, which fails — the CIM
  // serves the partial answers marked degraded instead.
  ASSERT_TRUE(med.SetFaultPlan(MustParse("outage site=umd\n")).ok());
  options.partial_results = true;
  Result<QueryResult> masked =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(masked.ok()) << masked.status();
  EXPECT_EQ(masked->completeness, QueryCompleteness::kDegraded);
  EXPECT_FALSE(masked->execution.answers.empty());  // cached material served
  EXPECT_GT(masked->metrics.degraded_calls, 0u);
  ASSERT_FALSE(masked->lost_sources.empty());
  EXPECT_EQ(masked->lost_sources[0].site, "umd");
  EXPECT_TRUE(masked->lost_sources[0].masked);

  // Lifting the fault plan restores complete service.
  ASSERT_TRUE(med.SetFaultPlan(net::FaultPlan{}).ok());
  Result<QueryResult> healed =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->completeness, QueryCompleteness::kComplete);
}

// ---- Retries: backoff rides out an outage window ---------------------------

TEST(DegradationTest, RetriesRideOutAnOutageWindowDeterministically) {
  auto run = [](uint64_t /*tag*/) {
    Mediator med;
    testbed::RopeScenarioOptions scenario;
    scenario.enable_caching = false;
    EXPECT_TRUE(testbed::SetupRopeScenario(&med, scenario).ok());
    resilience::ResiliencePolicy policy;
    policy.retry.max_retries = 3;
    EXPECT_TRUE(med.SetResiliencePolicy("video", policy).ok());
    EXPECT_TRUE(med.SetResiliencePolicy("relation", policy).ok());
    EXPECT_TRUE(
        med.SetFaultPlan(net::FaultPlan::Parse("outage site=umd until=3000\n")
                             .value())
            .ok());
    return med.Query(testbed::AppendixQuery(3, false, 4, 47), RawQuery());
  };
  Result<QueryResult> first = run(1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->completeness, QueryCompleteness::kComplete);
  EXPECT_EQ(first->execution.answers.size(), 5u);
  EXPECT_GT(first->metrics.retries, 0u);
  EXPECT_GT(first->metrics.retry_backoff_ms, 0.0);

  // Same seeds, fresh mediator: the whole retry/backoff schedule replays
  // bit-identically.
  Result<QueryResult> second = run(2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->metrics.retries, first->metrics.retries);
  EXPECT_DOUBLE_EQ(second->metrics.retry_backoff_ms,
                   first->metrics.retry_backoff_ms);
  EXPECT_DOUBLE_EQ(second->execution.t_all_ms, first->execution.t_all_ms);
}

// ---- Breaker: sustained failure sheds load ---------------------------------

TEST(DegradationTest, BreakerShedsLoadOffAStrugglingSite) {
  Mediator med;
  testbed::RopeScenarioOptions scenario;
  scenario.sites.relation_site.availability = 0.0;  // cornell is down
  scenario.enable_caching = false;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, scenario).ok());
  resilience::ResiliencePolicy policy;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 2;
  policy.breaker.probe_interval = 100;  // no probe within this query
  ASSERT_TRUE(med.SetResiliencePolicy("relation", policy).ok());

  // query3 raw: one video call feeding 7 per-object relation calls, all of
  // which hit the dead site. The breaker trips after 2 and sheds the rest.
  QueryOptions options = RawQuery();
  options.partial_results = true;
  Result<QueryResult> res =
      med.Query(testbed::AppendixQuery(3, false, 4, 47), options);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->completeness, QueryCompleteness::kPartial);
  EXPECT_EQ(res->metrics.breaker_shed, 5u);
  // Only the 2 tripping attempts reached the network (plus the video call).
  EXPECT_EQ(res->metrics.remote_calls, 3u);
  EXPECT_EQ(res->metrics.remote_failures, 2u);
  bool named = false;
  for (const SourceError& lost : res->lost_sources) {
    named = named || (lost.site == "cornell" && lost.domain == "relation");
  }
  EXPECT_TRUE(named);

  // The shedding is visible on the process-level resilience series.
  std::string prom = med.metrics().ExposePrometheus();
  EXPECT_EQ(MetricValue(prom,
                        "hermes_resilience_breaker_shed_total"
                        "{site=\"cornell\",domain=\"relation\"} "),
            5.0);
  EXPECT_EQ(
      MetricValue(prom,
                  "hermes_resilience_breaker_transitions_total"
                  "{site=\"cornell\",domain=\"relation\",to=\"open\"} "),
      1.0);
}

// ---- Failover: an alternate source answers for a dead primary --------------

/// Minimal remote source for the failover test: vals(k) → {tag}.
class TaggedDomain : public Domain {
 public:
  TaggedDomain(std::string name, std::string tag)
      : name_(std::move(name)), tag_(std::move(tag)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"vals", 1, "vals(k): {tag}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    if (call.function != "vals") {
      return Status::NotFound("no function " + call.function);
    }
    CallOutput out;
    out.answers = {Value::Str(tag_)};
    out.first_ms = out.all_ms = 1.0;
    return out;
  }

 private:
  std::string name_;
  std::string tag_;
};

TEST(DegradationTest, FailoverReroutesToTheAlternateSite) {
  Mediator med;
  net::SiteParams dead = net::UsaSite("deadsite");
  dead.availability = 0.0;
  ASSERT_TRUE(med.RegisterRemoteDomain(
                     "prim", std::make_shared<TaggedDomain>("prim", "primary"),
                     dead)
                  .ok());
  ASSERT_TRUE(med.RegisterRemoteDomain(
                     "alt", std::make_shared<TaggedDomain>("alt", "alternate"),
                     net::UsaSite("mirror"))
                  .ok());
  ASSERT_TRUE(med.AddFailover("prim", "alt").ok());
  // An alternate missing the primary's functions is rejected at wiring.
  ASSERT_TRUE(med.RegisterRemoteDomain(
                     "other",
                     std::make_shared<TaggedDomain>("other", "other"),
                     net::UsaSite("elsewhere"))
                  .ok());
  EXPECT_FALSE(med.AddFailover("relation_free_name", "alt").ok());
  ASSERT_TRUE(med.LoadProgram("q(X) :- in(X, prim:vals(1)).").ok());

  Result<QueryResult> res = med.Query("?- q(X).", RawQuery());
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_EQ(res->execution.answers.size(), 1u);
  ASSERT_EQ(res->execution.answers[0].size(), 1u);
  EXPECT_EQ(res->execution.answers[0][0], Value::Str("alternate"));
  // The failover made the query whole: nothing lost, nothing degraded.
  EXPECT_EQ(res->completeness, QueryCompleteness::kComplete);
  EXPECT_EQ(res->metrics.failovers, 1u);
  EXPECT_EQ(MetricValue(med.metrics().ExposePrometheus(),
                        "hermes_resilience_failovers_total"
                        "{site=\"deadsite\",domain=\"prim\"} "),
            1.0);
}

// Failure attribution is scoped to one call: a call that fails inside its
// own domain must not report the site and cause of an earlier call that
// was lost to an outage.
TEST(DegradationTest, FailedCallDoesNotInheritAnEarlierCallsFailureSite) {
  Mediator med;
  net::SiteParams down = net::UsaSite("down_site");
  down.availability = 0.0;
  auto r1 = std::make_shared<relational::RelationalDomain>(
      "r1", testbed::MakeCastDatabase());
  auto r2 = std::make_shared<relational::RelationalDomain>(
      "r2", testbed::MakeCastDatabase());
  ASSERT_TRUE(med.RegisterRemoteDomain("r1", r1, down).ok());
  ASSERT_TRUE(
      med.RegisterRemoteDomain("r2", r2, net::UsaSite("up_site")).ok());
  ASSERT_TRUE(med.LoadProgram("q(X) :- in(X, r1:all('cast')).\n"
                              "q(X) :- in(X, r2:all('no_such_table')).")
                  .ok());
  ASSERT_TRUE(med.EnableDiagnostics({}).ok());

  QueryOptions options = RawQuery();
  options.partial_results = true;
  options.query_id = 77;
  Result<QueryResult> res = med.Query("?- q(X).", options);
  EXPECT_FALSE(res.ok());  // a missing table is an error, not a lost source

  std::vector<std::string> failures;
  for (const obs::FlightEvent& ev : med.flight_recorder()->SnapshotQuery(77)) {
    if (ev.kind != obs::FlightEventKind::kCallFailed) continue;
    failures.push_back(ev.domain_str() + " site=" + ev.site_str() +
                       " detail=" + ev.detail_str());
  }
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0], "r1 site=down_site detail=unavailable");
  EXPECT_EQ(failures[1], "r2 site= detail=error");
}

}  // namespace
}  // namespace hermes
