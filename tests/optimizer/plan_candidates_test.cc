// Candidate-list golden: every plan the optimizer considers for the paper's
// six appendix queries over a warmed rope testbed, with CIM redirection on
// and off and for both optimization goals. Each candidate is rendered with
// its description, feasibility, estimated Tf/Ta/card, estimation time, its
// query goals and the bodies of the rules its query reaches, followed by
// the chosen plan. Regenerate after an intentional change to plan
// enumeration or costing with:
//
//   HERMES_UPDATE_GOLDENS=1 ./tests/optimizer_plan_candidates_test
//
// The other tests check that the query path, which materializes only the
// chosen plan, agrees with Plan() on the same cases, and count the DCSM
// lookups one Plan() makes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "engine/mediator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Rules of `plan.program` whose heads the plan's query goals reach,
/// directly or through other rule bodies, in program order.
std::vector<const lang::Rule*> ReachedRules(
    const optimizer::CandidatePlan& plan) {
  std::set<std::pair<std::string, size_t>> reached;
  std::vector<const lang::Atom*> frontier;
  for (const lang::Atom& goal : plan.query.goals) frontier.push_back(&goal);
  while (!frontier.empty()) {
    const lang::Atom* atom = frontier.back();
    frontier.pop_back();
    if (!atom->is_predicate() ||
        !reached.insert({atom->predicate, atom->args.size()}).second) {
      continue;
    }
    for (const lang::Rule& rule : plan.program.rules) {
      if (rule.head.predicate != atom->predicate ||
          rule.head.args.size() != atom->args.size()) {
        continue;
      }
      for (const lang::Atom& body_atom : rule.body) {
        frontier.push_back(&body_atom);
      }
    }
  }
  std::vector<const lang::Rule*> out;
  for (const lang::Rule& rule : plan.program.rules) {
    if (reached.count({rule.head.predicate, rule.head.args.size()}) > 0) {
      out.push_back(&rule);
    }
  }
  return out;
}

std::string RenderCandidate(const optimizer::CandidatePlan& plan) {
  std::string out = "candidate " + plan.description +
                    " estimatable=" + (plan.estimatable ? "true" : "false") +
                    " tf=" + Num(plan.estimated.t_first_ms) +
                    " ta=" + Num(plan.estimated.t_all_ms) +
                    " card=" + Num(plan.estimated.cardinality) +
                    " estimation_ms=" + Num(plan.estimation_ms) + "\n";
  out += "  " + plan.query.ToString() + "\n";
  for (const lang::Rule* rule : ReachedRules(plan)) {
    out += "  " + rule->ToString() + "\n";
  }
  return out;
}

/// Runs a fixed sequence of as-written queries, with and without CIM
/// redirection, so the DCSM holds distinct statistics for the direct and
/// the cached call patterns.
void Warm(Mediator* med) {
  const std::pair<int64_t, int64_t> windows[] = {
      {4, 47}, {100, 2000}, {5000, 9000}};
  for (bool use_cim : {true, false}) {
    QueryOptions options;
    options.use_optimizer = false;
    options.use_cim = use_cim;
    for (auto [first, last] : windows) {
      for (int number = 1; number <= 4; ++number) {
        for (bool primed : {false, true}) {
          if (primed && number > 2) continue;
          Result<QueryResult> res = med->Query(
              testbed::AppendixQuery(number, primed, first, last), options);
          ASSERT_TRUE(res.ok()) << res.status();
        }
      }
    }
  }
}

/// Calls `fn(query, options)` for each of the golden's 24 cases: every
/// appendix query over frames 10..300, CIM on and off, both goals.
template <typename Fn>
void ForEachGoldenCase(Fn&& fn) {
  for (int number = 1; number <= 4; ++number) {
    for (bool primed : {false, true}) {
      if (primed && number > 2) continue;
      const std::string query =
          testbed::AppendixQuery(number, primed, 10, 300);
      for (bool use_cim : {true, false}) {
        for (optimizer::OptimizationGoal goal :
             {optimizer::OptimizationGoal::kAllAnswers,
              optimizer::OptimizationGoal::kFirstAnswer}) {
          QueryOptions options;
          options.use_cim = use_cim;
          options.goal = goal;
          fn(query, options);
        }
      }
    }
  }
}

TEST(PlanCandidatesGolden, AppendixQueriesMatchGolden) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  Warm(&med);

  std::string actual;
  ForEachGoldenCase([&](const std::string& query,
                        const QueryOptions& options) {
    Result<optimizer::OptimizerResult> planned = med.Plan(query, options);
    ASSERT_TRUE(planned.ok()) << query << ": " << planned.status();
    actual += "== " + query + " cim=" + (options.use_cim ? "on" : "off") +
              " goal=" +
              (options.goal == optimizer::OptimizationGoal::kAllAnswers
                   ? "all"
                   : "first") +
              " candidates=" + std::to_string(planned->candidates.size()) +
              " total_estimation_ms=" + Num(planned->total_estimation_ms) +
              "\n";
    for (const optimizer::CandidatePlan& c : planned->candidates) {
      actual += RenderCandidate(c);
    }
    actual += "chosen " + RenderCandidate(planned->best);
  });

  const std::string path =
      std::string(HERMES_TEST_SRCDIR) + "/golden/plan_candidates_appendix.txt";
  if (std::getenv("HERMES_UPDATE_GOLDENS") != nullptr) {
    ASSERT_TRUE(WriteStringToFile(path, actual).ok());
    GTEST_SKIP() << "golden updated: " << path;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok()) << "missing golden " << path
                             << " (run with HERMES_UPDATE_GOLDENS=1)";
  EXPECT_EQ(*expected, actual) << "candidate list drifted from " << path
                               << "; regenerate with HERMES_UPDATE_GOLDENS=1 "
                                  "if the change is intentional";
}

// The query path materializes only the chosen plan. It must still choose
// and report exactly what Plan() does: the same plan, prediction and
// optimizer time, and one summary per candidate in the same order.
// record_statistics=false keeps the DCSM the same for both calls, and with
// no plan memo every Query plans afresh.
TEST(PlanCandidatesTest, QueryPicksWhatPlanPicks) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  Warm(&med);

  ForEachGoldenCase([&](const std::string& query, QueryOptions options) {
    options.record_statistics = false;
    Result<optimizer::OptimizerResult> planned = med.Plan(query, options);
    Result<QueryResult> res = med.Query(query, options);
    ASSERT_TRUE(planned.ok()) << query << ": " << planned.status();
    ASSERT_TRUE(res.ok()) << query << ": " << res.status();
    ASSERT_FALSE(res->plan_cache_hit);
    EXPECT_EQ(res->plan_description, planned->best.description) << query;
    EXPECT_TRUE(res->predicted_valid) << query;
    EXPECT_EQ(res->predicted, planned->best.estimated) << query;
    EXPECT_EQ(res->optimize_ms, planned->total_estimation_ms) << query;
    ASSERT_EQ(res->candidates.size(), planned->candidates.size()) << query;
    for (size_t k = 0; k < res->candidates.size(); ++k) {
      const optimizer::CandidateSummary& lean = res->candidates[k];
      const optimizer::CandidatePlan& full = planned->candidates[k];
      EXPECT_EQ(lean.description, full.description) << query;
      EXPECT_EQ(lean.estimatable, full.estimatable) << query;
      EXPECT_EQ(lean.estimated, full.estimated) << query;
      EXPECT_EQ(lean.estimation_ms, full.estimation_ms) << query;
    }
  });
}

uint64_t EstimatesTotal(Mediator& med) {
  return med.metrics()
      .GetOrAddCounter("hermes_dcsm_estimates_total", "")
      ->Value();
}

// One Optimize asks the DCSM once per distinct call pattern, however many
// candidates price it; each use still charges the simulated lookup time.
TEST(PlanCandidatesTest, PlanAsksTheDcsmOncePerDistinctPattern) {
  Mediator med;
  ASSERT_TRUE(testbed::SetupRopeScenario(&med, {}).ok());
  for (auto [number, lookups] : {std::pair{4, 4u}, std::pair{2, 6u}}) {
    const uint64_t before = EstimatesTotal(med);
    Result<optimizer::OptimizerResult> planned =
        med.Plan(testbed::AppendixQuery(number, false, 10, 300), {});
    ASSERT_TRUE(planned.ok()) << planned.status();
    EXPECT_EQ(EstimatesTotal(med) - before, lookups) << "query" << number;
  }
}

}  // namespace
}  // namespace hermes
