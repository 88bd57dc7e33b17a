#include "experiments/claims.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/mediator.h"
#include "lang/parser.h"
#include "optimizer/estimator.h"
#include "optimizer/rewriter.h"
#include "testbed/scenario.h"

namespace hermes::experiments {

namespace {

struct Pair {
  std::string label;
  int number_a;
  bool primed_a;
  int number_b;
  bool primed_b;
  /// Plan B is the CIM-redirected rewriting of the same query; it is
  /// warmed `warm_b` times before prediction so the statistics cache has
  /// seen the cached path (this is where large, reliable predicted margins
  /// come from).
  bool via_cim_b = false;
  int warm_b = 0;
};

std::vector<Pair> Pairs() {
  return {{"query1 vs query1'", 1, false, 1, true, false, 0},
          {"query2 vs query2'", 2, false, 2, true, false, 0},
          {"query3 vs query4", 3, false, 4, false, false, 0},
          {"query3 vs query3+cim", 3, false, 3, false, true, 3}};
}

std::vector<std::pair<int64_t, int64_t>> Grid() {
  return {{1, 20},  {4, 47},   {4, 127},  {1, 500},   {40, 900},
          {1, 2500}, {30, 4700}, {1, 9000}, {100, 8200}, {4, 60}};
}

Result<optimizer::RuleCostEstimator::Estimate> Predict(
    dcsm::Dcsm* dcsm, const lang::Program& program,
    const std::string& query_text, bool via_cim = false,
    const std::vector<std::string>& cim_domains = {}) {
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  lang::Program plan_program = program;
  if (via_cim) {
    optimizer::RuleRewriter::RedirectToCim(&query.goals, cim_domains);
    for (lang::Rule& rule : plan_program.rules) {
      optimizer::RuleRewriter::RedirectToCim(&rule.body, cim_domains);
    }
  }
  optimizer::RuleCostEstimator estimator(dcsm);
  return estimator.EstimateBody(plan_program, query.goals);
}

}  // namespace

double PlanChoicePoint::PredictedFirstMargin() const {
  double hi = std::max(predicted_a_first, predicted_b_first);
  if (hi <= 0) return 0.0;
  return std::fabs(predicted_a_first - predicted_b_first) / hi;
}

Result<std::vector<PlanChoicePoint>> RunPlanChoice(uint64_t seed) {
  Mediator med(seed);
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::UsaSite("umd");
  options.sites.relation_site = net::UsaSite("cornell");
  // Caching stays available for the CIM-redirected pair; the direct pairs
  // bypass it (use_cim=false never routes through the wrappers).
  options.enable_caching = true;
  options.add_frame_invariants = false;
  HERMES_RETURN_IF_ERROR(testbed::SetupRopeScenario(&med, options));
  std::vector<std::string> cim_domains = med.CachedDomains();

  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;

  QueryOptions via_cim;
  via_cim.use_optimizer = false;
  via_cim.use_cim = true;

  std::vector<PlanChoicePoint> points;
  for (const auto& [first, last] : Grid()) {
    for (const Pair& pair : Pairs()) {
      std::string qa = testbed::AppendixQuery(pair.number_a, pair.primed_a,
                                              first, last);
      std::string qb = testbed::AppendixQuery(pair.number_b, pair.primed_b,
                                              first, last);
      PlanChoicePoint point;
      point.pair_label = pair.label;
      point.first_frame = first;
      point.last_frame = last;

      // For the CIM pair, let the statistics cache see the cached path
      // first (a miss, then hits) so the DCSM has something to predict
      // from.
      if (pair.via_cim_b) {
        for (int w = 0; w < pair.warm_b; ++w) {
          HERMES_RETURN_IF_ERROR(med.Query(qb, via_cim).status());
        }
      }

      // Predict both plans from the statistics accumulated so far (the
      // sweep itself warms the DCSM online — early points rely on
      // defaults/relaxation, later ones on richer statistics, exactly the
      // operational regime the paper describes).
      HERMES_ASSIGN_OR_RETURN(auto pa, Predict(&med.dcsm(), med.program(), qa));
      HERMES_ASSIGN_OR_RETURN(auto pb,
                              Predict(&med.dcsm(), med.program(), qb,
                                      pair.via_cim_b, cim_domains));
      point.predicted_a_all = pa.cost.t_all_ms;
      point.predicted_b_all = pb.cost.t_all_ms;
      point.predicted_a_first = pa.cost.t_first_ms;
      point.predicted_b_first = pb.cost.t_first_ms;

      // Execute both.
      HERMES_ASSIGN_OR_RETURN(QueryResult ra, med.Query(qa, direct));
      HERMES_ASSIGN_OR_RETURN(
          QueryResult rb, med.Query(qb, pair.via_cim_b ? via_cim : direct));
      point.actual_a_all = ra.execution.t_all_ms;
      point.actual_b_all = rb.execution.t_all_ms;
      point.actual_a_first = ra.execution.t_first_ms;
      point.actual_b_first = rb.execution.t_first_ms;

      points.push_back(point);
    }
  }
  return points;
}

PlanChoiceSummary SummarizePlanChoice(
    const std::vector<PlanChoicePoint>& points) {
  PlanChoiceSummary summary;
  summary.points = points.size();
  size_t all_correct = 0, big_correct = 0, small_correct = 0;
  for (const PlanChoicePoint& point : points) {
    if (point.PredictedWinnerCorrectAll()) ++all_correct;
    if (point.PredictedFirstMargin() >= 0.5) {
      ++summary.big_margin_points;
      if (point.PredictedWinnerCorrectFirst()) ++big_correct;
    } else {
      ++summary.small_margin_points;
      if (point.PredictedWinnerCorrectFirst()) ++small_correct;
    }
  }
  if (summary.points > 0) {
    summary.all_answers_accuracy =
        static_cast<double>(all_correct) / summary.points;
  }
  if (summary.big_margin_points > 0) {
    summary.first_big_margin_accuracy =
        static_cast<double>(big_correct) / summary.big_margin_points;
  }
  if (summary.small_margin_points > 0) {
    summary.first_small_margin_accuracy =
        static_cast<double>(small_correct) / summary.small_margin_points;
  }
  return summary;
}

std::string RenderPlanChoice(const std::vector<PlanChoicePoint>& points) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-20s %-12s %12s %12s %12s %12s %5s\n",
                "Pair", "Range", "pred A (Ta)", "pred B (Ta)", "act A (Ta)",
                "act B (Ta)", "ok?");
  out += buf;
  out += std::string(92, '-') + "\n";
  for (const PlanChoicePoint& p : points) {
    std::string range = "[" + std::to_string(p.first_frame) + "," +
                        std::to_string(p.last_frame) + "]";
    std::snprintf(buf, sizeof(buf),
                  "%-20s %-12s %12.0f %12.0f %12.0f %12.0f %5s\n",
                  p.pair_label.c_str(), range.c_str(), p.predicted_a_all,
                  p.predicted_b_all, p.actual_a_all, p.actual_b_all,
                  p.PredictedWinnerCorrectAll() ? "yes" : "NO");
    out += buf;
  }
  PlanChoiceSummary s = SummarizePlanChoice(points);
  std::snprintf(buf, sizeof(buf),
                "\nall-answers winner accuracy: %.0f%% (%zu points)\n"
                "first-answer accuracy, margin >= 50%%: %.0f%% (%zu points)\n"
                "first-answer accuracy, margin <  50%%: %.0f%% (%zu points)\n",
                100 * s.all_answers_accuracy, s.points,
                100 * s.first_big_margin_accuracy, s.big_margin_points,
                100 * s.first_small_margin_accuracy, s.small_margin_points);
  out += buf;
  return out;
}

}  // namespace hermes::experiments
