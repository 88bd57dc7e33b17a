#include "experiments/fig6.h"

#include <cmath>
#include <cstdio>

#include "engine/mediator.h"
#include "lang/parser.h"
#include "optimizer/estimator.h"
#include "testbed/scenario.h"

namespace hermes::experiments {

namespace {

struct QueryShape {
  std::string label;
  int number;
  bool primed;
};

std::vector<QueryShape> Shapes() {
  return {{"query1", 1, false}, {"query1'", 1, true}, {"query2", 2, false},
          {"query2'", 2, true}, {"query3", 3, false}, {"query4", 4, false}};
}

/// Frame-range instantiations used to warm the cost vector database
/// (≈20 distinct argument bindings per domain call, per the paper).
std::vector<std::pair<int64_t, int64_t>> WarmRanges() {
  return {{1, 20},    {4, 47},    {1, 100},  {40, 127},  {4, 127},
          {100, 900}, {1, 500},   {30, 60},  {4, 2000},  {1, 9000},
          {500, 800}, {2000, 3000}, {1, 47}, {10, 127},  {4, 500},
          {1, 2500},  {120, 900}, {4, 8200}, {47, 4700}, {1, 130}};
}

Result<optimizer::RuleCostEstimator::Estimate> PredictAsWritten(
    const Mediator& med_const, dcsm::Dcsm* dcsm, const lang::Program& program,
    const std::string& query_text) {
  (void)med_const;
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  optimizer::RuleCostEstimator estimator(dcsm);
  return estimator.EstimateBody(program, query.goals);
}

}  // namespace

Result<std::vector<Fig6Row>> RunFig6(uint64_t seed) {
  Mediator med(seed);
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::UsaSite("umd");
  options.sites.relation_site = net::UsaSite("cornell");
  options.enable_caching = false;  // Figure 6 studies DCSM, not CIM.
  HERMES_RETURN_IF_ERROR(testbed::SetupRopeScenario(&med, options));

  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;

  // Phase 1: statistics gathering over the warm ranges.
  for (const auto& [first, last] : WarmRanges()) {
    for (const QueryShape& shape : Shapes()) {
      HERMES_RETURN_IF_ERROR(
          med.Query(testbed::AppendixQuery(shape.number, shape.primed, first,
                                           last),
                    direct)
              .status());
    }
  }

  std::vector<Fig6Row> rows;
  constexpr int64_t kFirst = 4, kLast = 47;
  for (const QueryShape& shape : Shapes()) {
    std::string query_text =
        testbed::AppendixQuery(shape.number, shape.primed, kFirst, kLast);
    Fig6Row row;
    row.query = shape.label;

    // (a) Lossless prediction: raw cost vector database + lossless
    // summaries.
    med.dcsm().ClearSummaries();
    HERMES_RETURN_IF_ERROR(med.dcsm().BuildLosslessSummaries());
    med.dcsm().options().use_raw_database = true;
    med.dcsm().options().use_summaries = true;
    HERMES_ASSIGN_OR_RETURN(
        optimizer::RuleCostEstimator::Estimate lossless,
        PredictAsWritten(med, &med.dcsm(), med.program(), query_text));
    row.lossless_first_ms = lossless.cost.t_first_ms;
    row.lossless_all_ms = lossless.cost.t_all_ms;

    // (b) Lossy prediction: drop every argument of every cached call
    // (the paper's lossy-table construction), raw database disabled.
    med.dcsm().ClearSummaries();
    HERMES_RETURN_IF_ERROR(med.dcsm().BuildFullyLossySummaries());
    med.dcsm().options().use_raw_database = false;
    HERMES_ASSIGN_OR_RETURN(
        optimizer::RuleCostEstimator::Estimate lossy,
        PredictAsWritten(med, &med.dcsm(), med.program(), query_text));
    row.lossy_first_ms = lossy.cost.t_first_ms;
    row.lossy_all_ms = lossy.cost.t_all_ms;

    // Restore raw statistics access before executing.
    med.dcsm().options().use_raw_database = true;

    // (c) Actual execution.
    HERMES_ASSIGN_OR_RETURN(QueryResult actual,
                            med.Query(query_text, direct));
    row.actual_first_ms = actual.execution.t_first_ms;
    row.actual_all_ms = actual.execution.t_all_ms;

    rows.push_back(row);
  }
  return rows;
}

std::string RenderFig6(const std::vector<Fig6Row>& rows) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-9s | %10s %10s %10s | %10s %10s %10s\n", "Query",
                "actual Tf", "lossless", "lossy", "actual Ta", "lossless",
                "lossy");
  out += buf;
  out += std::string(80, '-') + "\n";
  for (const Fig6Row& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%-9s | %10.0f %10.0f %10.0f | %10.0f %10.0f %10.0f\n",
                  row.query.c_str(), row.actual_first_ms,
                  row.lossless_first_ms, row.lossy_first_ms, row.actual_all_ms,
                  row.lossless_all_ms, row.lossy_all_ms);
    out += buf;
  }
  return out;
}

double MeanRelativeErrorAll(const std::vector<Fig6Row>& rows, bool lossy) {
  if (rows.empty()) return 0.0;
  double total = 0.0;
  for (const Fig6Row& row : rows) {
    double predicted = lossy ? row.lossy_all_ms : row.lossless_all_ms;
    total += std::fabs(predicted - row.actual_all_ms) /
             std::max(row.actual_all_ms, 1e-9);
  }
  return total / static_cast<double>(rows.size());
}

}  // namespace hermes::experiments
