// Ablation studies for the design choices DESIGN.md calls out:
//
//   A. Predicate first-answer statistics (the paper's Section 8 remedy for
//      backtracking-blind T_f estimates) — prediction error with the
//      compositional formula alone vs. with cached predicate T_f.
//
//   B. The Section 6.3 relaxation lookup — estimation error when the
//      estimator may relax constants one at a time (most-specific-first)
//      vs. jumping straight to the fully-relaxed global average.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "engine/mediator.h"
#include "lang/parser.h"
#include "optimizer/estimator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

constexpr const char* kBacktrackRule =
    "mismatched(F, L, Y) :- "
    "in(X, video:frames_to_objects('rope', F, L)) & "
    "in(T, relation:equal('cast', 'name', X)) & =(Y, T.role).";

void PrintPredicateTfAblation() {
  Mediator med;
  testbed::RopeScenarioOptions options;
  options.enable_caching = false;
  if (!testbed::SetupRopeScenario(&med, options).ok()) return;
  if (!med.LoadProgram(kBacktrackRule).ok()) return;

  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;

  // Warm: run the backtracking workload over several ranges.
  for (int64_t last : {47, 127, 500, 900}) {
    (void)med.Query("?- mismatched(4, " + std::to_string(last) + ", Y).",
                    direct);
  }

  std::string body;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-14s %12s %14s %14s\n", "query",
                "actual Tf", "formula Tf", "learned Tf");
  body += buf;
  body += std::string(58, '-') + "\n";

  optimizer::RuleCostEstimator formula(&med.dcsm());
  optimizer::EstimatorParams learned_params;
  learned_params.use_predicate_first_answer_stats = true;
  optimizer::RuleCostEstimator learned(&med.dcsm(), learned_params);

  double formula_err = 0, learned_err = 0;
  int n = 0;
  for (int64_t last : {47, 127, 500, 900}) {
    std::string query_text =
        "?- mismatched(4, " + std::to_string(last) + ", Y).";
    Result<QueryResult> actual = med.Query(query_text, direct);
    Result<lang::Query> query = lang::Parser::ParseQuery(query_text);
    if (!actual.ok() || !query.ok()) continue;
    auto f = formula.EstimateBody(med.program(), query->goals);
    auto l = learned.EstimateBody(med.program(), query->goals);
    if (!f.ok() || !l.ok()) continue;
    double tf = actual->execution.t_first_ms;
    std::snprintf(buf, sizeof(buf), "[4,%-4lld]      %12.0f %14.0f %14.0f\n",
                  static_cast<long long>(last), tf, f->cost.t_first_ms,
                  l->cost.t_first_ms);
    body += buf;
    formula_err += std::fabs(f->cost.t_first_ms - tf) / tf;
    learned_err += std::fabs(l->cost.t_first_ms - tf) / tf;
    ++n;
  }
  if (n > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\nmean relative Tf error: formula-only %.0f%%, "
                  "with predicate stats %.0f%%\n",
                  100 * formula_err / n, 100 * learned_err / n);
    body += buf;
  }
  bench::PrintTable(
      "Ablation A — predicate first-answer statistics on a backtracking "
      "workload (every outer tuple fails the join)",
      body);
}

void PrintRelaxationAblation() {
  // Statistics for d:f(A, B): cost depends strongly on A.
  dcsm::Dcsm relaxing;   // normal Section 6.3 behavior
  dcsm::Dcsm blind;      // fully-lossy only: global average
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 6; ++b) {
      CostVector cost(10.0 * (a + 1), 100.0 * (a + 1), 4);
      DomainCall call{"d", "f", {Value::Int(a), Value::Int(b)}};
      relaxing.RecordExecution(call, cost);
      blind.RecordExecution(call, cost);
    }
  }
  (void)blind.BuildFullyLossySummaries();
  blind.options().use_raw_database = false;

  std::string body;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-18s %12s %14s %14s\n", "pattern",
                "true Ta", "relaxation", "global-only");
  body += buf;
  body += std::string(62, '-') + "\n";
  double relax_err = 0, blind_err = 0;
  for (int a = 0; a < 8; a += 2) {
    // Unseen B value forces one relaxation step; A stays informative.
    std::string text = "d:f(" + std::to_string(a) + ", 999)";
    Result<lang::DomainCallSpec> pattern =
        lang::Parser::ParseCallPattern(text);
    if (!pattern.ok()) continue;
    double truth = 100.0 * (a + 1);
    Result<dcsm::CostEstimate> r = relaxing.Cost(*pattern);
    Result<dcsm::CostEstimate> g = blind.Cost(*pattern);
    if (!r.ok() || !g.ok()) continue;
    std::snprintf(buf, sizeof(buf), "%-18s %12.0f %14.1f %14.1f\n",
                  text.c_str(), truth, r->cost.t_all_ms, g->cost.t_all_ms);
    body += buf;
    relax_err += std::fabs(r->cost.t_all_ms - truth) / truth;
    blind_err += std::fabs(g->cost.t_all_ms - truth) / truth;
  }
  std::snprintf(buf, sizeof(buf),
                "\nmean relative error: relaxation %.1f%%, global-only "
                "%.1f%%\n",
                100 * relax_err / 4, 100 * blind_err / 4);
  body += buf;
  bench::PrintTable(
      "Ablation B — Section 6.3 relaxation lookup vs. straight-to-global "
      "averaging",
      body);
}

void PrintRecencyAblation() {
  // The paper's Section 6.2 direction: "perform the summaries in a more
  // biased fashion, especially for the remote domain calls, by observing
  // the load of the network, by giving precedence to more recent
  // statistics". Simulate a link that degrades 5× mid-run and compare
  // unweighted vs recency-weighted estimates against the new reality.
  std::string body;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-26s %12s %12s %12s\n",
                "records (old->new regime)", "true Ta now", "unweighted",
                "recency-weighted");
  body += buf;
  body += std::string(66, '-') + "\n";

  for (int new_records : {2, 5, 10, 20}) {
    dcsm::Dcsm flat;
    dcsm::Dcsm recent;
    recent.options().recency_halflife = 4.0;
    DomainCall call{"video", "size", {Value::Str("rope")}};
    // 20 records from the fast era (Ta 1000ms)...
    for (int i = 0; i < 20; ++i) {
      flat.RecordExecution(call, CostVector(250, 1000, 1));
      recent.RecordExecution(call, CostVector(250, 1000, 1));
    }
    // ...then the link degrades: Ta 5000ms.
    for (int i = 0; i < new_records; ++i) {
      flat.RecordExecution(call, CostVector(1250, 5000, 1));
      recent.RecordExecution(call, CostVector(1250, 5000, 1));
    }
    Result<lang::DomainCallSpec> pattern =
        lang::Parser::ParseCallPattern("video:size('rope')");
    if (!pattern.ok()) return;
    Result<dcsm::CostEstimate> f = flat.Cost(*pattern);
    Result<dcsm::CostEstimate> r = recent.Cost(*pattern);
    if (!f.ok() || !r.ok()) return;
    std::snprintf(buf, sizeof(buf), "20 fast + %-2d slow          %12.0f %12.0f %12.0f\n",
                  new_records, 5000.0, f->cost.t_all_ms, r->cost.t_all_ms);
    body += buf;
  }
  bench::PrintTable(
      "Ablation C — recency-weighted statistics after a 5x link "
      "degradation (halflife = 4 records)",
      body);
}

void PrintReproduction() {
  PrintPredicateTfAblation();
  PrintRelaxationAblation();
  PrintRecencyAblation();
}

void BM_EstimateWithPredicateStats(benchmark::State& state) {
  static Mediator* med = [] {
    auto* m = new Mediator();
    testbed::RopeScenarioOptions options;
    options.enable_caching = false;
    (void)testbed::SetupRopeScenario(m, options);
    (void)m->LoadProgram(kBacktrackRule);
    QueryOptions direct;
    direct.use_optimizer = false;
    direct.use_cim = false;
    (void)m->Query("?- mismatched(4, 47, Y).", direct);
    return m;
  }();
  optimizer::EstimatorParams params;
  params.use_predicate_first_answer_stats = state.range(0) == 1;
  optimizer::RuleCostEstimator estimator(&med->dcsm(), params);
  Result<lang::Query> query =
      lang::Parser::ParseQuery("?- mismatched(4, 47, Y).");
  for (auto _ : state) {
    auto est = estimator.EstimateBody(med->program(), query->goals);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_EstimateWithPredicateStats)->Arg(0)->Arg(1);

}  // namespace
}  // namespace hermes

HERMES_BENCH_MAIN(hermes::PrintReproduction)
