// Reproduces the paper's Figure 6: "The Utility of DCSM" — actual
// execution times of the six appendix queries vs. the DCSM's predictions
// from lossless and from lossy statistics tables, for both the first
// answer and all answers.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "engine/mediator.h"
#include "experiments/fig6.h"
#include "lang/parser.h"
#include "optimizer/estimator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

void PrintReproduction() {
  Result<std::vector<experiments::Fig6Row>> rows = experiments::RunFig6();
  if (!rows.ok()) {
    std::printf("Figure 6 reproduction failed: %s\n",
                rows.status().ToString().c_str());
    return;
  }
  bench::PrintTable("Figure 6 — The Utility of DCSM (simulated ms)",
                    experiments::RenderFig6(*rows));
  std::printf("mean relative Ta error: lossless %.1f%%, lossy %.1f%%\n\n",
              100 * experiments::MeanRelativeErrorAll(*rows, false),
              100 * experiments::MeanRelativeErrorAll(*rows, true));
}

/// Fixture with a warmed statistics database for prediction benchmarks.
struct Fig6Bench {
  Mediator med;

  Fig6Bench() {
    testbed::RopeScenarioOptions options;
    options.enable_caching = false;
    (void)testbed::SetupRopeScenario(&med, options);
    QueryOptions direct;
    direct.use_optimizer = false;
    direct.use_cim = false;
    for (int64_t last : {20, 47, 127, 500, 2500, 9000}) {
      (void)med.Query(testbed::AppendixQuery(3, false, 1, last), direct);
    }
    (void)med.dcsm().BuildLosslessSummaries();
  }
};

Fig6Bench& Shared() {
  static Fig6Bench* instance = new Fig6Bench();
  return *instance;
}

void BM_Fig6_PredictFromRawStatistics(benchmark::State& state) {
  Fig6Bench& fx = Shared();
  fx.med.dcsm().options().use_summaries = false;
  fx.med.dcsm().options().use_raw_database = true;
  Result<lang::Query> query =
      lang::Parser::ParseQuery(testbed::AppendixQuery(3, false, 4, 47));
  optimizer::RuleCostEstimator estimator(&fx.med.dcsm());
  for (auto _ : state) {
    auto est = estimator.EstimateBody(fx.med.program(), query->goals);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_Fig6_PredictFromRawStatistics);

void BM_Fig6_PredictFromSummaries(benchmark::State& state) {
  Fig6Bench& fx = Shared();
  fx.med.dcsm().options().use_summaries = true;
  fx.med.dcsm().options().use_raw_database = false;
  Result<lang::Query> query =
      lang::Parser::ParseQuery(testbed::AppendixQuery(3, false, 4, 47));
  optimizer::RuleCostEstimator estimator(&fx.med.dcsm());
  for (auto _ : state) {
    auto est = estimator.EstimateBody(fx.med.program(), query->goals);
    if (!est.ok()) state.SkipWithError(est.status().ToString().c_str());
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_Fig6_PredictFromSummaries);

void BM_Fig6_ActualExecution(benchmark::State& state) {
  Fig6Bench& fx = Shared();
  fx.med.dcsm().options().use_raw_database = true;
  fx.med.dcsm().options().use_summaries = true;
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  direct.record_statistics = false;
  double sim_ms = 0;
  for (auto _ : state) {
    Result<QueryResult> res =
        fx.med.Query(testbed::AppendixQuery(3, false, 4, 47), direct);
    if (!res.ok()) state.SkipWithError(res.status().ToString().c_str());
    sim_ms = res->execution.t_all_ms;
    benchmark::DoNotOptimize(res);
  }
  state.counters["sim_ms"] = sim_ms;
}
BENCHMARK(BM_Fig6_ActualExecution);

void BM_Fig6_FullExperiment(benchmark::State& state) {
  for (auto _ : state) {
    Result<std::vector<experiments::Fig6Row>> rows = experiments::RunFig6();
    if (!rows.ok()) state.SkipWithError(rows.status().ToString().c_str());
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_Fig6_FullExperiment)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hermes

HERMES_BENCH_MAIN(hermes::PrintReproduction)
