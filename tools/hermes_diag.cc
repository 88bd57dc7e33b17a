// hermes_diag — slow-query diagnostics over the rope testbed.
//
//   hermes_diag [--out=DIR] [--faults=FILE] [--queries=N]
//               [--slow-threshold=SIM_MS]
//
// Runs a mixed appendix-query workload with the diagnostics layer enabled:
// anomalous queries (slow past the threshold, degraded, partial, breaker-
// tripped) auto-persist debug bundles — flight-recorder slice, Chrome
// trace, EXPLAIN with actuals, Prometheus snapshot — under DIR/bundles/,
// and the tool finishes with Mediator::DumpDiagnostics(DIR) plus a
// summary (slow-query log, DCSM drift report) on stdout.
//
// With --faults the workload runs under the deterministic fault plan and
// an active resilience policy, so captures are guaranteed: outages force
// partial queries and 30s slow injections blow through the per-call
// deadline. CI's diagnostics-artifacts job runs exactly that and uploads
// DIR as a build artifact.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/diagnostics.h"
#include "engine/mediator.h"
#include "testbed/scenario.h"
#include "tools/numeric_flag.h"

namespace hermes {
namespace {

int Run(int argc, char** argv) {
  std::string out_dir = "diag_out";
  std::string faults_file;
  size_t num_queries = 12;
  double slow_threshold_ms = 25000.0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--out=", 0) == 0) {
      out_dir = value("--out=");
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_file = value("--faults=");
    } else if (arg.rfind("--queries=", 0) == 0) {
      if (!tools::ParseNumericFlag("--queries", value("--queries="),
                                   &num_queries)) {
        return 1;
      }
    } else if (arg.rfind("--slow-threshold=", 0) == 0) {
      if (!tools::ParseNumericFlag("--slow-threshold",
                                   value("--slow-threshold="),
                                   &slow_threshold_ms)) {
        return 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--out=DIR] [--faults=FILE] [--queries=N] "
          "[--slow-threshold=SIM_MS]\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 1;
    }
  }

  Mediator med;
  resilience::ResiliencePolicy policy;
  policy.retry.max_retries = 2;
  policy.breaker.enabled = true;
  policy.breaker.failure_threshold = 3;
  policy.call_deadline_ms = 25000.0;
  med.set_default_resilience_policy(policy);
  Status setup = testbed::SetupRopeScenario(&med, {});
  if (!setup.ok()) {
    std::fprintf(stderr, "scenario setup failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  if (!faults_file.empty()) {
    Status faults = med.LoadFaultPlan(faults_file);
    if (!faults.ok()) {
      std::fprintf(stderr, "fault plan rejected: %s\n",
                   faults.ToString().c_str());
      return 1;
    }
  }

  DiagnosticsOptions diag;
  diag.slow_threshold_sim_ms = slow_threshold_ms;
  diag.watermark_factor = 3.0;  // also catch relative outliers
  diag.bundle_dir = out_dir + "/bundles";
  Status enabled = med.EnableDiagnostics(diag);
  if (!enabled.ok()) {
    std::fprintf(stderr, "diagnostics setup failed: %s\n",
                 enabled.ToString().c_str());
    return 1;
  }

  // Adaptive execution armed, exactly as a production mediator would run.
  // The twelve queries below are twelve distinct texts, so every plan-cache
  // lookup misses: the run exercises the miss path and exposes the
  // hermes_plan_cache_* families. A breaker opening mid-join re-plans the
  // suffix — the diagnostics always capture a replan, persisting the
  // decision (old/new suffix, trigger) into the bundle.
  Status plan_cache = med.EnablePlanCache();
  if (!plan_cache.ok()) {
    std::fprintf(stderr, "plan cache setup failed: %s\n",
                 plan_cache.ToString().c_str());
    return 1;
  }
  engine::op::ReplanOptions replan;
  replan.enabled = true;
  med.set_replan_options(replan);

  // The chaos workload: appendix queries over shifting frame windows so
  // the run mixes cold calls, cache hits and fault windows.
  QueryOptions options;
  options.use_optimizer = false;
  options.partial_results = true;
  size_t failed = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    int number = 1 + static_cast<int>(i % 4);
    int64_t first = 4 + static_cast<int64_t>(3 * (i % 5));
    int64_t last = first + 20 + static_cast<int64_t>(i % 7);
    Result<QueryResult> res =
        med.Query(testbed::AppendixQuery(number, false, first, last), options);
    if (!res.ok()) {
      ++failed;
      std::fprintf(stderr, "query %zu failed: %s\n", i,
                   res.status().ToString().c_str());
    }
  }

  Status dumped = med.DumpDiagnostics(out_dir);
  if (!dumped.ok()) {
    std::fprintf(stderr, "dump failed: %s\n", dumped.ToString().c_str());
    return 1;
  }

  DiagnosticsCenter* diag_center = med.diagnostics();
  std::vector<DebugBundle> bundles = diag_center->bundles();
  std::printf("queries: %zu (%zu failed)\n", num_queries, failed);
  std::printf("captures: %llu\n",
              static_cast<unsigned long long>(diag_center->captures()));
  for (const DebugBundle& bundle : bundles) {
    std::printf("bundle: q%llu reason=%s t_all=%.1fms %s\n",
                static_cast<unsigned long long>(bundle.query_id),
                bundle.reason.c_str(), bundle.t_all_ms,
                bundle.dir.empty() ? "(in memory)" : bundle.dir.c_str());
  }
  std::printf("\n-- slow-query log --\n");
  for (const std::string& record : diag_center->slow_query_log()) {
    std::fputs(record.c_str(), stdout);
  }
  std::printf("\n-- DCSM drift --\n%s", med.DriftReport().ToString().c_str());
  std::printf("\nwrote %s (events.json, metrics.prom, drift.txt, "
              "slow_queries.log)\n",
              out_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace hermes

int main(int argc, char** argv) { return hermes::Run(argc, argv); }
