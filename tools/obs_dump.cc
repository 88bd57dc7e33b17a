// hermes_obs_dump — exercise the rope scenario and dump the observability
// surfaces: Prometheus text, the JSON catalogue, and a Chrome trace of a
// cold vs. warm run of the Figure 5 appendix query.
//
//   hermes_obs_dump [--prom-out=FILE] [--json-out=FILE] [--trace-out=FILE]
//                   [--faults=FILE]
//
// With no flags the Prometheus exposition goes to stdout. The trace file
// loads directly in chrome://tracing or https://ui.perfetto.dev.
// --faults=FILE installs a deterministic fault-injection plan (see
// net/faults/fault_plan.h for the grammar); queries then run with retries,
// a circuit breaker, and graceful degradation enabled, so the
// hermes_resilience_* series move.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/mediator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << contents;
  return out.good();
}

int Run(int argc, char** argv) {
  std::string prom_out, json_out, trace_out, faults_file;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--prom-out=", 0) == 0) {
      prom_out = value("--prom-out=");
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_out = value("--json-out=");
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = value("--trace-out=");
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults_file = value("--faults=");
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--prom-out=FILE] [--json-out=FILE] [--trace-out=FILE] "
          "[--faults=FILE]\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return 1;
    }
  }

  Mediator med;
  if (!faults_file.empty()) {
    // Under fault injection, give every remote domain an active policy so
    // the resilience machinery (retries, breaker, degradation) engages.
    resilience::ResiliencePolicy policy;
    policy.retry.max_retries = 2;
    policy.breaker.enabled = true;
    med.set_default_resilience_policy(policy);
  }
  Status setup = testbed::SetupRopeScenario(&med, {});
  if (!setup.ok()) {
    std::fprintf(stderr, "scenario setup failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  // Diagnostics on (defaults: no capture thresholds) so the flight
  // recorder and DCSM drift families are part of the exposition this tool
  // exists to demonstrate — the warm run drifts against the cold run's
  // recorded statistics.
  Status diag = med.EnableDiagnostics({});
  if (!diag.ok()) {
    std::fprintf(stderr, "diagnostics setup failed: %s\n",
                 diag.ToString().c_str());
    return 1;
  }
  // Plan cache on, so the hermes_plan_cache_* families are part of the
  // exposition and move: each cold/warm pair below repeats one query text,
  // so the warm half reuses the plan memoized for it, skipping parsing and
  // planning.
  Status plan_cache = med.EnablePlanCache();
  if (!plan_cache.ok()) {
    std::fprintf(stderr, "plan cache setup failed: %s\n",
                 plan_cache.ToString().c_str());
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

  // Cold and warm runs of the appendix "objects in frames [4,47]" query:
  // the cold run pays the network, the warm run hits the CIM, and the two
  // span trees land side by side on the trace timeline.
  QueryOptions options;
  options.use_optimizer = false;
  options.partial_results = !faults_file.empty();
  std::string query = testbed::AppendixQuery(3, false, 4, 47);
  obs::Tracer cold, warm;
  options.tracer = &cold;
  Result<QueryResult> cold_run = med.Query(query, options);
  if (!cold_run.ok()) {
    std::fprintf(stderr, "cold query failed: %s\n",
                 cold_run.status().ToString().c_str());
    return 1;
  }
  options.tracer = &warm;
  Result<QueryResult> warm_run = med.Query(query, options);
  if (!warm_run.ok()) {
    std::fprintf(stderr, "warm query failed: %s\n",
                 warm_run.status().ToString().c_str());
    return 1;
  }
  // A second cold/warm pair leading with the relation source (query 4
  // scans the cast relation before touching video). Fault plans that black
  // out the video site stop the query-3 pair at its first subgoal; this
  // pair still completes remote calls, so the DCSM drift gauges have
  // estimates to move against in every mode.
  options.tracer = nullptr;
  std::string relation_query = testbed::AppendixQuery(4, false, 4, 47);
  for (int pass = 0; pass < 2; ++pass) {
    Result<QueryResult> run = med.Query(relation_query, options);
    if (!run.ok()) {
      std::fprintf(stderr, "relation query failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "cold: %.1f simulated ms (%s), warm: %.1f simulated ms (%s), "
               "%zu answers\n",
               cold_run->execution.t_all_ms,
               QueryCompletenessName(cold_run->completeness),
               warm_run->execution.t_all_ms,
               QueryCompletenessName(warm_run->completeness),
               warm_run->execution.answers.size());

  std::string prom = med.metrics().ExposePrometheus();
  if (!prom_out.empty()) {
    if (!WriteFile(prom_out, prom)) return 1;
  }
  if (!json_out.empty()) {
    if (!WriteFile(json_out, med.metrics().ExposeJson())) return 1;
  }
  if (!trace_out.empty()) {
    if (!WriteFile(trace_out, obs::ChromeTraceJson({&cold, &warm}))) return 1;
  }
  if (prom_out.empty() && json_out.empty() && trace_out.empty()) {
    std::fputs(prom.c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace hermes

int main(int argc, char** argv) { return hermes::Run(argc, argv); }
