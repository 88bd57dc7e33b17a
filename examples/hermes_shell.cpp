// hermes_shell: an interactive mediator console.
//
//   ./build/examples/hermes_shell --demo     # run the canned demo script
//   ./build/examples/hermes_shell < script   # or feed your own commands
//
// Commands:
//   <rule>.                      add a mediator rule
//   ?- <goals>.                  run a query
//   :invariant <invariant>.      install an invariant (domain must be cached)
//   :plans ?- <goals>.           show the optimizer's ranked candidates
//   :stats                       DCSM / CIM / network counters
//   :dump                        print the cost-vector database dump
//   :mode all | first            all-answers vs interactive execution
//   :trace on | off              per-call lines after each query
//   :optimizer on | off          toggle cost-based optimization
//   :demo                        load the 'rope' demo scenario
//   :help, :quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "common/io.h"
#include "common/strings.h"
#include "dcsm/persistence.h"
#include "engine/mediator.h"
#include "obs/trace.h"
#include "testbed/scenario.h"

using namespace hermes;

namespace {

constexpr const char* kDemoScript = R"(:demo
?- query3(4, 47, Object, Actor).
?- query3(4, 47, Object, Actor).
:plans ?- query3(4, 47, Object, Actor).
:stats
:quit
)";

class Shell {
 public:
  Shell() = default;

  int RunFrom(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      line = TrimString(line);
      if (line.empty() || line[0] == '%') continue;
      std::printf("hermes> %s\n", line.c_str());
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  bool Dispatch(const std::string& line) {
    if (line == ":quit" || line == ":q") return false;
    if (line == ":help") {
      PrintHelp();
    } else if (line == ":demo") {
      LoadDemo();
    } else if (line == ":stats") {
      PrintStats();
    } else if (line == ":dump") {
      std::printf("%s", dcsm::DumpStatistics(med_.dcsm().database()).c_str());
    } else if (StartsWith(line, ":mode")) {
      options_.mode = line.find("first") != std::string::npos
                          ? engine::ExecutionMode::kInteractive
                          : engine::ExecutionMode::kAllAnswers;
      std::printf("mode: %s\n",
                  options_.mode == engine::ExecutionMode::kInteractive
                      ? "interactive (first batch)"
                      : "all answers");
    } else if (StartsWith(line, ":trace")) {
      trace_ = line.find("off") == std::string::npos;
      std::printf("trace: %s\n", trace_ ? "on" : "off");
    } else if (StartsWith(line, ":optimizer")) {
      options_.use_optimizer = line.find("off") == std::string::npos;
      std::printf("optimizer: %s\n", options_.use_optimizer ? "on" : "off");
    } else if (StartsWith(line, ":load ")) {
      Report(med_.LoadProgramFile(TrimString(line.substr(6))));
    } else if (StartsWith(line, ":save ")) {
      Report(WriteStringToFile(TrimString(line.substr(6)),
                               dcsm::DumpStatistics(med_.dcsm().database())));
    } else if (StartsWith(line, ":invariant")) {
      Report(med_.AddInvariants(TrimString(line.substr(10))));
    } else if (StartsWith(line, ":plans")) {
      ShowPlans(TrimString(line.substr(6)));
    } else if (StartsWith(line, "?-")) {
      RunQuery(line);
    } else if (!line.empty() && line[0] == ':') {
      std::printf("unknown command; :help lists commands\n");
    } else {
      Report(med_.LoadProgram(line));
    }
    return true;
  }

  void PrintHelp() {
    std::printf(
        "  <rule>.            add a mediator rule\n"
        "  ?- <goals>.        run a query\n"
        "  :invariant <inv>.  install an invariant\n"
        "  :plans ?- <q>.     show ranked candidate plans\n"
        "  :stats / :dump     counters / statistics dump\n"
        "  :load <path>       load a rule file\n"
        "  :save <path>       save the statistics database\n"
        "  :mode all|first    execution mode\n"
        "  :optimizer on|off  cost-based optimization\n"
        "  :trace on|off      per-call execution trace\n"
        "  :demo              load the 'rope' scenario\n"
        "  :quit              leave\n");
  }

  void PrintStats() {
    const dcsm::CostVectorDatabase& db = med_.dcsm().database();
    std::printf("statistics: %zu records, %zu call groups, ~%zu bytes\n",
                db.TotalRecords(), db.Groups().size(), db.ApproxBytes());
    for (const std::string& name : med_.CachedDomains()) {
      cim::CimDomain* cim = med_.cim(name);
      const cim::CimStats& s = cim->stats();
      std::printf(
          "cim_%s: %zu entries, exact=%llu eq=%llu partial=%llu miss=%llu\n",
          name.c_str(), cim->cache().size(),
          (unsigned long long)s.exact_hits, (unsigned long long)s.equality_hits,
          (unsigned long long)s.partial_hits, (unsigned long long)s.misses);
    }
    // Network totals: each remote link's own counters, summed.
    uint64_t calls = 0, failures = 0, bytes = 0;
    double charge = 0.0;
    for (const std::string& name : med_.RemoteDomains()) {
      const net::NetworkInterceptor* link = med_.remote_link(name);
      calls += link->calls().Value();
      failures += link->failures().Value();
      bytes += link->bytes().Value();
      charge += link->charge().Value();
    }
    std::printf("network: %llu calls, %llu failures, %llu bytes, $%.2f\n",
                (unsigned long long)calls, (unsigned long long)failures,
                (unsigned long long)bytes, charge);
  }

  void LoadDemo() {
    Status st = testbed::SetupRopeScenario(&med_, {});
    std::printf("%s\n", st.ok()
                            ? "rope scenario loaded: domains video@umd, "
                              "relation@cornell; appendix queries query1..4"
                            : st.ToString().c_str());
  }

  void Report(const Status& st) {
    std::printf("%s\n", st.ok() ? "ok" : st.ToString().c_str());
  }

  void RunQuery(const std::string& text) {
    obs::Tracer tracer;
    QueryOptions options = options_;
    if (trace_) options.tracer = &tracer;
    Result<QueryResult> res = med_.Query(text, options);
    if (!res.ok()) {
      std::printf("error: %s\n", res.status().ToString().c_str());
      PrintCalls(tracer);
      return;
    }
    const engine::QueryExecution& exec = res->execution;
    // Header row of variables.
    std::string header;
    for (const std::string& var : exec.var_names) {
      header += var + "\t";
    }
    std::printf("%s\n", header.c_str());
    size_t shown = 0;
    for (const ValueList& row : exec.answers) {
      if (shown++ >= 20) {
        std::printf("... (%zu more)\n", exec.answers.size() - 20);
        break;
      }
      std::string rendered;
      for (const Value& v : row) rendered += v.ToString() + "\t";
      std::printf("%s\n", rendered.c_str());
    }
    std::printf("%zu answer(s)%s in Tf=%.0fms Ta=%.0fms [%s]",
                exec.answers.size(), exec.complete ? "" : " (partial)",
                exec.t_first_ms, exec.t_all_ms,
                res->plan_description.c_str());
    if (res->metrics.remote_calls > 0) {
      std::printf("  net: %llu calls, %llu bytes",
                  (unsigned long long)res->metrics.remote_calls,
                  (unsigned long long)res->metrics.bytes_transferred);
      if (res->metrics.network_charge > 0) {
        std::printf(", $%.2f", res->metrics.network_charge);
      }
    }
    std::printf("\n");
    PrintCalls(tracer);
  }

  // One line per domain call, read off the query's derived spans: start
  // time, call, outcome arguments and simulated duration.
  static void PrintCalls(const obs::Tracer& tracer) {
    for (const obs::Span& span : tracer.spans()) {
      if (span.category != "domain-call") continue;
      std::string outcome = span.failed ? " FAILED" : "";
      for (const auto& [key, value] : span.args) {
        outcome += " " + key + "=" + value;
      }
      std::printf("  t=%9.1fms  %-44s%s dur=%.1fms\n", span.sim_begin_ms,
                  span.name.c_str(), outcome.c_str(),
                  span.sim_end_ms - span.sim_begin_ms);
    }
  }

  void ShowPlans(const std::string& query_text) {
    Result<optimizer::OptimizerResult> plan =
        med_.Plan(query_text, options_);
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    for (const optimizer::CandidatePlan& c : plan->candidates) {
      if (!c.estimatable) continue;
      std::printf("  %-22s Ta=%9.0fms Tf=%8.0fms Card=%6.1f%s\n",
                  c.description.c_str(), c.estimated.t_all_ms,
                  c.estimated.t_first_ms, c.estimated.cardinality,
                  c.description == plan->best.description ? "  <= chosen"
                                                          : "");
    }
  }

  Mediator med_;
  QueryOptions options_;
  bool trace_ = false;  ///< Print per-call lines after each query.
};

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1 && std::string(argv[1]) == "--demo") {
    std::istringstream demo(kDemoScript);
    return shell.RunFrom(demo);
  }
  return shell.RunFrom(std::cin);
}
