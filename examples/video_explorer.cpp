// Video explorer: interactive-mode queries over a remote video package,
// with subset invariants serving fast first answers from the cache and the
// cache masking a site outage — the paper's Section 4 motivation end to end.
//
// Build & run:  ./build/examples/video_explorer

#include <cstdio>

#include "avis/avis_domain.h"
#include "engine/mediator.h"
#include "net/network_interceptor.h"
#include "testbed/scenario.h"

using namespace hermes;

namespace {

void Show(const char* label, const Result<QueryResult>& res) {
  if (!res.ok()) {
    std::printf("%-34s ERROR: %s\n", label, res.status().ToString().c_str());
    return;
  }
  std::printf("%-34s %2zu answers%s  Tf=%7.0fms  Ta=%7.0fms\n", label,
              res->execution.answers.size(),
              res->execution.complete ? " " : "*",  // * = partial set
              res->execution.t_first_ms, res->execution.t_all_ms);
}

}  // namespace

int main() {
  Mediator med;

  // AVIS lives in Italy behind a thin, flaky 1996 link.
  net::SiteParams milan = net::ItalySite("milan");
  testbed::RopeScenarioOptions options;
  options.sites.video_site = milan;
  if (!testbed::SetupRopeScenario(&med, options).ok()) return 1;
  if (!med.LoadProgram("objects(F, L, O) :- "
                       "in(O, video:frames_to_objects('rope', F, L)).")
           .ok()) {
    return 1;
  }

  QueryOptions all;
  all.use_optimizer = false;

  QueryOptions interactive = all;
  interactive.mode = engine::ExecutionMode::kInteractive;
  interactive.interactive_batch = 3;

  std::printf("-- cold exploration (every call crosses the Atlantic)\n");
  Show("objects [4,47], all answers", med.Query("?- objects(4, 47, O).", all));

  std::printf("\n-- interactive mode: a partial-invariant hit serves the "
              "first batch\n   from the cache without waiting for Milan\n");
  // The narrow range is cached; the wider range is a superset, so the
  // invariant serves the cached subset instantly (the engine stops after
  // the first batch — the actual call never completes).
  cim::CimDomain* cim = med.cim("video");
  cim->options().complete_partial_hits = false;  // interactive CIM mode
  Show("objects [4,127], first 3",
       med.Query("?- objects(4, 127, O).", interactive));
  cim->options().complete_partial_hits = true;
  Show("objects [4,127], all answers",
       med.Query("?- objects(4, 127, O).", all));

  std::printf("\n-- Milan goes down: the cache keeps answering\n");
  // Failure injection: take down the network layer the cache sits on.
  net::NetworkInterceptor* link = med.remote_link("video");
  if (link == nullptr) return 1;
  link->mutable_site().availability = 0.0;
  Show("objects [4,47] (cached, site down)",
       med.Query("?- objects(4, 47, O).", all));
  // [4,500] was never asked; the cached [4,127] subset is the best the
  // invariants can do while the site is down — a (partial) stale answer
  // beats no answer.
  Show("objects [4,500] (partial, site down)",
       med.Query("?- objects(4, 500, O).", all));
  Show("objects [200,300] (uncached, site down)",
       med.Query("?- objects(200, 300, O).", all));

  const cim::CimStats& stats = cim->stats();
  std::printf(
      "\nvideo CIM: exact=%llu equality=%llu partial=%llu misses=%llu "
      "masked-outages=%llu failed-outages=%llu\n",
      (unsigned long long)stats.exact_hits,
      (unsigned long long)stats.equality_hits,
      (unsigned long long)stats.partial_hits,
      (unsigned long long)stats.misses,
      (unsigned long long)stats.unavailable_masked,
      (unsigned long long)stats.unavailable_failed);
  std::printf("* = incomplete (partial) answer set\n");
  return 0;
}
