// Reproduces the Section 8 observation that "the overhead of checking the
// cache and the invariants without success and making the actual call [is]
// negligible": measures the simulated cost added by a CIM miss — with a
// growing number of never-matching invariants and cache entries — relative
// to the direct remote call.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "cim/cim.h"
#include "engine/mediator.h"
#include "testbed/scenario.h"

namespace hermes {
namespace {

struct OverheadPoint {
  size_t invariants;
  size_t cache_entries;
  double direct_ms;
  double miss_ms;
  double overhead_pct;
};

constexpr const char* kMissQuery =
    "?- in(O, video:frames_to_objects('rope', 7, 53)).";

QueryOptions ViaCim() {
  QueryOptions via_cim;
  via_cim.use_optimizer = false;
  via_cim.use_cim = true;
  return via_cim;
}

/// The rope scenario with `num_invariants` never-matching invariants and
/// `cache_entries` unrelated cache entries.
Result<std::unique_ptr<Mediator>> OverheadMediator(size_t num_invariants,
                                                   size_t cache_entries) {
  auto med = std::make_unique<Mediator>();
  testbed::RopeScenarioOptions options;
  options.add_frame_invariants = false;
  // Zero network jitter so the measured delta is pure CIM overhead.
  options.sites.video_site = net::UsaSite("umd");
  options.sites.video_site.jitter = 0.0;
  options.sites.relation_site.jitter = 0.0;
  HERMES_RETURN_IF_ERROR(testbed::SetupRopeScenario(med.get(), options));
  cim::CimDomain* cim = med->cim("video");

  // Install never-matching invariants (they target a different function).
  for (size_t i = 0; i < num_invariants; ++i) {
    HERMES_RETURN_IF_ERROR(med->AddInvariants(
        "X > " + std::to_string(1000000 + i) +
        " => video:object_to_frames(V, X) >= video:object_to_frames(V, X)."));
  }
  // And unrelated cache entries the invariant scans must wade through.
  for (size_t i = 0; i < cache_entries; ++i) {
    HERMES_RETURN_IF_ERROR(
        med->Query("?- in(F, video:object_to_frames('rope', 'rupert')).",
                   ViaCim())
            .status());
    cim->cache().Put(
        DomainCall{"video",
                   "object_to_frames",
                   {Value::Str("rope"), Value::Str("pad" + std::to_string(i))}},
        AnswerSet{});
  }
  return med;
}

Result<OverheadPoint> MeasureMissOverhead(size_t num_invariants,
                                          size_t cache_entries) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<Mediator> med,
                          OverheadMediator(num_invariants, cache_entries));
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;

  HERMES_ASSIGN_OR_RETURN(QueryResult direct_res,
                          med->Query(kMissQuery, direct));
  HERMES_ASSIGN_OR_RETURN(QueryResult miss_res,
                          med->Query(kMissQuery, ViaCim()));

  OverheadPoint point;
  point.invariants = num_invariants;
  point.cache_entries = cache_entries;
  point.direct_ms = direct_res.execution.t_all_ms;
  point.miss_ms = miss_res.execution.t_all_ms;
  point.overhead_pct =
      100.0 * (point.miss_ms - point.direct_ms) / point.direct_ms;
  return point;
}

void PrintReproduction() {
  std::string body;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%10s %8s %12s %12s %10s\n", "invariants",
                "entries", "direct (ms)", "miss (ms)", "overhead");
  body += buf;
  body += std::string(56, '-') + "\n";
  for (size_t invariants : {0, 4, 16, 64}) {
    for (size_t entries : {0, 20, 100}) {
      Result<OverheadPoint> point = MeasureMissOverhead(invariants, entries);
      if (!point.ok()) {
        body += "error: " + point.status().ToString() + "\n";
        continue;
      }
      std::snprintf(buf, sizeof(buf), "%10zu %8zu %12.0f %12.0f %9.1f%%\n",
                    point->invariants, point->cache_entries, point->direct_ms,
                    point->miss_ms, point->overhead_pct);
      body += buf;
    }
  }
  bench::PrintTable(
      "Section 4.1/8 — CIM miss-path overhead vs direct remote call "
      "(simulated ms; the jitter between direct runs is the noise floor)",
      body);
}

// Host time of one CIM miss query over 50 unrelated entries and N
// never-matching invariants. The mediator is built once; its CIM stops
// caching results so every timed query misses, and statistics stay off so
// the DCSM does not grow across iterations.
void BM_CimMissPath(benchmark::State& state) {
  Result<std::unique_ptr<Mediator>> med =
      OverheadMediator(static_cast<size_t>(state.range(0)), 50);
  if (!med.ok()) {
    state.SkipWithError(med.status().ToString().c_str());
    return;
  }
  (*med)->cim("video")->options().cache_results = false;
  QueryOptions via_cim = ViaCim();
  via_cim.record_statistics = false;
  for (auto _ : state) {
    Result<QueryResult> res = (*med)->Query(kMissQuery, via_cim);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_CimMissPath)->Arg(0)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hermes

HERMES_BENCH_MAIN(hermes::PrintReproduction)
