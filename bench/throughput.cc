// Host-performance benchmarks of the library itself (not the simulated
// testbed): how fast the implementation parses, plans, executes and
// serves cache hits. These are the numbers a downstream adopter of the
// library cares about — wall-clock cost per mediator operation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "avis/avis_domain.h"
#include "bench/bench_util.h"
#include "cim/cim.h"
#include "engine/mediator.h"
#include "lang/parser.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

void PrintReproduction() {
  std::printf(
      "\n=== Library host-performance benchmarks ===\n"
      "(wall-clock per operation; the simulated testbed latencies do not\n"
      " apply here — a cache-hit query's *simulated* time is ~1ms while\n"
      " its *host* cost below is microseconds)\n\n");
}

/// The rope scenario on local sites, warmed with one as-written query3.
Mediator* NewLocalRopeMediator() {
  auto* m = new Mediator();
  testbed::RopeScenarioOptions options;
  options.sites.video_site = net::LocalSite();
  options.sites.relation_site = net::LocalSite();
  (void)testbed::SetupRopeScenario(m, options);
  QueryOptions warm;
  warm.use_optimizer = false;
  (void)m->Query(testbed::AppendixQuery(3, false, 4, 47), warm);
  return m;
}

Mediator* SharedMediator() {
  static Mediator* med = NewLocalRopeMediator();
  return med;
}

void BM_ParseRule(benchmark::State& state) {
  const std::string text =
      "routetosupplies(From, Sup, To, R) :- "
      "in(T, ingres:select_eq('inventory', item, Sup)) & =(T.loc, To) & "
      "in(R, terraindb:findrte(From, To)).";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::Parser::ParseRule(text));
  }
}
BENCHMARK(BM_ParseRule);

void BM_ParseQuery(benchmark::State& state) {
  const std::string text = testbed::AppendixQuery(2, true, 4, 47);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::Parser::ParseQuery(text));
  }
}
BENCHMARK(BM_ParseQuery);

// The 8-way scatter-gather text of the overload topology: texts like this
// never repeat, so every one is parsed.
void BM_ParseFanoutQuery(benchmark::State& state) {
  testbed::TopologyInfo topology;
  for (int i = 0; i < 32; ++i) {
    topology.domains.push_back("s" + std::to_string(i));
  }
  const std::string text = testbed::TopologyQuery(topology, 1234, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::Parser::ParseQuery(text));
  }
}
BENCHMARK(BM_ParseFanoutQuery);

void BM_PlanQuery(benchmark::State& state) {
  Mediator* med = SharedMediator();
  const std::string query = testbed::AppendixQuery(3, false, 4, 47);
  for (auto _ : state) {
    benchmark::DoNotOptimize(med->Plan(query, QueryOptions{}));
  }
}
BENCHMARK(BM_PlanQuery)->Unit(benchmark::kMicrosecond);

void BM_ExecuteJoinQueryDirect(benchmark::State& state) {
  Mediator* med = SharedMediator();
  QueryOptions direct;
  direct.use_optimizer = false;
  direct.use_cim = false;
  direct.record_statistics = false;
  const std::string query = testbed::AppendixQuery(3, false, 4, 47);
  for (auto _ : state) {
    benchmark::DoNotOptimize(med->Query(query, direct));
  }
}
BENCHMARK(BM_ExecuteJoinQueryDirect)->Unit(benchmark::kMicrosecond);

/// Warm, unpaced query3 CIM hits on `med`.
void RunCacheHitQuery(benchmark::State& state, Mediator* med) {
  QueryOptions cached;
  cached.use_optimizer = false;
  cached.use_cim = true;
  cached.record_statistics = false;
  const std::string query = testbed::AppendixQuery(3, false, 4, 47);
  (void)med->Query(query, cached);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(med->Query(query, cached));
  }
}

void BM_ExecuteCacheHitQuery(benchmark::State& state) {
  RunCacheHitQuery(state, SharedMediator());
}
BENCHMARK(BM_ExecuteCacheHitQuery)->Unit(benchmark::kMicrosecond);

// The same hit with diagnostics on (flight recorder, drift tracker and
// capture policy): the hit-path overhead of always-on diagnostics.
void BM_ExecuteCacheHitQueryDiagnostics(benchmark::State& state) {
  static Mediator* med = [] {
    Mediator* m = NewLocalRopeMediator();
    (void)m->EnableDiagnostics({});
    return m;
  }();
  RunCacheHitQuery(state, med);
}
BENCHMARK(BM_ExecuteCacheHitQueryDiagnostics)->Unit(benchmark::kMicrosecond);

void BM_EndToEndOptimizedQuery(benchmark::State& state) {
  Mediator* med = SharedMediator();
  QueryOptions full;  // optimizer + cim
  full.record_statistics = false;
  const std::string query = testbed::AppendixQuery(3, false, 4, 127);
  for (auto _ : state) {
    benchmark::DoNotOptimize(med->Query(query, full));
  }
}
BENCHMARK(BM_EndToEndOptimizedQuery)->Unit(benchmark::kMicrosecond);

// --- Concurrent serving -----------------------------------------------------
//
// Plan-cache hit mix: N client threads share one mediator and send one
// query over eight rotating frame windows (eight texts), against local
// sites with no pacing, so the measured cost is pure host work.
// plan_cache:0 parses and plans every query; plan_cache:1 holds eight
// entries after warm-up, and each hit skips parsing and planning (the plan
// is still compiled per query) — the delta is what the memo saves, and the
// thread sweep shows the one-mutex lookup does not serialize the pool.

std::string PlanCacheMixQuery(int window) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "?- in(Object, video:frames_to_objects('rope', 4, %d)) & "
                "in(T, relation:equal('cast', role, Object)) & "
                "=(Actor, T.name).",
                40 + window % 8);
  return buf;
}

QueryOptions PlanCacheMixOptions() {
  QueryOptions q;
  q.use_optimizer = false;
  q.use_cim = false;
  q.record_statistics = false;
  return q;
}

Mediator* PlanCacheMixMediator(bool cached) {
  auto make = [](bool on) {
    auto* m = new Mediator();
    testbed::RopeScenarioOptions options;
    options.sites.video_site = net::LocalSite();
    options.sites.relation_site = net::LocalSite();
    options.add_frame_invariants = false;
    (void)testbed::SetupRopeScenario(m, options);
    if (on) (void)m->EnablePlanCache();
    for (int i = 0; i < 8; ++i) {  // warm: one entry per text
      (void)m->Query(PlanCacheMixQuery(i), PlanCacheMixOptions());
    }
    return m;
  };
  static Mediator* raw_med = make(false);
  static Mediator* cached_med = make(true);
  return cached ? cached_med : raw_med;
}

void BM_ConcurrentQuery_PlanCacheHitMix(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  Mediator* med = PlanCacheMixMediator(cached);
  const QueryOptions options = PlanCacheMixOptions();
  int n = state.thread_index();
  for (auto _ : state) {
    Result<QueryResult> res = med->Query(PlanCacheMixQuery(n++), options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_PlanCacheHitMix)
    ->ArgNames({"plan_cache"})->Args({0})->Args({1})
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// Section 4.1's search, alone: one CimDomain::RunWith of a
// frames_to_objects window whose exact key misses, over a rope-video CIM
// holding N windows none of which the request contains. The ⊇ invariant
// scans all N entries, the clamp equality fails on its condition, and a
// stub stands in for the actual call, so the time is the CIM's own host
// cost. cache_results=false keeps the cache at N entries.
void BM_CimInvariantProbe(benchmark::State& state) {
  const int64_t entries = state.range(0);
  cim::CimOptions options;
  options.cache_results = false;
  cim::CimDomain cim("cim_video", "video",
                     std::make_shared<avis::AvisDomain>(
                         "avis", testbed::MakeRopeVideoDatabase()),
                     options, {}, /*cache_max_entries=*/128);
  (void)cim.AddInvariants(R"(
    F2 <= F1 & L1 <= L2 =>
        video:frames_to_objects(V, F2, L2) >=
        video:frames_to_objects(V, F1, L1).
    L >= 130000 =>
        video:frames_to_objects('rope', F, L) =
        video:frames_to_objects('rope', F, 129999).
  )");
  for (int64_t i = 0; i < entries; ++i) {
    cim.cache().Put(DomainCall{"video",
                               "frames_to_objects",
                               {Value::Str("rope"), Value::Int(100 + 10 * i),
                                Value::Int(105 + 10 * i)}},
                    AnswerSet{Value::Str("rupert"), Value::Str("brandon")});
  }
  const cim::CimDomain::ActualCallFn stub = [](const DomainCall&) {
    return Result<CallOutput>(CallOutput{});
  };
  const DomainCall call{"cim_video",
                        "frames_to_objects",
                        {Value::Str("rope"), Value::Int(4), Value::Int(47)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cim.RunWith(call, stub));
  }
}
BENCHMARK(BM_CimInvariantProbe)->Arg(8)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_DcsmCostLookup(benchmark::State& state) {
  Mediator* med = SharedMediator();
  Result<lang::DomainCallSpec> pattern = lang::Parser::ParseCallPattern(
      "video:frames_to_objects('rope', 4, $b)");
  for (auto _ : state) {
    benchmark::DoNotOptimize(med->dcsm().Cost(*pattern));
  }
}
BENCHMARK(BM_DcsmCostLookup);

}  // namespace
}  // namespace hermes

HERMES_BENCH_MAIN(hermes::PrintReproduction)
