// Host-performance benchmarks of the library itself (not the simulated
// testbed): how fast the implementation parses, plans, executes and
// serves cache hits. These are the numbers a downstream adopter of the
// library cares about — wall-clock cost per mediator operation.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>

#include "bench/bench_util.h"
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
// Aggregate queries/sec of N client threads sharing one mediator. Pacing
// turns each query's *simulated* service time into real wall-clock wait
// (sleep t_all_ms × scale), so these benchmarks measure what a worker pool
// buys a real mediator: threads overlapping the time blocked on (simulated)
// remote sources, exactly the regime the lock-striped cache and lock-light
// statistics are built for. Aggregate items/sec should scale with threads
// even on a single core, because the waits — not the CPU — dominate.

constexpr const char* kObjectsRule =
    "objects(F, L, O) :- in(O, video:frames_to_objects('rope', F, L)).";

QueryOptions ConcurrentOptions() {
  QueryOptions q;
  q.use_optimizer = false;
  q.record_statistics = false;
  return q;
}

// Cache-hit mix: every query is an exact hit on a pre-warmed entry; rotating
// over eight ranges spreads the probes across cache shards. Simulated hit
// latency is ~1ms, paced 1:1 into real sleep.
Mediator* HitMixMediator() {
  static Mediator* med = [] {
    auto* m = new Mediator();
    testbed::RopeScenarioOptions options;
    options.add_frame_invariants = false;
    (void)testbed::SetupRopeScenario(m, options);
    (void)m->LoadProgram(kObjectsRule);
    for (int i = 0; i < 8; ++i) {  // warm (unpaced: pacing not yet set)
      (void)m->Query("?- objects(4, " + std::to_string(40 + i) + ", O).",
                     ConcurrentOptions());
    }
    m->set_per_query_network_rng(true);
    m->set_service_pacing(1.0);
    return m;
  }();
  return med;
}

// Cache-miss mix: every query asks a never-seen frame range, so each one
// plans, executes the remote call, and inserts into the cache. Simulated
// service time is seconds (UsaSite), paced down 500:1 so a miss costs a few
// real milliseconds of overlappable wait.
Mediator* MissMixMediator() {
  static Mediator* med = [] {
    auto* m = new Mediator();
    testbed::RopeScenarioOptions options;
    options.add_frame_invariants = false;
    (void)testbed::SetupRopeScenario(m, options);
    (void)m->LoadProgram(kObjectsRule);
    m->set_per_query_network_rng(true);
    m->set_service_pacing(0.002);
    return m;
  }();
  return med;
}

void BM_ConcurrentQuery_CacheHitMix(benchmark::State& state) {
  Mediator* med = HitMixMediator();
  const QueryOptions options = ConcurrentOptions();
  int n = state.thread_index();
  for (auto _ : state) {
    std::string query =
        "?- objects(4, " + std::to_string(40 + n++ % 8) + ", O).";
    Result<QueryResult> res = med->Query(query, options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_CacheHitMix)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Same hit mix with the diagnostics layer on (flight recorder, drift
// tracker, no capture thresholds): the contrast against
// BM_ConcurrentQuery_CacheHitMix is the whole cost of always-on
// diagnostics on the hot path.
Mediator* HitMixRecorderMediator() {
  static Mediator* med = [] {
    auto* m = new Mediator();
    testbed::RopeScenarioOptions options;
    options.add_frame_invariants = false;
    (void)testbed::SetupRopeScenario(m, options);
    (void)m->EnableDiagnostics({});
    (void)m->LoadProgram(kObjectsRule);
    for (int i = 0; i < 8; ++i) {  // warm (unpaced: pacing not yet set)
      (void)m->Query("?- objects(4, " + std::to_string(40 + i) + ", O).",
                     ConcurrentOptions());
    }
    m->set_per_query_network_rng(true);
    m->set_service_pacing(1.0);
    return m;
  }();
  return med;
}

void BM_ConcurrentQuery_CacheHitMixRecorder(benchmark::State& state) {
  Mediator* med = HitMixRecorderMediator();
  const QueryOptions options = ConcurrentOptions();
  int n = state.thread_index();
  for (auto _ : state) {
    std::string query =
        "?- objects(4, " + std::to_string(40 + n++ % 8) + ", O).";
    Result<QueryResult> res = med->Query(query, options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_CacheHitMixRecorder)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_ConcurrentQuery_CacheMissMix(benchmark::State& state) {
  Mediator* med = MissMixMediator();
  const QueryOptions options = ConcurrentOptions();
  // Never-repeating ranges — the counter is shared across every thread and
  // every thread-count run so later runs cannot accidentally hit entries
  // cached by earlier ones.
  static std::atomic<int64_t> counter{0};
  for (auto _ : state) {
    int64_t first = 1 + counter.fetch_add(1, std::memory_order_relaxed);
    std::string query = "?- objects(" + std::to_string(first) + ", " +
                        std::to_string(first + 40) + ", O).";
    Result<QueryResult> res = med->Query(query, options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentQuery_CacheMissMix)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Fan-out miss mix: every query makes three *independent* remote calls to
// three mirror sites, and every call is a never-seen miss. With async
// scatter-gather off the simulated service time is the SUM of the three
// hops; with it on the calls overlap and the query costs ≈ the slowest
// hop — the sim_ms_per_query counter reports the per-query simulated
// latency so the max-vs-sum effect is visible next to the QPS. Pacing
// turns that simulated time into real overlappable wait as above.

/// Echo-style source for the fan-out mix: work(x) → {x} at fixed inner cost.
class FanoutSource : public Domain {
 public:
  explicit FanoutSource(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return {{"work", 1, "work(x): {x}"}};
  }
  Result<CallOutput> Run(const DomainCall& call) override {
    CallOutput out;
    out.answers = {call.args[0]};
    out.first_ms = 3.0;
    out.all_ms = 7.0;
    return out;
  }

 private:
  std::string name_;
};

/// A mirror site at roughly half the UsaSite latency, so even the slowest
/// branch of an async fan-out beats one UsaSite hop.
net::SiteParams MirrorSite(std::string name) {
  net::SiteParams site = net::UsaSite(std::move(name));
  site.connect_ms = 450.0;
  site.rtt_ms = 80.0;
  site.bytes_per_ms = 4.0;
  return site;
}

Mediator* FanoutMediator(bool async) {
  auto make = [](bool on) {
    auto* m = new Mediator();
    for (int i = 1; i <= 3; ++i) {
      std::string domain = "f" + std::to_string(i);
      (void)m->RegisterRemoteDomain(domain,
                                    std::make_shared<FanoutSource>(domain),
                                    MirrorSite("mirror" + std::to_string(i)));
    }
    m->set_per_query_network_rng(true);
    m->set_async_execution(on);
    m->set_service_pacing(0.002);
    return m;
  };
  static Mediator* sync_med = make(false);
  static Mediator* async_med = make(true);
  return async ? async_med : sync_med;
}

void BM_ConcurrentQuery_FanoutMissMix(benchmark::State& state) {
  const bool async = state.range(0) != 0;
  Mediator* med = FanoutMediator(async);
  const QueryOptions options = ConcurrentOptions();
  // Never-repeating arguments, shared across threads and thread counts.
  static std::atomic<int64_t> counter{0};
  double sim_ms = 0.0;
  for (auto _ : state) {
    int64_t k = counter.fetch_add(1, std::memory_order_relaxed);
    std::string query = "?- in(X, f1:work(" + std::to_string(3 * k) +
                        ")) & in(Y, f2:work(" + std::to_string(3 * k + 1) +
                        ")) & in(Z, f3:work(" + std::to_string(3 * k + 2) +
                        ")).";
    Result<QueryResult> res = med->Query(query, options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    sim_ms += res->ta_sim_ms;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ms_per_query"] =
      benchmark::Counter(sim_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ConcurrentQuery_FanoutMissMix)
    ->ArgNames({"async"})->Args({0})->Args({1})
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Plan-cache hit mix: one query over eight rotating frame windows (eight
// texts), against local sites with no pacing, so the measured cost is pure
// host work. plan_cache:0 parses and plans every query; plan_cache:1 holds
// eight entries after warm-up, and each hit skips parsing and planning (the
// plan is still compiled per query) — the delta is what the memo saves, and
// the thread sweep shows the one-mutex lookup does not serialize the pool.

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

// Overload mix: fan-out queries over the generated 32-site topology with
// the overload layer in the three states a production mediator would run —
// off, limiter armed, limiter+hedging armed. The contrast shows what the
// per-site AIMD window and the hedge bookkeeping cost on the hot path
// (overload:0 vs 1) and what hedging pays/saves end to end (hedge:1, which
// also reports hedge traffic via sim_ms_per_query shifts). Never-repeating
// arguments keep every call a miss.

Mediator* OverloadMixMediator(bool overload_on, bool hedge_on) {
  auto make = [](bool arm, bool hedge) {
    auto* m = new Mediator();
    testbed::TopologyOptions topo;
    (void)testbed::SetupOverloadTopology(m, topo, nullptr);
    m->set_per_query_network_rng(true);
    m->set_async_execution(true);
    if (arm) {
      overload::OverloadPolicy policy;
      policy.limiter.enabled = true;
      policy.limiter.initial_limit = 8.0;
      policy.hedge.enabled = hedge;
      policy.hedge.min_samples = 4;
      policy.hedge.budget_percent = 25;
      (void)m->EnableOverloadControl(policy, {});
    }
    m->set_service_pacing(0.002);
    return m;
  };
  static Mediator* off_med = make(false, false);
  static Mediator* limiter_med = make(true, false);
  static Mediator* hedge_med = make(true, true);
  return overload_on ? (hedge_on ? hedge_med : limiter_med) : off_med;
}

void BM_ConcurrentQuery_OverloadMix(benchmark::State& state) {
  const bool overload_on = state.range(0) != 0;
  const bool hedge_on = state.range(1) != 0;
  Mediator* med = OverloadMixMediator(overload_on, hedge_on);
  // Mirrors what SetupOverloadTopology registered (TopologyQuery only
  // needs the primary domain names).
  static testbed::TopologyInfo info = [] {
    testbed::TopologyInfo built;
    for (size_t i = 0; i < 32; ++i) {
      built.domains.push_back("s" + std::to_string(i));
      built.tiers.push_back(static_cast<testbed::SiteTier>(i % 4));
    }
    return built;
  }();
  QueryOptions options = ConcurrentOptions();
  options.partial_results = true;
  // Never-repeating arguments, shared across threads and thread counts.
  static std::atomic<int64_t> counter{0};
  double sim_ms = 0.0;
  for (auto _ : state) {
    int64_t k = counter.fetch_add(1, std::memory_order_relaxed);
    std::string query =
        testbed::TopologyQuery(info, static_cast<uint64_t>(k), 8);
    Result<QueryResult> res = med->Query(query, options);
    if (!res.ok()) {
      state.SkipWithError(res.status().message().c_str());
      break;
    }
    sim_ms += res->ta_sim_ms;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ms_per_query"] =
      benchmark::Counter(sim_ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ConcurrentQuery_OverloadMix)
    ->ArgNames({"overload", "hedge"})->Args({0, 0})->Args({1, 0})->Args({1, 1})
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

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
