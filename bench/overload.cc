// Open-loop saturation driver for the overload-control subsystem.
//
// Offered load is decoupled from service capacity (open loop): queries
// arrive at a fixed rate regardless of how far the pool has fallen behind,
// which is the regime where admission control, CoDel shedding, per-site
// concurrency limits and hedging earn their keep. The driver
//
//   1. calibrates 1x capacity (closed-loop queries/sec of the pool),
//   2. replays the same workload at 1x/2x/4x offered load under six
//      configurations — baseline (bounded queue only), overload (admission
//      + AIMD limiter + brownout), overload+hedge, and one per mechanism
//      alone (admission, limiter, hedge) — and
//   3. records goodput, wall/simulated latency percentiles, shed rates and
//      hedge traffic per run into BENCH_overload.json.
//
// The workload runs on the generated 32-site topology (4 latency/
// availability tiers, fast failover replicas on even sites); each query
// scatter-gathers `kFanout` calls to one site, so the per-query limiter
// window and hedge trigger see real concurrency. Service pacing turns
// simulated latency into real, overlappable wall wait.
//
// Usage: bench_overload [--out=BENCH_overload.json] [--queries=N]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/mediator.h"
#include "engine/query_pool.h"
#include "testbed/topology.h"

namespace hermes {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kNumSites = 32;
constexpr size_t kFanout = 24;       ///< Same-site calls per query.
constexpr size_t kPoolThreads = 8;
constexpr size_t kQueueCapacity = 256;
constexpr double kPacing = 0.002;    ///< Wall ms slept per simulated ms.
constexpr double kDeadlineSimMs = 20000.0;  ///< Per-query deadline (sim).

/// The brownout ladder is installed whenever `limiter` or `hedge` arms
/// overload control, but only the pool's admission outcomes move it, so it
/// acts only together with `admission`.
struct RunConfig {
  std::string name;
  bool admission = false;  ///< Pool deadline admission + CoDel shedding.
  bool limiter = false;    ///< Per-site AIMD concurrency limits.
  bool hedge = false;      ///< Hedged requests to failover replicas.
};

struct RunStats {
  double offered_qps = 0.0;
  double elapsed_s = 0.0;
  uint64_t offered = 0;    ///< Arrival events (submissions attempted).
  uint64_t good = 0;       ///< Queries answered OK and complete.
  uint64_t partial = 0;    ///< Answered OK but partial/degraded.
  uint64_t shed = 0;       ///< Typed kResourceExhausted anywhere.
  uint64_t failed = 0;     ///< Any other error.
  uint64_t calls = 0;      ///< Domain calls issued (admitted queries).
  uint64_t load_shed_calls = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  QueryPoolStats pool;
  int brownout_level = 0;  ///< Ladder level at end of run.
  std::vector<double> wall_ms;  ///< Submit → observed completion, answered.
  std::vector<double> sim_ms;   ///< ta_sim_ms of answered queries.
};

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::unique_ptr<Mediator> MakeMediator(const RunConfig& cfg,
                                       testbed::TopologyInfo* info) {
  auto med = std::make_unique<Mediator>();
  testbed::TopologyOptions topo;
  topo.num_sites = kNumSites;
  Status wired = testbed::SetupOverloadTopology(med.get(), topo, info);
  if (!wired.ok()) {
    std::fprintf(stderr, "topology: %s\n", wired.ToString().c_str());
    std::exit(1);
  }
  med->set_per_query_network_rng(true);
  med->set_async_execution(true);
  med->set_service_pacing(kPacing);
  if (cfg.limiter || cfg.hedge) {
    overload::OverloadPolicy policy;
    policy.limiter.enabled = cfg.limiter;
    // The limiter starts at the full fanout: it sheds only after failures
    // or above-baseline latency shrank the limit — protection, not a cap.
    policy.limiter.initial_limit = static_cast<double>(kFanout);
    policy.limiter.max_limit = static_cast<double>(2 * kFanout);
    policy.limiter.min_limit = 4.0;
    // A single transient failure should not halve a 24-branch scatter's
    // limit mid-query: back off, but gently enough that the rest of the
    // fanout still lands.
    policy.limiter.multiplicative_decrease = 0.7;
    policy.hedge.enabled = cfg.hedge;
    // p97 of the trailing ring: a lower quantile hedges ~1-in-10 *successful*
    // calls (pure jitter) and blows the extra-call budget; the tail worth
    // paying for is failures and true stragglers.
    policy.hedge.quantile = 0.97;
    policy.hedge.min_samples = 6;
    // Cold-ring trigger sits at 3× the DCSM baseline: far enough out
    // that healthy jitter (≤1.3× mean) never hedges, close enough that a
    // straggling or failed call still beats the timeout penalty.
    policy.hedge.baseline_trigger_factor = 3.0;
    // Speculative-hedge budget (failure rescues are exempt — they replace
    // the failover retry that resilience would issue anyway). 4% of a
    // 24-call scatter rounds to a single speculative hedge per query: the
    // first is free and a second would need 25 calls. The measured
    // extra-call fraction is what the JSON reports.
    policy.hedge.budget_percent = 4;
    Status armed = med->EnableOverloadControl(policy, {});
    if (!armed.ok()) {
      std::fprintf(stderr, "overload: %s\n", armed.ToString().c_str());
      std::exit(1);
    }
  }
  return med;
}

QueryOptions WorkloadOptions(uint64_t k) {
  QueryOptions q;
  q.use_optimizer = false;
  q.record_statistics = true;  // feeds the DCSM → the limiter's baseline
  q.partial_results = true;    // a shed branch loses a source, not the query
  // 2:6:2 priority mix; only non-high classes face CoDel/brownout.
  const uint64_t r = k % 10;
  q.priority = r < 2 ? QueryPriority::kHigh
                     : (r < 8 ? QueryPriority::kNormal : QueryPriority::kLow);
  q.deadline_ms = kDeadlineSimMs;
  return q;
}

struct Pending {
  Clock::time_point submitted_at;
  std::future<Result<QueryResult>> future;
};

/// Drains every ready future in `pending` into `stats`.
void Harvest(std::deque<Pending>& pending, RunStats& stats, bool block) {
  while (!pending.empty()) {
    Pending& p = pending.front();
    if (!block &&
        p.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return;
    }
    Result<QueryResult> res = p.future.get();
    const double wall = MsBetween(p.submitted_at, Clock::now());
    if (res.ok()) {
      if (res->completeness == QueryCompleteness::kComplete) {
        ++stats.good;
      } else {
        ++stats.partial;
      }
      stats.wall_ms.push_back(wall);
      stats.sim_ms.push_back(res->ta_sim_ms);
      stats.calls += res->metrics.domain_calls;
      stats.load_shed_calls += res->metrics.load_shed;
      stats.hedges += res->metrics.hedges;
      stats.hedge_wins += res->metrics.hedge_wins;
    } else if (res.status().IsResourceExhausted()) {
      ++stats.shed;
    } else {
      ++stats.failed;
    }
    pending.pop_front();
  }
}

RunStats RunOpenLoop(const RunConfig& cfg, double offered_qps,
                     uint64_t num_queries) {
  testbed::TopologyInfo info;
  std::unique_ptr<Mediator> med = MakeMediator(cfg, &info);
  QueryPoolOptions pool_options;
  pool_options.num_threads = kPoolThreads;
  pool_options.queue_capacity = kQueueCapacity;
  pool_options.admission.enabled = cfg.admission;
  pool_options.admission.codel_target_ms = 10.0;
  pool_options.admission.codel_interval_ms = 40.0;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);

  RunStats stats;
  stats.offered_qps = offered_qps;
  std::deque<Pending> pending;
  const Clock::time_point start = Clock::now();
  const double interarrival_ms = 1000.0 / offered_qps;
  for (uint64_t k = 0; k < num_queries; ++k) {
    // Open loop: the k-th arrival is due at a fixed instant, late or not.
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        interarrival_ms * static_cast<double>(k)));
    while (Clock::now() < due) {
      Harvest(pending, stats, /*block=*/false);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++stats.offered;
    Pending p;
    p.submitted_at = Clock::now();
    Status submitted = pool->TrySubmit(testbed::TopologyQuery(info, k, kFanout),
                                       WorkloadOptions(k), &p.future);
    if (submitted.ok()) {
      pending.push_back(std::move(p));
    } else if (submitted.IsResourceExhausted()) {
      ++stats.shed;
    } else {
      ++stats.failed;
    }
    Harvest(pending, stats, /*block=*/false);
  }
  Harvest(pending, stats, /*block=*/true);
  stats.elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  stats.pool = pool->stats();
  stats.brownout_level =
      med->brownout() != nullptr ? med->brownout()->level() : 0;
  pool->Shutdown();
  return stats;
}

/// Closed-loop calibration: queries/sec with the pool saturated but never
/// overloaded (backpressure via blocking Submit keeps exactly the queue +
/// workers busy).
double CalibrateCapacity(uint64_t num_queries) {
  RunConfig cfg;
  cfg.name = "calibrate";
  testbed::TopologyInfo info;
  std::unique_ptr<Mediator> med = MakeMediator(cfg, &info);
  QueryPoolOptions pool_options;
  pool_options.num_threads = kPoolThreads;
  pool_options.queue_capacity = 2 * kPoolThreads;
  std::unique_ptr<QueryPool> pool = med->Serve(pool_options);
  std::deque<std::future<Result<QueryResult>>> pending;
  const Clock::time_point start = Clock::now();
  for (uint64_t k = 0; k < num_queries; ++k) {
    pending.push_back(
        pool->Submit(testbed::TopologyQuery(info, k, kFanout),
                     WorkloadOptions(k)));
    while (pending.size() > 2 * kPoolThreads) {
      (void)pending.front().get();
      pending.pop_front();
    }
  }
  while (!pending.empty()) {
    (void)pending.front().get();
    pending.pop_front();
  }
  const double elapsed_s = MsBetween(start, Clock::now()) / 1000.0;
  pool->Shutdown();
  return static_cast<double>(num_queries) / elapsed_s;
}

std::string RunJson(const RunConfig& cfg, double load_factor, RunStats& s) {
  const double goodput_qps =
      static_cast<double>(s.good + s.partial) / std::max(s.elapsed_s, 1e-9);
  const uint64_t answered = s.good + s.partial;
  const double shed_rate =
      s.offered > 0
          ? static_cast<double>(s.shed) / static_cast<double>(s.offered)
          : 0.0;
  const double extra_call_fraction =
      s.calls > 0 ? static_cast<double>(s.hedges) / static_cast<double>(s.calls)
                  : 0.0;
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"config\": \"%s\", \"load_factor\": %.0f, "
      "\"offered_qps\": %.1f, \"elapsed_s\": %.3f, \"offered\": %llu, "
      "\"answered\": %llu, \"good\": %llu, \"partial\": %llu, "
      "\"shed\": %llu, \"failed\": %llu, \"goodput_qps\": %.1f, "
      "\"shed_rate\": %.4f, "
      "\"wall_p50_ms\": %.3f, \"wall_p95_ms\": %.3f, \"wall_p99_ms\": %.3f, "
      "\"sim_p50_ms\": %.1f, \"sim_p95_ms\": %.1f, \"sim_p99_ms\": %.1f, "
      "\"calls\": %llu, \"load_shed_calls\": %llu, \"hedges\": %llu, "
      "\"hedge_wins\": %llu, \"extra_call_fraction\": %.4f, "
      "\"pool_rejected\": %llu, \"pool_shed_deadline\": %llu, "
      "\"pool_shed_codel\": %llu, \"pool_shed_brownout\": %llu, "
      "\"brownout_level\": %d}",
      cfg.name.c_str(), load_factor, s.offered_qps, s.elapsed_s,
      static_cast<unsigned long long>(s.offered),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(s.good),
      static_cast<unsigned long long>(s.partial),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.failed), goodput_qps, shed_rate,
      Quantile(s.wall_ms, 0.50), Quantile(s.wall_ms, 0.95),
      Quantile(s.wall_ms, 0.99), Quantile(s.sim_ms, 0.50),
      Quantile(s.sim_ms, 0.95), Quantile(s.sim_ms, 0.99),
      static_cast<unsigned long long>(s.calls),
      static_cast<unsigned long long>(s.load_shed_calls),
      static_cast<unsigned long long>(s.hedges),
      static_cast<unsigned long long>(s.hedge_wins), extra_call_fraction,
      static_cast<unsigned long long>(s.pool.rejected),
      static_cast<unsigned long long>(s.pool.shed_deadline),
      static_cast<unsigned long long>(s.pool.shed_codel),
      static_cast<unsigned long long>(s.pool.shed_brownout),
      s.brownout_level);
  return buf;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_overload.json";
  uint64_t num_queries = 1500;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = std::strtoull(argv[i] + 10, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  std::printf("=== Overload-control saturation driver ===\n");
  std::printf("calibrating 1x capacity (closed loop)...\n");
  const double capacity_qps = CalibrateCapacity(num_queries / 2);
  std::printf("capacity: %.1f queries/sec\n\n", capacity_qps);

  const RunConfig configs[] = {
      {"baseline", false, false, false},
      {"overload", true, true, false},
      {"overload+hedge", true, true, true},
      {"admission", true, false, false},
      {"limiter", false, true, false},
      {"hedge", false, false, true},
  };
  const double loads[] = {1.0, 2.0, 4.0};

  std::string runs_json;
  for (const RunConfig& cfg : configs) {
    for (double load : loads) {
      RunStats stats = RunOpenLoop(cfg, load * capacity_qps, num_queries);
      std::printf(
          "%-15s %.0fx: offered=%llu answered=%llu shed=%llu failed=%llu "
          "goodput=%.1f/s wall p50/p95/p99=%.1f/%.1f/%.1fms "
          "hedges=%llu (wins=%llu)\n",
          cfg.name.c_str(), load,
          static_cast<unsigned long long>(stats.offered),
          static_cast<unsigned long long>(stats.good + stats.partial),
          static_cast<unsigned long long>(stats.shed),
          static_cast<unsigned long long>(stats.failed),
          static_cast<double>(stats.good + stats.partial) /
              std::max(stats.elapsed_s, 1e-9),
          Quantile(stats.wall_ms, 0.50), Quantile(stats.wall_ms, 0.95),
          Quantile(stats.wall_ms, 0.99),
          static_cast<unsigned long long>(stats.hedges),
          static_cast<unsigned long long>(stats.hedge_wins));
      if (!runs_json.empty()) runs_json += ",\n";
      runs_json += RunJson(cfg, load, stats);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"driver\": \"bench_overload\",\n"
               "  \"topology\": {\"sites\": %zu, \"fanout\": %zu, "
               "\"pool_threads\": %zu, \"queue_capacity\": %zu, "
               "\"pacing\": %g},\n"
               "  \"capacity_qps\": %.1f,\n  \"runs\": [\n%s\n  ]\n}\n",
               kNumSites, kFanout, kPoolThreads, kQueueCapacity, kPacing,
               capacity_qps, runs_json.c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hermes

int main(int argc, char** argv) { return hermes::Main(argc, argv); }
