#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "avis/avis_domain.h"
#include "lang/parser.h"
#include "net/faults/fault_plan.h"
#include "relational/relational_domain.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace perfbench {

using hermes::Mediator;
using hermes::QueryOptions;
using hermes::Result;
using hermes::Status;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

QueryOptions Workload::ReferenceOptions() const {
  QueryOptions options;
  options.use_optimizer = false;
  options.use_cim = false;
  options.record_statistics = false;
  return options;
}

namespace {

/// Network seed of every mediator: the workload seed only shapes the
/// query stream, never the simulated sites.
constexpr uint64_t kNetworkSeed = 1996;
/// Client index of the warm-up stream (disjoint from every real client).
constexpr size_t kWarmClient = 1000;

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t StreamKey(uint64_t seed, size_t client, uint64_t seq) {
  return Mix(Mix(seed ^ (static_cast<uint64_t>(client) << 40)) ^ seq);
}

std::vector<hermes::lang::DomainCallSpec> ParsePatterns(
    const std::vector<std::string>& texts) {
  std::vector<hermes::lang::DomainCallSpec> out;
  for (const std::string& text : texts) {
    Result<hermes::lang::DomainCallSpec> spec =
        hermes::lang::Parser::ParseCallPattern(text);
    if (spec.ok()) out.push_back(*spec);
  }
  return out;
}

// ---- The rope scenario (paper Section 8 testbed) ---------------------------

// The testbed's frame invariants, verbatim: the equivalence check compares
// this wiring against testbed::SetupRopeScenario.
constexpr const char* kFrameInvariants = R"(
  F2 <= F1 & L1 <= L2 =>
      video:frames_to_objects(V, F2, L2) >=
      video:frames_to_objects(V, F1, L1).
  L >= 130000 =>
      video:frames_to_objects('rope', F, L) =
      video:frames_to_objects('rope', F, 129999).
)";

constexpr int64_t kRopeLastFrame = 129999;

/// SetupRopeScenario's wiring rebuilt from the public Make*/Register*
/// functions, with every substrate behind `clock` and the video CIM
/// bounded to `video_cache_entries` (0 = unbounded).
Status WireRope(Mediator* med, SourceClock* clock,
                size_t video_cache_entries) {
  const hermes::testbed::ScenarioSites sites;
  auto ingres = std::make_shared<hermes::relational::RelationalDomain>(
      "ingres", hermes::testbed::MakeCastDatabase());
  auto avis = std::make_shared<hermes::avis::AvisDomain>(
      "avis", hermes::testbed::MakeRopeVideoDatabase());
  HERMES_RETURN_IF_ERROR(med->RegisterRemoteDomain(
      "video", Decorate(avis, clock), sites.video_site));
  HERMES_RETURN_IF_ERROR(med->RegisterRemoteDomain(
      "relation", Decorate(ingres, clock), sites.relation_site));
  HERMES_RETURN_IF_ERROR(
      med->EnableCaching("video", {}, {}, video_cache_entries));
  HERMES_RETURN_IF_ERROR(med->EnableCaching("relation"));
  HERMES_RETURN_IF_ERROR(med->AddInvariants(kFrameInvariants));
  return med->LoadProgram(hermes::testbed::kAppendixProgram);
}

/// The two rope-scenario workloads share the equivalence pair and the
/// reference mediator.
class RopeWorkload : public Workload {
 public:
  Result<std::unique_ptr<Mediator>> BuildTestbed() const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    HERMES_RETURN_IF_ERROR(hermes::testbed::SetupRopeScenario(med.get(), {}));
    return med;
  }

  Result<std::unique_ptr<Mediator>> BuildReplica(
      SourceClock* clock) const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    HERMES_RETURN_IF_ERROR(WireRope(med.get(), clock, 0));
    return med;
  }

  Result<std::unique_ptr<Mediator>> BuildReference() const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    HERMES_RETURN_IF_ERROR(med->RegisterDomain(
        "video", std::make_shared<hermes::avis::AvisDomain>(
                     "avis", hermes::testbed::MakeRopeVideoDatabase())));
    HERMES_RETURN_IF_ERROR(med->RegisterDomain(
        "relation", std::make_shared<hermes::relational::RelationalDomain>(
                        "ingres", hermes::testbed::MakeCastDatabase())));
    HERMES_RETURN_IF_ERROR(
        med->LoadProgram(hermes::testbed::kAppendixProgram));
    return med;
  }

  std::string Text(uint64_t id) const override { return texts_[id]; }
  const std::vector<hermes::lang::DomainCallSpec>& Patterns(
      uint64_t) const override {
    return patterns_;
  }

 protected:
  std::vector<std::string> texts_;  ///< Indexed by query id.
  std::vector<hermes::lang::DomainCallSpec> patterns_;
};

/// The DCSM as a long-running mediator runs it (paper Section 6.2): cost
/// estimates come from summary tables that fold in every new record,
/// instead of from a scan over every record ever made, whose cost grows
/// with the length of the run and never reaches a steady state. Called
/// after warm-up, so every call group of the workload has records.
Status SummarizeStatistics(Mediator* med, bool fully_lossy) {
  hermes::dcsm::Dcsm& dcsm = med->dcsm();
  dcsm.options().auto_update_summaries = true;
  dcsm.options().use_raw_database = false;
  return fully_lossy ? dcsm.BuildFullyLossySummaries()
                     : dcsm.BuildSummariesForProgram(med->program());
}

struct Window {
  int64_t first = 0;
  int64_t last = 0;
};

/// Runs `count` warm-up queries of `w` with its drive options.
Status WarmUp(const Workload& w, Mediator* med, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    Result<hermes::QueryResult> res =
        med->Query(w.Text(w.Draw(kWarmClient, i)), w.drive().OptionsFor(i));
    if (!res.ok()) return res.status();
  }
  return Status::OK();
}

/// appendix_mix: the paper's appendix queries over Zipf-drawn frame
/// windows, optimizer + plan cache + a video CIM far smaller than the
/// working set.
class AppendixMix : public RopeWorkload {
 public:
  static constexpr size_t kWindows = 1024;
  static constexpr size_t kCacheEntries = 128;
  static constexpr double kZipfExponent = 0.9;
  static constexpr uint64_t kWarmQueries = 512;

  explicit AppendixMix(uint64_t seed) : seed_(seed) {
    drive_.clients = 1;
    drive_.plans = true;
    // Optimizer, CIM and statistics recording are the QueryOptions
    // defaults; the plan cache is enabled at wiring time.
    uint64_t s = Mix(seed ^ 0xa99e7d1cULL);
    auto next = [&s] { return s = Mix(s); };
    // The film's objects all appear in its first ~9000 frames. A handful of
    // shared starting frames give windows that run to or past frame 129999,
    // so the clamped twins meet (the = invariant).
    std::vector<int64_t> tail_starts;
    for (int i = 0; i < 24; ++i) {
      tail_starts.push_back(1 + static_cast<int64_t>(next() % 8500));
    }
    std::vector<Window> windows;
    for (size_t i = 0; i < kWindows; ++i) {
      Window win;
      if (Unit(next()) < 0.2) {
        win.first = tail_starts[next() % tail_starts.size()];
        win.last = next() % 2 == 0
                       ? kRopeLastFrame
                       : kRopeLastFrame + 1 +
                             static_cast<int64_t>(next() % 40000);
      } else {
        // Widths log-uniform in [20, 8000] frames: narrow windows sit
        // inside wide ones (the ⊇ invariant), wide ones evict many.
        const double width = 20.0 * std::pow(400.0, Unit(next()));
        win.first = 1 + static_cast<int64_t>(next() % 8500);
        win.last = win.first + static_cast<int64_t>(width);
      }
      windows.push_back(win);
    }
    // Zipf popularity over a seeded permutation of the windows.
    rank_to_window_.resize(kWindows);
    for (size_t i = 0; i < kWindows; ++i) rank_to_window_[i] = i;
    for (size_t i = kWindows - 1; i > 0; --i) {
      std::swap(rank_to_window_[i], rank_to_window_[next() % (i + 1)]);
    }
    double total = 0.0;
    cdf_.resize(kWindows);
    for (size_t r = 0; r < kWindows; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (const Query& q : kQueries) {
      for (const Window& win : windows) {
        texts_.push_back(hermes::testbed::AppendixQuery(q.number, q.primed,
                                                        win.first, win.last));
      }
    }
    patterns_ = ParsePatterns({
        "video:frames_to_objects('rope', $b, $b)",
        "video:object_to_frames('rope', $b)",
        "video:video_size('rope')",
        "relation:equal('cast', role, $b)",
        "relation:all('cast')",
    });
  }

  const std::string& name() const override { return name_; }
  const DriveSpec& drive() const override { return drive_; }
  std::string Describe() const override {
    return "queries query1/1p/2/2p/3/4 x " + std::to_string(kWindows) +
           " frame windows, Zipf s=" + std::to_string(kZipfExponent) +
           "; video CIM bounded to " + std::to_string(kCacheEntries) +
           " entries; plan cache on; " + std::to_string(kWarmQueries) +
           " warm-up queries";
  }

  Result<std::unique_ptr<Mediator>> Build(SourceClock* clock) const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    HERMES_RETURN_IF_ERROR(WireRope(med.get(), clock, kCacheEntries));
    HERMES_RETURN_IF_ERROR(med->EnablePlanCache());
    HERMES_RETURN_IF_ERROR(WarmUp(*this, med.get(), kWarmQueries));
    HERMES_RETURN_IF_ERROR(SummarizeStatistics(med.get(), false));
    return med;
  }

  uint64_t Draw(size_t client, uint64_t seq) const override {
    const uint64_t key = StreamKey(seed_, client, seq);
    const double u = Unit(key);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const size_t window = rank_to_window_[std::min(rank, kWindows - 1)];
    const size_t query = Mix(key) % std::size(kQueries);
    return query * kWindows + window;
  }

 private:
  struct Query {
    int number;
    bool primed;
  };
  static constexpr Query kQueries[] = {{1, false}, {1, true}, {2, false},
                                       {2, true},  {3, false}, {4, false}};

  const std::string name_ = "appendix_mix";
  uint64_t seed_;
  DriveSpec drive_;
  std::vector<size_t> rank_to_window_;
  std::vector<double> cdf_;
};

/// cim_hot: query3 over a pre-warmed working set that fits an unbounded
/// CIM, optimizer off, diagnostics on — the cache-hit serving path.
class CimHot : public RopeWorkload {
 public:
  static constexpr size_t kBaseWindows = 16;
  static constexpr size_t kClampVariants = 2;  ///< Per tail window.

  explicit CimHot(uint64_t seed) : seed_(seed) {
    drive_.clients = 2;
    drive_.options.use_optimizer = false;
    // The hit path alone: no DCSM writes (they are measured on the other
    // two workloads).
    drive_.stats_every = 0;
    uint64_t s = Mix(seed ^ 0xc1a407ULL);
    auto next = [&s] { return s = Mix(s); };
    std::vector<Window> tails;
    for (size_t i = 0; i < kBaseWindows; ++i) {
      Window win;
      win.first = 1 + static_cast<int64_t>(next() % 8000);
      if (i % 2 == 0) {
        win.last = win.first + 200 + static_cast<int64_t>(next() % 3800);
      } else {
        win.last = kRopeLastFrame;
        tails.push_back(win);
      }
      texts_.push_back(WindowText(win));
    }
    // Windows reaching past the last frame: equality-invariant hits on a
    // warmed tail window, never a source call.
    for (const Window& tail : tails) {
      for (size_t v = 0; v < kClampVariants; ++v) {
        Window win = tail;
        win.last = kRopeLastFrame + 1 + static_cast<int64_t>(next() % 50000);
        texts_.push_back(WindowText(win));
      }
    }
    patterns_ = ParsePatterns({
        "video:frames_to_objects('rope', $b, $b)",
        "relation:equal('cast', role, $b)",
    });
  }

  const std::string& name() const override { return name_; }
  const DriveSpec& drive() const override { return drive_; }
  std::string Describe() const override {
    return "query3 over " + std::to_string(kBaseWindows) +
           " pre-warmed windows + " + std::to_string(texts_.size() - kBaseWindows) +
           " clamped twins; unbounded CIM; diagnostics on (bundles in memory)";
  }

  Result<std::unique_ptr<Mediator>> Build(SourceClock* clock) const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    HERMES_RETURN_IF_ERROR(WireRope(med.get(), clock, 0));
    HERMES_RETURN_IF_ERROR(med->EnableDiagnostics({}));
    for (size_t i = 0; i < kBaseWindows; ++i) {
      Result<hermes::QueryResult> res =
          med->Query(texts_[i], drive_.OptionsFor(i));
      if (!res.ok()) return res.status();
    }
    return med;
  }

  uint64_t Draw(size_t client, uint64_t seq) const override {
    return StreamKey(seed_, client, seq) % texts_.size();
  }

 private:
  static std::string WindowText(const Window& win) {
    return hermes::testbed::AppendixQuery(3, false, win.first, win.last);
  }

  const std::string name_ = "cim_hot";
  uint64_t seed_;
  DriveSpec drive_;
};

// ---- The generated overload topology ---------------------------------------

/// The testbed's echo source (work(x) → {x} at a fixed simulated cost),
/// rebuilt here because the testbed keeps its own private.
class EchoSource : public hermes::Domain {
 public:
  EchoSource(std::string name, double first_ms, double all_ms)
      : name_(std::move(name)), first_ms_(first_ms), all_ms_(all_ms) {}

  const std::string& name() const override { return name_; }
  std::vector<hermes::FunctionInfo> Functions() const override {
    return {{"work", 1, "work(x): {x}"}};
  }
  Result<hermes::CallOutput> Run(const hermes::DomainCall& call) override {
    hermes::CallOutput out;
    out.answers = {call.args[0]};
    out.first_ms = first_ms_;
    out.all_ms = all_ms_;
    return out;
  }

 private:
  std::string name_;
  double first_ms_;
  double all_ms_;
};

// Modelled on the overload chaos suite's canned plan: an outage window
// forces failovers and hedge rescues, a flaky link gives partial latency
// rings, a global latency spike pushes stragglers past the hedge trigger,
// and deadline-sized slow responses make a fast replica win hedges.
constexpr const char* kFaultPlan = R"(
seed 2026
outage  site=s2_site from=0 until=6000
flaky   site=s3_site p=0.25
latency site=* factor=2 from=0 until=15000
slow    site=s5_site extra_ms=30000 p=0.3
)";

/// fanout_faults: scatter-gather over the 32-site topology with failover
/// pairs, resilience, the overload limiter and hedging under a fault plan.
class FanoutFaults : public Workload {
 public:
  static constexpr size_t kSites = 32;
  static constexpr size_t kFanout = 8;
  static constexpr uint64_t kWarmQueries = 64;

  explicit FanoutFaults(uint64_t seed)
      : base_k_(Mix(seed ^ 0xfa0f7ULL) % (uint64_t{1} << 36)) {
    drive_.served = true;
    drive_.pool_threads = 2;
    drive_.outstanding = 4;
    drive_.options.use_optimizer = false;
    drive_.options.partial_results = true;  // a lost branch, not a lost query
    drive_.options.deadline_ms = 20000.0;
    // Statistics still flow from both workers, at a rate the database can
    // hold for a whole run.
    drive_.stats_every = 16;
    for (size_t i = 0; i < kSites; ++i) {
      std::string domain = "s";
      domain += std::to_string(i);
      info_.domains.push_back(domain);
      info_.tiers.push_back(static_cast<hermes::testbed::SiteTier>(i % 4));
      patterns_.push_back(ParsePatterns({domain + ":work($b)"}));
    }
  }

  const std::string& name() const override { return name_; }
  const DriveSpec& drive() const override { return drive_; }
  std::string Describe() const override {
    return "TopologyQuery(k, " + std::to_string(kFanout) + ") over " +
           std::to_string(kSites) +
           " sites + failover replicas, never-repeating k; resilience, "
           "limiter, hedging and a fault plan armed";
  }

  Result<std::unique_ptr<Mediator>> Build(SourceClock* clock) const override {
    HERMES_ASSIGN_OR_RETURN(std::unique_ptr<Mediator> med,
                            BuildReplica(clock));
    HERMES_RETURN_IF_ERROR(WarmUp(*this, med.get(), kWarmQueries));
    // Every query's arguments are new, so only summaries that drop the
    // argument keep a bounded number of rows.
    HERMES_RETURN_IF_ERROR(SummarizeStatistics(med.get(), true));
    return med;
  }

  Result<std::unique_ptr<Mediator>> BuildTestbed() const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    med->set_default_resilience_policy(Resilience());
    hermes::testbed::TopologyOptions topo;
    topo.num_sites = kSites;
    HERMES_RETURN_IF_ERROR(
        hermes::testbed::SetupOverloadTopology(med.get(), topo));
    HERMES_RETURN_IF_ERROR(Arm(med.get()));
    return med;
  }

  Result<std::unique_ptr<Mediator>> BuildReplica(
      SourceClock* clock) const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    med->set_default_resilience_policy(Resilience());
    const hermes::testbed::TopologyOptions topo;
    for (size_t i = 0; i < kSites; ++i) {
      const std::string& domain = info_.domains[i];
      HERMES_RETURN_IF_ERROR(med->RegisterRemoteDomain(
          domain,
          Decorate(std::make_shared<EchoSource>(domain, topo.source_first_ms,
                                                topo.source_all_ms),
                   clock),
          hermes::testbed::TierSite(info_.tiers[i], domain + "_site")));
    }
    for (size_t i = 0; i < kSites; ++i) {
      if (info_.tiers[i] == hermes::testbed::SiteTier::kFast) continue;
      const std::string alt = info_.domains[i] + "_alt";
      HERMES_RETURN_IF_ERROR(med->RegisterRemoteDomain(
          alt,
          Decorate(std::make_shared<EchoSource>(alt, topo.source_first_ms,
                                                topo.source_all_ms),
                   clock),
          hermes::testbed::TierSite(hermes::testbed::SiteTier::kFast,
                                    alt + "_site")));
      HERMES_RETURN_IF_ERROR(med->AddFailover(info_.domains[i], alt));
    }
    HERMES_RETURN_IF_ERROR(Arm(med.get()));
    return med;
  }

  Result<std::unique_ptr<Mediator>> BuildReference() const override {
    auto med = std::make_unique<Mediator>(kNetworkSeed);
    const hermes::testbed::TopologyOptions topo;
    for (const std::string& domain : info_.domains) {
      HERMES_RETURN_IF_ERROR(med->RegisterDomain(
          domain, std::make_shared<EchoSource>(domain, topo.source_first_ms,
                                               topo.source_all_ms)));
    }
    return med;
  }

  uint64_t Draw(size_t client, uint64_t seq) const override {
    return base_k_ + (static_cast<uint64_t>(client) << 44) + seq;
  }
  std::string Text(uint64_t id) const override {
    return hermes::testbed::TopologyQuery(info_, id, kFanout);
  }
  const std::vector<hermes::lang::DomainCallSpec>& Patterns(
      uint64_t id) const override {
    return patterns_[id % kSites];
  }

 private:
  /// The overload chaos suite's resilience policy.
  static hermes::resilience::ResiliencePolicy Resilience() {
    hermes::resilience::ResiliencePolicy policy;
    policy.retry.max_retries = 1;
    policy.breaker.enabled = true;
    policy.breaker.failure_threshold = 3;
    policy.breaker.probe_interval = 1e9;  // no probe within a query
    policy.call_deadline_ms = 10000.0;    // abandons the 30 s slow responses
    return policy;
  }

  /// Async scatter-gather, per-query network RNG, the overload policy of
  /// bench/overload.cc (scaled to this fanout) and the fault plan.
  static Status Arm(Mediator* med) {
    med->set_per_query_network_rng(true);
    med->set_async_execution(true);
    hermes::overload::OverloadPolicy policy;
    policy.limiter.enabled = true;
    policy.limiter.initial_limit = static_cast<double>(kFanout);
    policy.limiter.max_limit = static_cast<double>(2 * kFanout);
    policy.limiter.min_limit = 4.0;
    policy.limiter.multiplicative_decrease = 0.7;
    policy.hedge.enabled = true;
    policy.hedge.quantile = 0.97;
    policy.hedge.min_samples = 6;
    policy.hedge.baseline_trigger_factor = 3.0;
    policy.hedge.budget_percent = 4;
    // The brownout ladder aggregates shed rates across queries, so its
    // level would depend on thread timing; freeze it (as the overload
    // chaos suite does) to keep every query's outcome a function of its
    // own calls.
    hermes::overload::BrownoutController::Options frozen;
    frozen.up_threshold = 2.0;
    HERMES_RETURN_IF_ERROR(med->EnableOverloadControl(policy, frozen));
    HERMES_ASSIGN_OR_RETURN(hermes::net::FaultPlan plan,
                            hermes::net::FaultPlan::Parse(kFaultPlan));
    return med->SetFaultPlan(std::move(plan));
  }

  const std::string name_ = "fanout_faults";
  uint64_t base_k_;
  DriveSpec drive_;
  hermes::testbed::TopologyInfo info_;
  std::vector<std::vector<hermes::lang::DomainCallSpec>> patterns_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "appendix_mix") return std::make_unique<AppendixMix>(seed);
  if (name == "cim_hot") return std::make_unique<CimHot>(seed);
  if (name == "fanout_faults") return std::make_unique<FanoutFaults>(seed);
  return nullptr;
}

}  // namespace perfbench
