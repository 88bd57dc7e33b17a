#ifndef HERMES_ENGINE_MEDIATOR_H_
#define HERMES_ENGINE_MEDIATOR_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cim/cim.h"
#include "common/result.h"
#include "dcsm/dcsm.h"
#include "domain/overload.h"
#include "domain/pipeline.h"
#include "domain/registry.h"
#include "domain/resilience/resilience.h"
#include "engine/diagnostics.h"
#include "engine/executor.h"
#include "engine/op/replan.h"
#include "lang/ast.h"
#include "net/faults/fault_plan.h"
#include "net/network.h"
#include "net/network_interceptor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"

namespace hermes {

class QueryPool;

/// Priority class of a query; the pool drains high before normal before
/// low, and the overload machinery sheds low first (brownout level 3).
enum class QueryPriority : uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// Stable lowercase name ("high", "normal", "low").
const char* QueryPriorityName(QueryPriority p);

/// Admission control of the QueryPool frontend (see DESIGN.md "Overload
/// control & brownout"). Off by default: the historical blocking queue.
struct AdmissionOptions {
  bool enabled = false;
  /// Shed a query at submission when its remaining deadline budget is
  /// below the queue-wait watermark (the p90 of the
  /// hermes_pool_queue_wait_ms histogram, once `watermark_min_samples`
  /// waits were observed). Deadlines are simulated ms; the watermark is
  /// host ms scaled by Mediator::service_pacing() — with pacing 0 the
  /// check is skipped (simulated time never accrues queue wait).
  bool deadline_aware = true;
  uint64_t watermark_min_samples = 32;
  /// CoDel-style queue-delay shedding at dequeue: once the sojourn time of
  /// dequeued queries stays above `codel_target_ms` for a full
  /// `codel_interval_ms`, non-high-priority queries are shed (typed
  /// kResourceExhausted) at an increasing rate until sojourn recovers.
  double codel_target_ms = 50.0;
  double codel_interval_ms = 100.0;
};

/// Sizing of the Mediator::Serve worker pool.
struct QueryPoolOptions {
  size_t num_threads = 4;
  /// Bounded submission-queue capacity; 0 sizes it to 2 × num_threads.
  /// When full, Submit blocks and TrySubmit fails fast.
  size_t queue_capacity = 0;
  AdmissionOptions admission;
};

/// Per-query options of Mediator::Query().
struct QueryOptions {
  /// Run the rewriter + cost-based optimizer; false executes the query and
  /// rules exactly as written.
  bool use_optimizer = true;
  optimizer::OptimizationGoal goal = optimizer::OptimizationGoal::kAllAnswers;
  engine::ExecutionMode mode = engine::ExecutionMode::kAllAnswers;
  size_t interactive_batch = 1;
  /// Redirect calls to CIM wrappers where one exists. With the optimizer
  /// on, both direct and CIM plans are generated and costed; with it off,
  /// every wrapped domain is redirected unconditionally.
  bool use_cim = true;
  /// With the optimizer on: emit only CIM-redirected candidate plans.
  bool cim_only = false;
  bool record_statistics = true;  ///< Feed executed calls into the DCSM.
  /// Externally assigned query id; 0 lets the mediator assign the next one.
  /// QueryPool assigns ids at submission time so a query's id — and with
  /// it, its per-query RNG stream — is independent of worker scheduling.
  uint64_t query_id = 0;
  /// When non-null, the query's events go to this tracer as well as to the
  /// flight recorder, and its spans (query → optimize / rule → domain-call
  /// → cache-lookup → network-hop) derive from them. The tracer must stay
  /// alive for the duration of the query and must not be shared between
  /// concurrent queries (it is not thread-safe).
  obs::Tracer* tracer = nullptr;
  /// Render the executed plan's operator tree — with post-run per-operator
  /// actuals — into QueryResult::explain_text. Use Mediator::Explain for
  /// EXPLAIN without execution.
  bool explain = false;
  /// Per-query deadline on the simulated clock: past it the operator tree
  /// stops issuing source calls and streaming rows. 0 (default) = none.
  /// With partial_results the answers gathered before the deadline come
  /// back marked partial; without it the query fails DeadlineExceeded.
  double deadline_ms = 0.0;
  /// Graceful degradation: a lost source contributes zero rows and the
  /// query completes with completeness=partial naming it, instead of
  /// failing. Off by default (the historical contract: lost source →
  /// failed query).
  bool partial_results = false;
  /// Priority class: drives pool queue order and what the overload
  /// machinery sheds first under brownout.
  QueryPriority priority = QueryPriority::kNormal;
};

/// How much of the full answer set a QueryResult represents.
enum class QueryCompleteness {
  kComplete,  ///< Every source answered.
  kDegraded,  ///< Outages masked by (possibly stale) cached answers.
  kPartial,   ///< Sources lost outright; answers are missing.
};

/// Stable lowercase name ("complete", "degraded", "partial").
const char* QueryCompletenessName(QueryCompleteness c);

/// The answers plus optimizer/engine diagnostics of one query.
struct QueryResult {
  engine::QueryExecution execution;
  /// One entry per candidate plan the optimizer considered (empty when it
  /// did not run): its description and, where estimatable, its estimate.
  /// Only the executed plan is materialized; Mediator::Plan returns every
  /// candidate in full.
  std::vector<optimizer::CandidateSummary> candidates;
  std::string plan_description;     ///< Which plan was executed.
  CostVector predicted;             ///< DCSM's prediction for that plan.
  bool predicted_valid = false;
  double optimize_ms = 0.0;         ///< Simulated optimizer time.
  /// Per-layer counters of this query's call path (stats/cache/
  /// resilience/overload/network: remote calls, bytes, charges...),
  /// accumulated through its CallContext.
  CallMetrics metrics;
  uint64_t query_id = 0;            ///< Id the query executed under.
  /// EXPLAIN of the executed operator tree (QueryOptions::explain).
  std::string explain_text;
  /// Complete unless sources were lost (partial) or their outages were
  /// masked with cached answers (degraded); lost_sources names them.
  QueryCompleteness completeness = QueryCompleteness::kComplete;
  std::vector<SourceError> lost_sources;
  /// The query text had a memoized plan (EnablePlanCache): parsing and the
  /// optimizer did not run and `candidates` is empty.
  bool plan_cache_hit = false;
  /// Mid-query re-optimizations this query performed (set_replan_options);
  /// each records the trigger and the before/after suffix.
  std::vector<engine::op::ReplanEvent> replan_events;
  /// The paper's response-time measures on the simulated clock, mirrored
  /// from `execution` for convenience (and observed into the
  /// hermes_query_{tf,ta}_sim_ms histograms): time to the first answer and
  /// time to evaluation completion.
  double tf_sim_ms = 0.0;
  double ta_sim_ms = 0.0;
  /// Brownout-ladder level the query executed under (0 = normal; see
  /// overload::BrownoutController). Non-zero means the mediator degraded
  /// this query's service: hedging off, and at level >= 2 stale-cache
  /// serves preferred plus (low priority) scatter-gather forced sequential.
  int brownout_level = 0;
};

/// Top-level facade of the mediator system — the public API a downstream
/// user programs against. Owns the domain registry, the network simulator,
/// the DCSM, per-domain CIM state, the optimizer and the executor.
///
/// Domains are registered as declarative interceptor stacks (PipelineDomain):
/// RegisterRemoteDomain installs [resilience → overload → network →
/// domain], EnableCaching installs [cache → resilience → overload → network
/// → domain] under "cim_<name>". At query time each DomainCallOp sends its
/// call through the registry into that stack with the query's CallContext,
/// which is where QueryResult::metrics comes from.
///
/// Concurrency model (see DESIGN.md): `Query`/`Plan` are safe to call from
/// many threads at once — every query runs on a private CallContext, and
/// the shared hot structures (result cache, DCSM, layer counters) are
/// internally synchronized. Wiring methods (Register*, EnableCaching,
/// AddInvariants, UseNativeCostModel, LoadProgram*, ClearProgram) are
/// writers on the same lock and additionally REJECTED with
/// FailedPrecondition while a QueryPool from `Serve` is live: wire first,
/// serve after. The wiring-phase mutators and accessors themselves are not
/// mutually thread-safe; configure from one thread.
///
/// Typical use:
///   Mediator med;
///   med.RegisterRemoteDomain("video", avis, net::ItalySite());
///   med.EnableCaching("video");
///   med.AddInvariants("F2 <= F1 & L1 <= L2 => "
///       "video:frames_to_objects(V,F2,L2) >= video:frames_to_objects(V,F1,L1).");
///   med.LoadProgram("actors(A) :- in(A, video:frames_to_objects('rope', 1, 9000)).");
///   auto res = med.Query("?- actors(A).", {});
class Mediator {
 public:
  Mediator();
  explicit Mediator(uint64_t network_seed);

  Mediator(const Mediator&) = delete;
  Mediator& operator=(const Mediator&) = delete;

  // ---- Domain wiring -------------------------------------------------------

  /// Registers a local (same-machine) domain under `name`.
  Status RegisterDomain(const std::string& name,
                        std::shared_ptr<Domain> domain);

  /// Registers `inner` under `name`, behind a simulated link to `site`.
  Status RegisterRemoteDomain(const std::string& name,
                              std::shared_ptr<Domain> inner,
                              net::SiteParams site);

  /// Wraps the domain registered as `name` with a CIM (cache + invariant
  /// manager), registered as "cim_<name>". Idempotent per name.
  /// `cache_shards` > 0 forces that many lock stripes in the result cache
  /// (0 = automatic: striped when unbounded, single-shard when bounded).
  Status EnableCaching(const std::string& name, cim::CimOptions options = {},
                       cim::CimCostParams params = {},
                       size_t cache_max_entries = 0,
                       size_t cache_max_bytes = 0, size_t cache_shards = 0);

  /// Parses invariants and installs each into the CIM of its domain
  /// (EnableCaching must have been called for that domain). Both sides of
  /// an invariant must name the same domain; otherwise, or when a domain
  /// has no CIM, nothing is installed and InvalidArgument is returned.
  Status AddInvariants(const std::string& text);

  /// Registers the domain's native cost model with the DCSM (the domain
  /// must return true from HasCostModel()).
  Status UseNativeCostModel(const std::string& name);

  // ---- Resilience & fault injection ---------------------------------------

  /// Policy applied to the resilience layer of every *subsequently*
  /// registered remote domain (RegisterRemoteDomain always installs one;
  /// the default policy is exact pass-through). Wiring time.
  void set_default_resilience_policy(
      const resilience::ResiliencePolicy& policy) {
    default_resilience_policy_ = policy;
  }
  const resilience::ResiliencePolicy& default_resilience_policy() const {
    return default_resilience_policy_;
  }

  /// Replaces the resilience policy of the already-registered remote
  /// domain `name`. The layer is shared with the "cim_<name>" wrapper
  /// (EnableCaching copies layer pointers), so both paths see the policy.
  Status SetResiliencePolicy(const std::string& name,
                             const resilience::ResiliencePolicy& policy);

  /// The resilience layer of the domain registered under `name`, or
  /// nullptr when the domain is local.
  resilience::ResilienceInterceptor* resilience_layer(const std::string& name);

  /// Failover rung of the degradation ladder: calls that give up on `name`
  /// (retries exhausted, breaker open) are rerouted to `alternate`, which
  /// must export every function `name` does. `alternate` must not fail
  /// over back to `name` (the ladder does not detect cycles).
  Status AddFailover(const std::string& name, const std::string& alternate);

  // ---- Overload control -------------------------------------------------------

  /// Arms the overload-control subsystem (see DESIGN.md "Overload control
  /// & brownout"): applies `policy` to the overload layer of every
  /// registered (and future) remote domain — per-site AIMD concurrency
  /// limits fed by the DCSM baseline, plus hedged requests where a
  /// failover replica is wired — and installs the brownout ladder that
  /// degrades service in steps under sustained shed pressure. Wiring time;
  /// last call wins. The default-constructed policy disarms everything.
  Status EnableOverloadControl(
      const overload::OverloadPolicy& policy,
      const overload::BrownoutController::Options& brownout = {});

  /// The overload layer of the remote domain `name`, or nullptr when local.
  overload::OverloadInterceptor* overload_layer(const std::string& name);

  /// Null until EnableOverloadControl.
  overload::BrownoutController* brownout() { return brownout_.get(); }

  /// Installs a deterministic fault-injection plan (outage windows,
  /// flakiness, latency spikes, slow responses — see net/faults/) on every
  /// registered and future remote link. An empty plan clears injection.
  Status SetFaultPlan(net::FaultPlan plan);
  /// Parses the --faults= text format (net::FaultPlan::Parse grammar).
  Status LoadFaultPlan(const std::string& path);
  const std::shared_ptr<const net::FaultInjector>& fault_injector() const {
    return fault_injector_;
  }

  // ---- Diagnostics ------------------------------------------------------------

  /// Turns on the query-level diagnostics layer (see DESIGN.md
  /// "Diagnostics & drift"): the per-thread flight recorder, the DCSM
  /// drift tracker, and the anomaly-capture policy that persists debug
  /// bundles for slow/degraded/partial/breaker-tripped queries. Wiring
  /// time; idempotent only in the sense that the last call wins.
  Status EnableDiagnostics(const DiagnosticsOptions& options = {});

  /// On-demand diagnostics snapshot: writes the resident flight-recorder
  /// events, the Prometheus exposition, the drift report and the
  /// slow-query log under `dir`. FailedPrecondition unless
  /// EnableDiagnostics was called.
  Status DumpDiagnostics(const std::string& dir);

  /// Per-(site, domain, adornment) EWMA drift of observed vs DCSM-estimated
  /// Tf/Ta/cardinality. Empty report when diagnostics are off.
  dcsm::DriftReport DriftReport() const;

  /// Null until EnableDiagnostics.
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }
  dcsm::DriftTracker* drift_tracker() { return drift_.get(); }
  DiagnosticsCenter* diagnostics() { return diag_.get(); }

  // ---- Adaptive execution -----------------------------------------------------

  /// Turns on the plan cache: a memo of the plan chosen for each exact
  /// query text under the same query-shaping options (optimizer, CIM
  /// redirection, goal). A repeat text skips parsing and the optimizer; its
  /// plan is still compiled under the query's own compile options (see
  /// DESIGN.md "Adaptive execution"). Holds at most
  /// optimizer::PlanCache::kCapacity entries, evicting the least recently
  /// used. Entries are invalidated on DCSM drift exceedances (when
  /// diagnostics are enabled) and on breaker-open sites; the wiring calls
  /// that change what the planner returns clear the cache. Wiring time.
  /// Last call wins.
  Status EnablePlanCache();

  /// Null until EnablePlanCache.
  optimizer::PlanCache* plan_cache() { return plan_cache_.get(); }

  /// Default mid-query re-optimization knobs applied to every query: when
  /// `options.enabled`, each query's spine joins re-plan the unexecuted
  /// suffix on breaker-open / estimate-divergence triggers. Decisions
  /// derive only from per-query deterministic state, so replayed runs stay
  /// bit-identical under any QueryPool thread count. Wiring time.
  void set_replan_options(const engine::op::ReplanOptions& options) {
    replan_options_ = options;
  }
  const engine::op::ReplanOptions& replan_options() const {
    return replan_options_;
  }

  // ---- Program management -----------------------------------------------------

  /// Parses `text` and appends its rules to the mediator program.
  Status LoadProgram(const std::string& text);
  /// Reads a rule file and appends its rules.
  Status LoadProgramFile(const std::string& path);
  Status ClearProgram();
  const lang::Program& program() const { return program_; }

  // ---- Querying ---------------------------------------------------------------

  Result<QueryResult> Query(const std::string& query_text,
                            const QueryOptions& options = {});

  /// Optimizes without executing (returns every candidate plan in full).
  Result<optimizer::OptimizerResult> Plan(const std::string& query_text,
                                          const QueryOptions& options = {});

  /// EXPLAIN without execution: picks the plan exactly as Query() would
  /// (optimizer/CIM redirection per `options`), compiles it to the
  /// physical operator tree and renders it — operator structure, static
  /// bound/free adornments and per-call DCSM estimates. Read-only: no
  /// domain call is issued and no statistics are recorded.
  Result<std::string> Explain(const std::string& query_text,
                              const QueryOptions& options = {});

  // ---- Concurrent serving -----------------------------------------------------

  /// Starts a worker pool serving this mediator: N clients submit query
  /// text and receive futures of QueryResult. While any pool is live the
  /// mediator's wiring is frozen (see class comment). The pool must not
  /// outlive the mediator.
  std::unique_ptr<QueryPool> Serve(QueryPoolOptions options = {});

  /// Reserves the next query id (used by QueryPool at submission time).
  uint64_t ReserveQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Per-query deterministic network randomness: each query draws its
  /// simulated jitter/availability from a stream seeded by (network seed,
  /// query id) instead of the simulator's shared sequential stream, making
  /// simulated latencies independent of thread interleaving. Off by
  /// default — the shared stream reproduces the historical experiment
  /// tables byte-for-byte. Set at wiring time.
  void set_per_query_network_rng(bool on) { per_query_net_rng_ = on; }
  bool per_query_network_rng() const { return per_query_net_rng_; }

  /// Async execution: when on, every query compiles runs of independent
  /// domain calls (no shared bound variables) into a ScatterGatherOp that
  /// issues them concurrently on the simulated clock, so the group costs
  /// max-over-branches instead of sum. Off by default — the historical
  /// sequential tree. EXPLAIN marks grouped calls `async`. Set between
  /// queries, not while any run.
  void set_async_execution(bool on) { async_execution_ = on; }
  bool async_execution() const { return async_execution_; }

  /// Wall-clock pacing: after computing a query, sleep `scale` real
  /// milliseconds per simulated millisecond of the query's latency —
  /// turning the simulated service time into actual wait, so a worker
  /// pool's threads overlap waits exactly as a real mediator's would while
  /// blocked on remote sources. 0 (default) never sleeps. Set at wiring
  /// time. The open-loop overload driver (bench/overload.cc) is its only
  /// caller outside the admission tests.
  void set_service_pacing(double scale) { pacing_scale_ = scale; }
  double service_pacing() const { return pacing_scale_; }

  /// QueryPool lifecycle hooks (public for QueryPool; not a user API).
  void BeginServing() { serving_.fetch_add(1, std::memory_order_acq_rel); }
  void EndServing() { serving_.fetch_sub(1, std::memory_order_acq_rel); }
  bool serving() const {
    return serving_.load(std::memory_order_acquire) > 0;
  }

  // ---- Introspection ------------------------------------------------------------

  dcsm::Dcsm& dcsm() { return dcsm_; }
  /// This mediator's metrics registry: every layer's instruments are
  /// registered here at wiring time; expose with metrics().Expose(...).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  std::shared_ptr<obs::MetricsRegistry> metrics_ptr() { return metrics_; }
  DomainRegistry& registry() { return registry_; }
  /// The CIM wrapper of `name`, or nullptr when caching is not enabled.
  cim::CimDomain* cim(const std::string& name);
  /// The network layer of the domain registered under `name` (the original
  /// registration name, e.g. "video"), or nullptr when the domain is local.
  /// Failure-injection scenarios use it to take a site down mid-run.
  net::NetworkInterceptor* remote_link(const std::string& name);
  /// Names of domains registered behind a remote link, one per link: sum
  /// the links' own counters over these for network totals (a "cim_"
  /// wrapper shares its domain's link, so registry names would count it
  /// twice).
  std::vector<std::string> RemoteDomains() const;
  /// Names of domains with CIM wrappers.
  std::vector<std::string> CachedDomains() const;

  engine::ExecutorOptions& executor_options() { return executor_options_; }

 private:
  /// FailedPrecondition while a QueryPool is live; called with wiring_mu_
  /// held exclusively, so acceptance means no query is in flight either.
  Status CheckNotServing(const char* operation) const;

  optimizer::RuleRewriter::Options EffectiveRewriterOptions(
      const QueryOptions& options) const;

  /// Picks the plan Query() executes for `query` under `options`: the
  /// optimizer's best plan, the only candidate it materializes, or the
  /// as-written program+query (CIM-redirected when enabled), which takes
  /// over `query` instead of copying it. When `result` is non-null its
  /// optimizer diagnostics (plan_description, predicted, candidate
  /// summaries, optimize_ms) are filled.
  /// Called with wiring_mu_ held (at least shared).
  Result<optimizer::CandidatePlan> PickPlan(lang::Query query,
                                            const QueryOptions& options,
                                            QueryResult* result);

  /// Hooks the drift tracker's exceedance callback to plan-cache
  /// invalidation. Called whenever either side is (re)wired.
  void WireDriftInvalidation();

  /// Plan-cache key tag for the query-shaping options (optimizer, CIM
  /// redirection, goal): two queries whose tags differ never share a plan.
  static std::string PlanCacheOptionsTag(const QueryOptions& options);

  /// Site serving `domain` ("cim_x" resolves as "x"); "" for local/unknown.
  std::string SiteOf(const std::string& domain) const;

  /// The (site, domain) pairs `plan` depends on, for cache invalidation.
  std::vector<optimizer::PlanCacheDep> CollectPlanDeps(
      const optimizer::CandidatePlan& plan) const;

  /// Wiring lock: queries hold it shared for their whole run, wiring
  /// mutations hold it exclusively — so a (rejected-path) mutation can
  /// never interleave with in-flight queries.
  mutable std::shared_mutex wiring_mu_;
  std::atomic<int> serving_{0};  ///< Live QueryPool count.

  DomainRegistry registry_;
  std::shared_ptr<net::NetworkSimulator> network_;
  dcsm::Dcsm dcsm_;
  lang::Program program_;
  std::atomic<uint64_t> next_query_id_{0};
  bool per_query_net_rng_ = false;
  bool async_execution_ = false;
  double pacing_scale_ = 0.0;
  std::map<std::string, std::shared_ptr<cim::CimDomain>> cims_;
  resilience::ResiliencePolicy default_resilience_policy_;
  std::shared_ptr<const net::FaultInjector> fault_injector_;
  /// Remote links and resilience layers by registration name, for policy
  /// updates and fault-plan fan-out (the registry only exposes Domains).
  std::map<std::string, std::shared_ptr<net::NetworkInterceptor>> links_;
  std::map<std::string, std::shared_ptr<resilience::ResilienceInterceptor>>
      resilience_layers_;
  std::map<std::string, std::shared_ptr<overload::OverloadInterceptor>>
      overload_layers_;
  overload::OverloadPolicy default_overload_policy_;
  std::shared_ptr<overload::BrownoutController> brownout_;
  engine::ExecutorOptions executor_options_;

  // Adaptive execution (EnablePlanCache / set_replan_options).
  std::unique_ptr<optimizer::PlanCache> plan_cache_;
  engine::op::ReplanOptions replan_options_;

  // Diagnostics (EnableDiagnostics). diag_ borrows recorder_ and drift_,
  // so it is declared after them: members destroy in reverse declaration
  // order, tearing the borrower down before what it borrows.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<dcsm::DriftTracker> drift_;
  std::unique_ptr<DiagnosticsCenter> diag_;

  // Observability: the per-mediator registry plus the query-level
  // instruments the Query() path maintains itself (layer-owned instruments
  // register here via the components' BindMetrics at wiring time; the
  // call-path counters live in those layers, not here).
  std::shared_ptr<obs::MetricsRegistry> metrics_ =
      std::make_shared<obs::MetricsRegistry>();
  std::shared_ptr<obs::Counter> queries_total_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> query_failures_total_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Histogram> query_tf_sim_ms_ =
      std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(1.0, 2.0, 20));
  std::shared_ptr<obs::Histogram> query_ta_sim_ms_ =
      std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(1.0, 2.0, 20));
  std::shared_ptr<obs::Histogram> estimate_rel_error_ =
      std::make_shared<obs::Histogram>(
          obs::Histogram::ExponentialBounds(0.01, 2.0, 12));
  std::shared_ptr<obs::Counter> replan_triggers_total_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> replan_splices_total_ =
      std::make_shared<obs::Counter>();
};

}  // namespace hermes

#endif  // HERMES_ENGINE_MEDIATOR_H_
