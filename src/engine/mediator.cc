#include "engine/mediator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "cim/cache_interceptor.h"
#include "common/io.h"
#include "common/rng.h"
#include "lang/parser.h"
#include "optimizer/plan_compiler.h"

namespace hermes {

const char* QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kHigh: return "high";
    case QueryPriority::kNormal: return "normal";
    case QueryPriority::kLow: return "low";
  }
  return "unknown";
}

const char* QueryCompletenessName(QueryCompleteness c) {
  switch (c) {
    case QueryCompleteness::kComplete: return "complete";
    case QueryCompleteness::kDegraded: return "degraded";
    case QueryCompleteness::kPartial: return "partial";
  }
  return "unknown";
}

Mediator::Mediator() : Mediator(/*network_seed=*/1996) {}

Mediator::Mediator(uint64_t network_seed)
    : network_(std::make_shared<net::NetworkSimulator>(network_seed)) {
  dcsm_.BindMetrics(*metrics_);
  // Per-operator-kind execution instruments (hermes_exec_op_*), shared by
  // every query this mediator runs.
  executor_options_.op_metrics = engine::op::ExecOpMetrics::Bind(*metrics_);
  metrics_->Register("hermes_queries_total", "Queries executed to completion",
                     {}, queries_total_);
  metrics_->Register("hermes_query_failures_total",
                     "Queries that returned an error", {},
                     query_failures_total_);
  metrics_->Register("hermes_query_tf_sim_ms",
                     "Simulated time to the first answer (Tf) per query", {},
                     query_tf_sim_ms_);
  metrics_->Register("hermes_query_ta_sim_ms",
                     "Simulated time to evaluation completion (Ta) per query",
                     {}, query_ta_sim_ms_);
  metrics_->Register("hermes_replan_triggers_total",
                     "Mid-query re-optimizations triggered (breaker-open or "
                     "estimate divergence)",
                     {}, replan_triggers_total_);
  metrics_->Register("hermes_replan_splices_total",
                     "Spine subtrees re-lowered and spliced in by mid-query "
                     "re-optimization",
                     {}, replan_splices_total_);
  metrics_->Register(
      "hermes_dcsm_estimate_rel_error",
      "Relative error |predicted - actual| / actual of the executed plan's "
      "DCSM cost prediction",
      {}, estimate_rel_error_);
}

Status Mediator::CheckNotServing(const char* operation) const {
  if (serving()) {
    return Status::FailedPrecondition(
        std::string(operation) +
        " is not allowed while a QueryPool is serving; wire the mediator "
        "before calling Serve()");
  }
  return Status::OK();
}

Status Mediator::RegisterDomain(const std::string& name,
                                std::shared_ptr<Domain> domain) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("RegisterDomain"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  return registry_.Register(name, std::move(domain));
}

Status Mediator::RegisterRemoteDomain(const std::string& name,
                                      std::shared_ptr<Domain> inner,
                                      net::SiteParams site) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("RegisterRemoteDomain"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  // Declarative stack: [resilience → network] over the source domain. The
  // resilience layer is always present (so its metric families exist and
  // policies can be changed later); its default policy is pass-through.
  auto link =
      std::make_shared<net::NetworkInterceptor>(std::move(site), network_);
  link->BindMetrics(*metrics_, name);
  link->set_fault_injector(fault_injector_);
  auto shield = std::make_shared<resilience::ResilienceInterceptor>(
      link->site().name, network_->seed(), link, default_resilience_policy_);
  shield->BindMetrics(*metrics_, name);
  // The overload layer sits between resilience and the link: breaker
  // probes from above are exempt from its limiter, and its hedges re-enter
  // the registry like failovers do. Default policy is pass-through.
  auto governor =
      std::make_shared<overload::OverloadInterceptor>(link->site().name);
  governor->BindMetrics(*metrics_, name);
  governor->set_policy(default_overload_policy_);
  governor->set_brownout(brownout_);
  dcsm::Dcsm* dcsm = &dcsm_;
  governor->set_baseline([dcsm](const DomainCall& call) {
    Result<dcsm::CostEstimate> est = dcsm->Cost(dcsm::PatternView(call));
    if (!est.ok() || est->source.kind == dcsm::EstimateSource::Kind::kDefault) {
      return 0.0;
    }
    return est->cost.t_all_ms;
  });
  std::string pipeline_name = inner->name() + "@" + link->site().name;
  HERMES_RETURN_IF_ERROR(registry_.Register(
      name,
      std::make_shared<PipelineDomain>(
          std::move(pipeline_name),
          std::vector<std::shared_ptr<CallInterceptor>>{shield, governor,
                                                        link},
          std::move(inner))));
  // Keep the drift tracker's (domain → site) labels current when domains
  // are registered after EnableDiagnostics.
  if (drift_ != nullptr) drift_->SetSite(name, link->site().name);
  links_[name] = std::move(link);
  resilience_layers_[name] = std::move(shield);
  overload_layers_[name] = std::move(governor);
  return Status::OK();
}

Status Mediator::EnableOverloadControl(
    const overload::OverloadPolicy& policy,
    const overload::BrownoutController::Options& brownout) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnableOverloadControl"));
  default_overload_policy_ = policy;
  brownout_ = std::make_shared<overload::BrownoutController>(brownout);
  brownout_->BindMetrics(*metrics_);
  brownout_->set_transition_hook([this](int from, int to, double shed_rate) {
    // Queries hold wiring_mu_ shared for their whole run, so recorder_ and
    // diag_ cannot be rewired out from under a firing hook.
    if (recorder_ != nullptr) {
      // A process-level event: query 0, taking no seq from any query.
      obs::FlightEvent ev =
          obs::FlightEvent::At(obs::FlightEventKind::kBrownout, 0.0);
      ev.set_detail(
          std::string(overload::BrownoutController::LevelName(from)) + "->" +
          overload::BrownoutController::LevelName(to));
      ev.value = shed_rate;
      ev.aux = static_cast<uint64_t>(to);
      recorder_->Emit(ev);
    }
    if (diag_ != nullptr) {
      diag_->CaptureBrownoutTransition(from, to, shed_rate);
    }
  });
  for (auto& [name, governor] : overload_layers_) {
    governor->set_policy(policy);
    governor->set_brownout(brownout_);
  }
  return Status::OK();
}

overload::OverloadInterceptor* Mediator::overload_layer(
    const std::string& name) {
  auto it = overload_layers_.find(name);
  return it == overload_layers_.end() ? nullptr : it->second.get();
}

Status Mediator::EnableDiagnostics(const DiagnosticsOptions& options) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnableDiagnostics"));
  // Tear the borrower down before replacing what it borrows. The new
  // recorder re-binds (replaces) the registry's callback gauges before the
  // old recorder is destroyed, so an exposition never reads a dead one.
  diag_.reset();
  auto recorder = std::make_unique<obs::FlightRecorder>(options.ring_capacity);
  recorder->BindMetrics(*metrics_);
  recorder_ = std::move(recorder);
  drift_ = std::make_unique<dcsm::DriftTracker>(options.drift,
                                                recorder_.get());
  drift_->BindMetrics(metrics_);
  for (const auto& [name, link] : links_) {
    drift_->SetSite(name, link->site().name);
  }
  diag_ = std::make_unique<DiagnosticsCenter>(options, recorder_.get(),
                                              drift_.get(), metrics_);
  WireDriftInvalidation();
  return Status::OK();
}

Status Mediator::EnablePlanCache() {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnablePlanCache"));
  plan_cache_ = std::make_unique<optimizer::PlanCache>();
  plan_cache_->BindMetrics(*metrics_);
  WireDriftInvalidation();
  return Status::OK();
}

void Mediator::WireDriftInvalidation() {
  if (drift_ == nullptr || plan_cache_ == nullptr) return;
  optimizer::PlanCache* cache = plan_cache_.get();
  drift_->set_exceeded_hook([cache](const std::string& site,
                                    const std::string& domain,
                                    const std::string& /*adorn*/) {
    cache->InvalidateDrift(site, domain);
  });
}

std::string Mediator::PlanCacheOptionsTag(const QueryOptions& options) {
  std::string tag = options.use_optimizer ? "opt" : "raw";
  if (options.use_cim) tag += "+cim";
  if (options.cim_only) tag += "+cimonly";
  if (options.goal == optimizer::OptimizationGoal::kFirstAnswer) tag += "+tf";
  return tag;
}

std::string Mediator::SiteOf(const std::string& domain) const {
  std::string logical =
      domain.rfind("cim_", 0) == 0 ? domain.substr(4) : domain;
  auto it = links_.find(logical);
  return it == links_.end() ? "" : it->second->site().name;
}

std::vector<optimizer::PlanCacheDep> Mediator::CollectPlanDeps(
    const optimizer::CandidatePlan& plan) const {
  std::vector<optimizer::PlanCacheDep> deps;
  auto add = [this, &deps](const lang::Atom& goal) {
    if (!goal.is_domain_call()) return;
    std::string logical = goal.call.domain.rfind("cim_", 0) == 0
                              ? goal.call.domain.substr(4)
                              : goal.call.domain;
    for (const optimizer::PlanCacheDep& d : deps) {
      if (d.domain == logical) return;
    }
    // A drift exceedance on any shape of the domain's calls invalidates
    // the plan.
    deps.push_back({SiteOf(logical), std::move(logical)});
  };
  for (const lang::Atom& goal : plan.query.goals) add(goal);
  for (const lang::Rule& rule : plan.program.rules) {
    for (const lang::Atom& goal : rule.body) add(goal);
  }
  return deps;
}

Status Mediator::DumpDiagnostics(const std::string& dir) {
  std::shared_lock lock(wiring_mu_);
  if (diag_ == nullptr) {
    return Status::FailedPrecondition(
        "DumpDiagnostics requires EnableDiagnostics");
  }
  return diag_->Dump(dir);
}

dcsm::DriftReport Mediator::DriftReport() const {
  std::shared_lock lock(wiring_mu_);
  if (drift_ == nullptr) return {};
  return drift_->Report();
}

Status Mediator::SetResiliencePolicy(
    const std::string& name, const resilience::ResiliencePolicy& policy) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("SetResiliencePolicy"));
  auto it = resilience_layers_.find(name);
  if (it == resilience_layers_.end()) {
    return Status::NotFound("no remote domain '" + name +
                            "' with a resilience layer");
  }
  it->second->set_policy(policy);
  return Status::OK();
}

resilience::ResilienceInterceptor* Mediator::resilience_layer(
    const std::string& name) {
  auto it = resilience_layers_.find(name);
  return it == resilience_layers_.end() ? nullptr : it->second.get();
}

Status Mediator::AddFailover(const std::string& name,
                             const std::string& alternate) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("AddFailover"));
  auto it = resilience_layers_.find(name);
  if (it == resilience_layers_.end()) {
    return Status::NotFound("no remote domain '" + name +
                            "' with a resilience layer");
  }
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> primary,
                          registry_.Get(name));
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> backup,
                          registry_.Get(alternate));
  // The alternate must export every function the primary does — checked
  // at wiring time so a failover never dangles at query time.
  std::vector<FunctionInfo> exported = backup->Functions();
  for (const FunctionInfo& fn : primary->Functions()) {
    bool found = false;
    for (const FunctionInfo& alt : exported) {
      if (alt.name == fn.name && alt.arity == fn.arity) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "failover target '" + alternate + "' does not export " + fn.name +
          "/" + std::to_string(fn.arity) + " required by '" + name + "'");
    }
  }
  DomainRegistry* registry = &registry_;
  it->second->set_failover(
      [registry, alternate](CallContext& ctx, const DomainCall& call) {
        DomainCall rerouted = call;
        rerouted.domain = alternate;
        return registry->Run(ctx, rerouted);
      });
  // The same replica doubles as the hedge route: calls with a registered
  // failover replica are the ones eligible for speculative hedging (same
  // no-cycles caveat as failover).
  auto governor = overload_layers_.find(name);
  if (governor != overload_layers_.end()) {
    governor->second->set_hedge_route(
        [registry, alternate](CallContext& ctx, const DomainCall& call) {
          DomainCall rerouted = call;
          rerouted.domain = alternate;
          return registry->Run(ctx, rerouted);
        });
  }
  return Status::OK();
}

Status Mediator::SetFaultPlan(net::FaultPlan plan) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("SetFaultPlan"));
  fault_injector_ =
      plan.empty() ? nullptr
                   : std::make_shared<const net::FaultInjector>(std::move(plan));
  for (auto& [name, link] : links_) link->set_fault_injector(fault_injector_);
  return Status::OK();
}

Status Mediator::LoadFaultPlan(const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(net::FaultPlan plan, net::FaultPlan::Load(path));
  return SetFaultPlan(std::move(plan));
}

Status Mediator::EnableCaching(const std::string& name,
                               cim::CimOptions options,
                               cim::CimCostParams params,
                               size_t cache_max_entries,
                               size_t cache_max_bytes, size_t cache_shards) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("EnableCaching"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> inner, registry_.Get(name));
  std::string cim_name = "cim_" + name;
  auto cim_domain = std::make_shared<cim::CimDomain>(
      cim_name, name, inner, options, params, cache_max_entries,
      cache_max_bytes, cache_shards);
  cim_domain->BindMetrics(*metrics_);

  // Declarative stack: [cache] prepended to the wrapped entry's own stack
  // (so e.g. "cim_video" = cache → network → avis). The shared CIM state
  // lives in cim_domain; the interceptor is its pipeline entry path.
  std::vector<std::shared_ptr<CallInterceptor>> stack;
  stack.push_back(std::make_shared<cim::CacheInterceptor>(cim_domain));
  std::shared_ptr<Domain> terminal = std::move(inner);
  if (auto* wrapped = dynamic_cast<PipelineDomain*>(terminal.get())) {
    for (const auto& layer : wrapped->stack()) stack.push_back(layer);
    terminal = wrapped->terminal();
  }
  registry_.RegisterOrReplace(
      cim_name, std::make_shared<PipelineDomain>(cim_name, std::move(stack),
                                                 std::move(terminal)));
  cims_[name] = std::move(cim_domain);
  return Status::OK();
}

Status Mediator::AddInvariants(const std::string& text) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("AddInvariants"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  HERMES_ASSIGN_OR_RETURN(std::vector<lang::Invariant> invariants,
                          lang::Parser::ParseInvariants(text));
  // A CIM caches the calls of one domain, so it can only ever serve an
  // invariant whose two sides both name it.
  for (const lang::Invariant& inv : invariants) {
    if (inv.lhs.domain != inv.rhs.domain) {
      return Status::InvalidArgument(
          "invariant relates domains '" + inv.lhs.domain + "' and '" +
          inv.rhs.domain + "'; a CIM serves one domain: " + inv.ToString());
    }
    if (cims_.count(inv.lhs.domain) == 0) {
      return Status::InvalidArgument(
          "invariant targets domain '" + inv.lhs.domain +
          "' which has no CIM; call EnableCaching first: " + inv.ToString());
    }
  }
  for (lang::Invariant& inv : invariants) {
    cims_.at(inv.lhs.domain)->AddInvariant(std::move(inv));
  }
  return Status::OK();
}

Status Mediator::UseNativeCostModel(const std::string& name) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("UseNativeCostModel"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  HERMES_ASSIGN_OR_RETURN(std::shared_ptr<Domain> domain, registry_.Get(name));
  return dcsm_.RegisterNativeModel(name, std::move(domain));
}

Status Mediator::LoadProgram(const std::string& text) {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("LoadProgram"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  HERMES_ASSIGN_OR_RETURN(lang::Program parsed,
                          lang::Parser::ParseProgram(text));
  for (lang::Rule& rule : parsed.rules) {
    program_.rules.push_back(std::move(rule));
  }
  return Status::OK();
}

Status Mediator::LoadProgramFile(const std::string& path) {
  HERMES_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return LoadProgram(text);
}

Status Mediator::ClearProgram() {
  std::unique_lock lock(wiring_mu_);
  HERMES_RETURN_IF_ERROR(CheckNotServing("ClearProgram"));
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  program_.rules.clear();
  return Status::OK();
}

cim::CimDomain* Mediator::cim(const std::string& name) {
  auto it = cims_.find(name);
  return it == cims_.end() ? nullptr : it->second.get();
}

net::NetworkInterceptor* Mediator::remote_link(const std::string& name) {
  Result<std::shared_ptr<Domain>> domain = registry_.Get(name);
  if (!domain.ok()) return nullptr;
  auto* pipeline = dynamic_cast<PipelineDomain*>(domain->get());
  if (pipeline == nullptr) return nullptr;
  return dynamic_cast<net::NetworkInterceptor*>(
      pipeline->FindLayer("network"));
}

std::vector<std::string> Mediator::RemoteDomains() const {
  std::vector<std::string> out;
  out.reserve(links_.size());
  for (const auto& [name, link] : links_) out.push_back(name);
  return out;
}

std::vector<std::string> Mediator::CachedDomains() const {
  std::vector<std::string> out;
  out.reserve(cims_.size());
  for (const auto& [name, cim_domain] : cims_) out.push_back(name);
  return out;
}

optimizer::RuleRewriter::Options Mediator::EffectiveRewriterOptions(
    const QueryOptions& options) const {
  optimizer::RuleRewriter::Options rw;
  rw.cim_domains = options.use_cim ? CachedDomains() : std::vector<std::string>{};
  rw.cim_only = options.cim_only && options.use_cim;
  // Selection push-down consults the registry for exported functions.
  const DomainRegistry* registry = &registry_;
  rw.domain_has_function = [registry](const std::string& domain,
                                      const std::string& function,
                                      size_t arity) {
    Result<std::shared_ptr<Domain>> d = registry->Get(domain);
    if (!d.ok()) return false;
    for (const FunctionInfo& fn : (*d)->Functions()) {
      if (fn.name == function && fn.arity == arity) return true;
    }
    return false;
  };
  return rw;
}

Result<optimizer::OptimizerResult> Mediator::Plan(
    const std::string& query_text, const QueryOptions& options) {
  std::shared_lock lock(wiring_mu_);
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  optimizer::QueryOptimizer opt(&dcsm_, EffectiveRewriterOptions(options));
  return opt.Optimize(program_, query, options.goal);
}

Result<optimizer::CandidatePlan> Mediator::PickPlan(lang::Query query,
                                                    const QueryOptions& options,
                                                    QueryResult* result) {
  if (options.use_optimizer) {
    optimizer::QueryOptimizer opt(&dcsm_, EffectiveRewriterOptions(options));
    HERMES_ASSIGN_OR_RETURN(optimizer::PlanChoice chosen,
                            opt.Choose(program_, query, options.goal));
    if (result != nullptr) {
      result->plan_description = chosen.best.description;
      result->predicted = chosen.best.estimated;
      result->predicted_valid = chosen.best.estimatable;
      result->optimize_ms = chosen.total_estimation_ms;
      result->candidates = std::move(chosen.candidates);
    }
    return std::move(chosen.best);
  }

  // The as-written plan holds only the rules the query reaches, like every
  // optimizer candidate.
  optimizer::CandidatePlan plan;
  for (size_t r :
       optimizer::RuleRewriter::ReachableRules(program_, query.goals)) {
    plan.program.rules.push_back(program_.rules[r]);
  }
  plan.query = std::move(query);
  plan.description = "as-written";
  if (options.use_cim && !cims_.empty()) {
    std::vector<std::string> cached = CachedDomains();
    optimizer::RuleRewriter::RedirectToCim(&plan.query.goals, cached);
    for (lang::Rule& rule : plan.program.rules) {
      optimizer::RuleRewriter::RedirectToCim(&rule.body, cached);
    }
    plan.description = "as-written+cim";
  }
  if (result != nullptr) result->plan_description = plan.description;
  return plan;
}

Result<std::string> Mediator::Explain(const std::string& query_text,
                                      const QueryOptions& options) {
  std::shared_lock lock(wiring_mu_);
  HERMES_ASSIGN_OR_RETURN(lang::Query query,
                          lang::Parser::ParseQuery(query_text));
  HERMES_ASSIGN_OR_RETURN(
      optimizer::CandidatePlan plan,
      PickPlan(std::move(query), options, /*result=*/nullptr));
  engine::op::CompileOptions compile_options;
  compile_options.async_scatter_gather = async_execution_;
  optimizer::PlanCompiler compiler(&dcsm_, compile_options);
  optimizer::CompiledPlan compiled = compiler.Compile(std::move(plan));
  return compiled.Explain(/*actuals=*/false);
}

Result<QueryResult> Mediator::Query(const std::string& query_text,
                                    const QueryOptions& options) {
  // Shared hold for the whole query: wiring mutations (exclusive holders)
  // can never observe — or create — a half-wired registry mid-query.
  std::shared_lock lock(wiring_mu_);
  QueryResult result;

  // The query's events go to the caller's tracer and/or the flight
  // recorder. The query id is only reserved once a plan exists, so the
  // query and optimize spans are emitted after planning, carrying host
  // stamps taken here and around the optimizer.
  obs::EventSinks sinks{options.tracer, recorder_.get()};
  const bool observed = sinks.tracer != nullptr || sinks.ring != nullptr;
  const uint64_t host_start_ns = observed ? obs::HostNowNs() : 0;
  uint64_t host_optimize_ns = 0;
  uint64_t host_planned_ns = 0;

  // Brownout ladder: snapshot the level once per query. At kDegrade and
  // above low-priority queries lose their scatter-gather fanout (their
  // branches re-serialize, shedding concurrent source load) and every
  // query prefers stale-cache serves; hedging is off from kNoHedge up.
  const int brownout_level = brownout_ != nullptr ? brownout_->level() : 0;
  result.brownout_level = brownout_level;
  const bool brownout_force_sync =
      brownout_level >= overload::BrownoutController::kDegrade &&
      options.priority == QueryPriority::kLow;

  engine::op::CompileOptions compile_options;
  compile_options.async_scatter_gather =
      async_execution_ && !brownout_force_sync;
  compile_options.record_spine = replan_options_.enabled;

  // Plan choice. With the plan cache on, a repeat of a query text (under
  // the same query-shaping options) reuses the plan chosen for it before,
  // skipping parsing and the optimizer; a miss picks a plan and memoizes
  // it. Either way the plan is compiled under this query's own options.
  std::string cache_key;
  std::shared_ptr<const optimizer::CandidatePlan> plan;
  if (plan_cache_ != nullptr) {
    cache_key = query_text + "\n#" + PlanCacheOptionsTag(options);
    plan = plan_cache_->Lookup(cache_key);
  }
  if (plan != nullptr) {
    result.plan_cache_hit = true;
    result.plan_description = plan->description;
    result.predicted = plan->estimated;
    result.predicted_valid = plan->estimatable;
  } else {
    HERMES_ASSIGN_OR_RETURN(lang::Query query,
                            lang::Parser::ParseQuery(query_text));
    if (observed) host_optimize_ns = obs::HostNowNs();
    HERMES_ASSIGN_OR_RETURN(optimizer::CandidatePlan picked,
                            PickPlan(std::move(query), options, &result));
    if (observed) host_planned_ns = obs::HostNowNs();
    plan = std::make_shared<const optimizer::CandidatePlan>(std::move(picked));
    if (plan_cache_ != nullptr) {
      plan_cache_->Insert(cache_key, plan, CollectPlanDeps(*plan));
    }
  }
  // Lower the chosen plan to its physical operator tree; execution drives
  // the tree, and the same compiled artifact renders EXPLAIN afterwards.
  // Each call site is stamped with its DCSM estimate as it is built, but
  // only when something reads the stamps: EXPLAIN, diagnostics (drift and
  // bundles) or the replan divergence trigger.
  const bool stamp_estimates =
      options.explain || diag_ != nullptr ||
      (replan_options_.enabled && replan_options_.divergence_factor > 0.0);
  const optimizer::PlanCompiler compiler(stamp_estimates ? &dcsm_ : nullptr,
                                         compile_options);
  optimizer::CompiledPlan compiled = compiler.Compile(std::move(plan));

  // Mid-query re-optimization: arm a per-query manager over the tree's
  // join spine. Its divergence baseline is the calls' compile-time stamps
  // — never the live DCSM mid-flight — so decisions depend only on
  // per-query state and replay identically under any thread count.
  std::unique_ptr<engine::op::ReplanManager> replan;
  if (replan_options_.enabled && !compiled.tree().spine.empty()) {
    engine::op::ReplanManager::Setup setup;
    setup.program = &compiled.plan().program;
    setup.goals = &compiled.plan().query.goals;
    setup.spine = compiled.tree().spine;
    setup.compile_options = compiler.options();
    setup.site_of = [this](const std::string& domain) {
      return SiteOf(domain);
    };
    setup.cim_domains = CachedDomains();
    setup.options = replan_options_;
    replan = std::make_unique<engine::op::ReplanManager>(std::move(setup));
  }

  engine::ExecutorOptions exec_options = executor_options_;
  exec_options.mode = options.mode;
  exec_options.interactive_batch = options.interactive_batch;
  exec_options.record_statistics = options.record_statistics;
  exec_options.tolerate_source_failures =
      options.partial_results || executor_options_.tolerate_source_failures;
  engine::Executor executor(&registry_, &dcsm_, exec_options);
  CallContext ctx;
  if (options.deadline_ms > 0.0) ctx.deadline_ms = options.deadline_ms;
  ctx.prefer_stale =
      brownout_level >= overload::BrownoutController::kDegrade;
  ctx.hedging_disabled =
      brownout_level >= overload::BrownoutController::kNoHedge;
  ctx.query_id = options.query_id != 0 ? options.query_id : ReserveQueryId();
  result.query_id = ctx.query_id;
  ctx.drift = drift_.get();
  // Optimizer time and execution both start at simulated time 0 (Ta
  // excludes optimization throughout the experiment tables, so the trace
  // keeps them as sibling envelopes under the query span).
  uint32_t query_span = 0;
  if (observed) {
    ctx.sinks = &sinks;
    if (sinks.tracer != nullptr) sinks.tracer->set_query_text(query_text);
    obs::FlightEvent start =
        obs::FlightEvent::At(obs::FlightEventKind::kQueryStart, 0.0);
    start.set_detail(result.plan_description);
    start.host_ns = host_start_ns;
    query_span = ctx.Emit(start);
    if (host_planned_ns != 0 && options.use_optimizer) {
      obs::FlightEvent begin =
          obs::FlightEvent::At(obs::FlightEventKind::kOptimizeBegin, 0.0);
      begin.host_ns = host_optimize_ns;
      obs::FlightEvent end =
          obs::FlightEvent::End(obs::FlightEventKind::kOptimizeEnd,
                                ctx.Emit(begin), result.optimize_ms);
      end.set_detail(result.plan_description);
      end.aux = result.candidates.size();
      end.host_ns = host_planned_ns;
      ctx.Emit(end);
    }
    if (plan_cache_ != nullptr) {
      ctx.Emit(obs::FlightEvent::At(result.plan_cache_hit
                                        ? obs::FlightEventKind::kPlanCacheHit
                                        : obs::FlightEventKind::kPlanCacheMiss,
                                    0.0)
                   .set_detail(result.plan_description));
    }
  }

  // Per-query network randomness: the stream is a function of (base seed,
  // query id) only, so this query's simulated latencies replay identically
  // whatever other queries run concurrently.
  Rng net_stream(0);
  if (per_query_net_rng_) {
    net_stream = Rng(Rng::StreamSeed(network_->seed(), ctx.query_id));
    ctx.net_rng = &net_stream;
  }

  Result<engine::QueryExecution> executed = executor.ExecuteCompiled(
      compiled.plan().program, compiled.tree(), &ctx, replan.get());
  if (replan != nullptr && replan->replanned()) {
    result.replan_events = replan->events();
    replan_triggers_total_->Add(replan->triggers());
    replan_splices_total_->Add(replan->splices());
  }
  if (!executed.ok()) {
    query_failures_total_->Add(1);
    if (ctx.observed()) {
      // The derived span still ends no earlier than its children.
      ctx.Emit(obs::FlightEvent::End(obs::FlightEventKind::kQueryEnd,
                                     query_span, ctx.now_ms)
                   .set_failed("failed"));
    }
    return executed.status();
  }
  result.execution = std::move(executed).value();
  result.lost_sources = std::move(ctx.source_errors);
  bool any_lost = false;
  for (const SourceError& e : result.lost_sources) {
    if (!e.masked) {
      any_lost = true;
      break;
    }
  }
  if (any_lost) {
    result.completeness = QueryCompleteness::kPartial;
  } else if (!result.lost_sources.empty()) {
    result.completeness = QueryCompleteness::kDegraded;
  } else if (options.partial_results && !result.execution.complete &&
             ctx.metrics.deadline_aborts > 0) {
    // The deadline cut evaluation short without losing a specific source.
    result.completeness = QueryCompleteness::kPartial;
  }
  if (options.explain) {
    result.explain_text = compiled.Explain(/*actuals=*/true);
    for (const engine::op::ReplanEvent& ev : result.replan_events) {
      result.explain_text += ev.ToString();
    }
    if (brownout_level > 0) {
      // Only non-normal levels annotate, so goldens captured with the
      // ladder cold (or the subsystem off) stay byte-identical.
      result.explain_text +=
          "brownout: level=" + std::to_string(brownout_level) + " (" +
          overload::BrownoutController::LevelName(brownout_level) +
          ") hedging=off";
      if (brownout_level >= overload::BrownoutController::kDegrade) {
        result.explain_text += " prefer_stale=on";
      }
      if (brownout_force_sync) result.explain_text += " fanout=sequential";
      result.explain_text += "\n";
    }
  }
  result.metrics = ctx.metrics;
  result.tf_sim_ms = result.execution.t_first_ms;
  result.ta_sim_ms = result.execution.t_all_ms;

  queries_total_->Add(1);
  query_tf_sim_ms_->Observe(result.execution.t_first_ms);
  query_ta_sim_ms_->Observe(result.execution.t_all_ms);
  if (result.predicted_valid && result.execution.t_all_ms > 0.0) {
    estimate_rel_error_->Observe(
        std::abs(result.predicted.t_all_ms - result.execution.t_all_ms) /
        result.execution.t_all_ms);
  }

  bool breaker_tripped = false;
  for (const auto& [site, breaker] : ctx.breaker_states) {
    if (breaker.state == CallContext::BreakerState::kOpen) {
      breaker_tripped = true;
      break;
    }
  }
  if (plan_cache_ != nullptr && breaker_tripped) {
    // Plans routing through a site whose breaker opened would re-trip it;
    // drop them so the next miss plans around the outage.
    for (const auto& [site, breaker] : ctx.breaker_states) {
      if (breaker.state != CallContext::BreakerState::kOpen) continue;
      plan_cache_->InvalidateSite(site);
      if (ctx.observed()) {
        ctx.Emit(obs::FlightEvent::At(
                     obs::FlightEventKind::kPlanCacheInvalidate,
                     result.execution.t_all_ms)
                     .set_site(site)
                     .set_detail("breaker_open"));
      }
    }
  }
  if (ctx.observed()) {
    obs::FlightEvent ev =
        obs::FlightEvent::End(obs::FlightEventKind::kQueryEnd, query_span,
                              result.execution.t_all_ms);
    ev.set_detail(QueryCompletenessName(result.completeness));
    ev.value = result.execution.t_all_ms;
    ev.aux = result.execution.answers.size();
    ctx.Emit(ev);
  }
  if (diag_ != nullptr) {
    DiagnosticsCaptureInput capture;
    capture.query_id = ctx.query_id;
    capture.query_text = query_text;
    capture.t_all_ms = result.execution.t_all_ms;
    capture.completeness = QueryCompletenessName(result.completeness);
    capture.degraded = result.completeness == QueryCompleteness::kDegraded;
    capture.partial = result.completeness == QueryCompleteness::kPartial;
    capture.breaker_tripped = breaker_tripped;
    for (const engine::op::ReplanEvent& ev : result.replan_events) {
      capture.replan_text += ev.ToString();
    }
    capture.explain_fn = [&compiled] { return compiled.Explain(true); };
    capture.root = compiled.tree().root.get();
    diag_->MaybeCapture(capture);
  }

  if (pacing_scale_ > 0.0) {
    // Realize the simulated service time as wall-clock wait (scaled), so
    // concurrent callers overlap their waits like clients of a real
    // mediator blocked on remote sources would.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        result.execution.t_all_ms * pacing_scale_));
  }
  return result;
}

}  // namespace hermes
