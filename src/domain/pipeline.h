#ifndef HERMES_DOMAIN_PIPELINE_H_
#define HERMES_DOMAIN_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "domain/cost.h"
#include "domain/domain.h"
#include "lang/ast.h"
#include "obs/trace.h"

namespace hermes {

// CallContext holds only a pointer to this; DomainCallOp includes the real
// header. Keeps the domain layer free of dcsm header cycles.
namespace dcsm {
class DriftTracker;
}  // namespace dcsm

/// The authoritative field lists of CallMetrics, split by type. Everything
/// that iterates the struct's fields — Merge, the coverage tests — expands
/// these macros, so adding a field here is the ONLY step needed to keep
/// them all in sync (and adding a field to the struct without adding it
/// here trips the mirror static_assert in pipeline.cc).
#define HERMES_CALL_METRICS_UINT64_FIELDS(X) \
  X(domain_calls)                            \
  X(stats_records)                           \
  X(cache_hits)                              \
  X(cache_misses)                            \
  X(remote_calls)                            \
  X(remote_failures)                         \
  X(bytes_transferred)                       \
  X(retries)                                 \
  X(breaker_shed)                            \
  X(deadline_aborts)                         \
  X(degraded_calls)                          \
  X(failovers)                               \
  X(load_shed)                               \
  X(hedges)                                  \
  X(hedge_wins)

#define HERMES_CALL_METRICS_DOUBLE_FIELDS(X) \
  X(network_charge)                          \
  X(network_ms)                              \
  X(retry_backoff_ms)

/// Per-layer counters accumulated along one query's call path. Each
/// interceptor owns a slice: the cache layer counts hit/miss outcomes, the
/// network layer traffic and charges. The engine counts dispatched calls
/// and recorded cost samples.
/// Metrics are additive, so a caller can attribute exactly what one query
/// consumed without diffing any shared counter. The layer that counts a
/// field here also counts it in its own labeled series (DESIGN.md §8);
/// summed over queries, the two agree.
///
/// Every field must be listed in HERMES_CALL_METRICS_*_FIELDS above.
struct CallMetrics {
  // Dispatch layer (the executor charging calls against the budget).
  uint64_t domain_calls = 0;
  // Cost samples recorded into the DCSM (calls and predicate invocations).
  uint64_t stats_records = 0;
  // Cache layer (exact + equality + partial hits vs. actual-call misses).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Network layer.
  uint64_t remote_calls = 0;     ///< Remote calls attempted (incl. failures).
  uint64_t remote_failures = 0;  ///< Calls lost to site unavailability.
  uint64_t bytes_transferred = 0;
  // Resilience layer.
  uint64_t retries = 0;          ///< Retry attempts after a failed call.
  uint64_t breaker_shed = 0;     ///< Calls short-circuited by an open breaker.
  uint64_t deadline_aborts = 0;  ///< Calls abandoned at a deadline.
  uint64_t degraded_calls = 0;   ///< Calls served from stale/partial material.
  uint64_t failovers = 0;        ///< Calls completed via an alternate site.
  // Overload layer.
  uint64_t load_shed = 0;    ///< Calls shed by the per-site AIMD limiter.
  uint64_t hedges = 0;       ///< Speculative hedge calls issued.
  uint64_t hedge_wins = 0;   ///< Hedges that beat the primary call.
  double network_charge = 0.0;   ///< Financial access fees accrued.
  double network_ms = 0.0;       ///< Simulated network time consumed.
  double retry_backoff_ms = 0.0; ///< Simulated backoff wait between retries.

  /// Adds `other`'s counters into this one.
  void Merge(const CallMetrics& other);
};

/// Structured record of one source the query lost — who failed, why, and
/// whether degraded material (stale/partial cache answers) stood in.
/// Accumulated on the CallContext by whichever layer gives up on a call;
/// the mediator folds the list into QueryResult::completeness.
struct SourceError {
  std::string site;      ///< Site name; empty for local/unknown sources.
  std::string domain;    ///< Registry name the call targeted.
  std::string function;  ///< Function of the lost call.
  std::string cause;     ///< "outage", "flaky", "breaker-open", "deadline"...
  std::string message;   ///< Full Status message of the final failure.
  double t_ms = 0.0;     ///< Simulated time the call was given up at.
  /// True when the answers were substituted from cache (degraded) rather
  /// than lost outright (partial).
  bool masked = false;

  std::string ToString() const;
};

/// Per-query state threaded from the executor through the registry down to
/// the leaf domain. Every layer reads the simulated clock from it and
/// accumulates its metrics into it; the caller that created the context
/// (Mediator::Query) reads the per-query attribution off it afterwards.
struct CallContext {
  /// Identifier of the query this call belongs to (0 for standalone calls).
  uint64_t query_id = 0;
  /// Simulated pipeline time at which the current call was opened.
  double now_ms = 0.0;
  /// Domain-call budget for the whole query (the runaway-query guard).
  uint64_t call_budget = std::numeric_limits<uint64_t>::max();
  /// Counters accumulated by every layer the call path crossed.
  CallMetrics metrics;
  /// Per-query network RNG stream. When non-null the network simulator
  /// draws this query's jitter/availability from it (seeded from the base
  /// seed and query id), so simulated latencies replay identically at any
  /// thread count. Null selects the simulator's shared legacy stream.
  Rng* net_rng = nullptr;
  /// Where Emit() delivers this query's events: the caller's tracer and/or
  /// the diagnostics flight recorder. Null (the default) means nobody is
  /// listening; emission sites test observed() and build no event.
  const obs::EventSinks* sinks = nullptr;
  /// Sequence number of the last event emitted. The query runs on one
  /// thread, so the numbering is deterministic regardless of QueryPool
  /// thread count or ring layout.
  uint32_t event_seq = 0;
  /// DCSM drift tracker. When non-null DomainCallOp feeds every successful
  /// call's observed [Tf Ta card] vs. its estimate stamp into it.
  dcsm::DriftTracker* drift = nullptr;

  // ---- Resilience state (per-query, so replay is thread-count-invariant).

  /// Absolute simulated-time deadline of the whole query; +inf = none.
  /// DomainCallOp observes it between Next() calls, the resilience layer
  /// before each (re)attempt.
  double deadline_ms = std::numeric_limits<double>::infinity();
  /// Attempt number of the call currently running (0 = first attempt).
  /// Set by the resilience layer's retry loop; the fault injector keys its
  /// per-attempt draws on it so a retry redraws its fate.
  uint64_t call_attempt = 0;
  /// Attribution of the most recent call failure, written by the failing
  /// layer (network: site + cause) and read by whoever gives up on the
  /// call (resilience giveup, cache-mask, engine tolerance) to name the
  /// lost source.
  std::string last_failure_site;
  std::string last_failure_cause;
  /// The cause events report for the current call's failure: the failing
  /// layer's `last_failure_cause`, or "error" when none named one (the
  /// domain itself failed).
  std::string_view failure_cause() const {
    return last_failure_cause.empty() ? std::string_view("error")
                                      : std::string_view(last_failure_cause);
  }
  /// Simulated time the most recent failed attempt cost (the retry
  /// timeout); the resilience layer charges it into the retry schedule.
  double last_call_penalty_ms = 0.0;
  /// The outcome of the current call's CIM lookup, and whether it served
  /// cached answers for an unreachable source: left by the cache layer,
  /// cleared by DomainCallOp before each call, and carried on the call's
  /// end event. The outermost lookup finishes last, so its outcome is the
  /// one that remains.
  obs::CacheLookup cache_lookup = obs::CacheLookup::kNone;
  bool cache_degraded = false;
  /// Sources this query lost (or served degraded), in failure order.
  std::vector<SourceError> source_errors;

  /// Per-site circuit-breaker state, scoped to this query: breaker
  /// decisions are then a pure function of this query's own call sequence,
  /// which is what makes transitions replay bit-identically at any
  /// QueryPool thread count (see DESIGN.md "Failure model & resilience").
  struct BreakerState {
    enum State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
    State state = kClosed;
    uint64_t consecutive_failures = 0;  ///< Failures since last success.
    uint64_t shed_since_probe = 0;      ///< Calls shed while open.
  };
  std::map<std::string, BreakerState> breaker_states;  ///< Keyed by site.

  // ---- Overload state (per-query, same determinism contract as breakers).

  /// True while the resilience layer is running a half-open breaker probe;
  /// the overload layer below exempts probes from limiter accounting so a
  /// recovering site is never starved of its probe traffic.
  bool breaker_probe = false;
  /// When true the cache layer serves stale entries as if
  /// `serve_stale_on_unavailable` were wired on — set by the mediator while
  /// the brownout ladder is at the degrade level or above.
  bool prefer_stale = false;
  /// When true the overload layer never hedges this query's calls — set by
  /// the mediator while the brownout ladder disables hedging.
  bool hedging_disabled = false;

  /// Per-site AIMD limiter + hedge-trigger state, scoped to this query so
  /// shed/hedge decisions are a pure function of the query's own call
  /// sequence on the simulated clock (bit-identical replay at any QueryPool
  /// thread count — the breaker precedent).
  struct OverloadState {
    double limit = 0.0;  ///< Current AIMD window limit (0 = uninitialized).
    /// Simulated completion times of in-window calls; entries at or before
    /// `now_ms` have drained and are pruned at the next admission check.
    std::vector<double> in_flight_until_ms;
    /// Trailing observed all_ms latencies (bounded ring, hedge trigger).
    std::vector<double> latency_window;
    size_t latency_next = 0;  ///< Next write slot in `latency_window`.
    uint64_t calls_seen = 0;  ///< Admitted calls (hedge-budget denominator).
    uint64_t hedges_issued = 0;
  };
  std::map<std::string, OverloadState> overload_states;  ///< Keyed by site.

  /// Charges one domain call against the budget; fails once exhausted.
  Status ChargeCall();

  /// True when Emit() has somewhere to deliver events.
  bool observed() const { return sinks != nullptr; }

  /// The one way a layer records anything about this query: copies `ev`
  /// into every sink, stamping each copy with the query id, the next
  /// sequence number and (unless preset) the host time. Returns the
  /// stamped seq — the `begin_seq` a span's end event quotes — or 0,
  /// emitting nothing, when the context is not observed.
  uint32_t Emit(const obs::FlightEvent& ev);
  /// Emit() of a bare `kind` event at `sim_ms` — a span end when
  /// `begin_seq` names its opener — built only when observed.
  uint32_t Emit(obs::FlightEventKind kind, double sim_ms,
                uint32_t begin_seq = 0) {
    if (!observed()) return 0;
    return Emit(obs::FlightEvent::End(kind, begin_seq, sim_ms));
  }
};

/// One composable stage of the domain-call path.
///
/// An interceptor wraps the call on its way down to the domain (and the
/// answers on their way back up): it may serve the call itself (cache hit),
/// decorate latencies (network link), or retry and reroute it (resilience,
/// overload). `next` continues with the remainder of the stack; not
/// invoking it short-circuits the call.
class CallInterceptor {
 public:
  using Next =
      std::function<Result<CallOutput>(CallContext&, const DomainCall&)>;
  using EstimateNext =
      std::function<Result<CostVector>(const lang::DomainCallSpec&)>;

  virtual ~CallInterceptor() = default;

  /// Layer name for diagnostics ("cache", "network", ...).
  virtual const std::string& name() const = 0;

  virtual Result<CallOutput> Intercept(CallContext& ctx,
                                       const DomainCall& call,
                                       const Next& next) = 0;

  /// Optimizer-time cost-model composition. `inner_has` tells whether the
  /// layers below ship a cost model; a layer that hides the model (cache)
  /// returns false, one that decorates it (network) returns `inner_has`.
  virtual bool HasCostModel(bool inner_has) const { return inner_has; }

  /// Cost estimation through this layer; the default passes through.
  virtual Result<CostVector> EstimateCost(const lang::DomainCallSpec& pattern,
                                          const EstimateNext& next) const {
    return next(pattern);
  }
};

/// An ordered interceptor stack over a terminal domain, packaged as a
/// Domain so it registers like any other (the paper's "behaves like any
/// other domain"). A call runs through the stack top first and ends at the
/// terminal.
///
/// Context-aware callers (DomainRegistry::Run with a CallContext) thread
/// their context through the stack; legacy callers get a scratch context,
/// so the answers and simulated latencies are identical either way — only
/// the per-query attribution is lost.
class PipelineDomain : public Domain {
 public:
  PipelineDomain(std::string name,
                 std::vector<std::shared_ptr<CallInterceptor>> stack,
                 std::shared_ptr<Domain> terminal);

  const std::string& name() const override { return name_; }
  std::vector<FunctionInfo> Functions() const override {
    return terminal_->Functions();
  }

  Result<CallOutput> Run(const DomainCall& call) override;
  Result<CallOutput> Run(CallContext& ctx, const DomainCall& call) override;

  /// Cost-model visibility/estimation folded through the stack, bottom-up.
  bool HasCostModel() const override;
  Result<CostVector> EstimateCost(
      const lang::DomainCallSpec& pattern) const override;

  const std::vector<std::shared_ptr<CallInterceptor>>& stack() const {
    return stack_;
  }
  const std::shared_ptr<Domain>& terminal() const { return terminal_; }

  /// First interceptor in the stack named `layer`, or nullptr. Lets callers
  /// reach a layer for scenario control (e.g. taking a site down).
  CallInterceptor* FindLayer(const std::string& layer) const;

 private:
  /// Runs `call` through the stack from layer `index` down.
  Result<CallOutput> RunFrom(size_t index, CallContext& ctx,
                             const DomainCall& call) const;

  std::string name_;
  std::vector<std::shared_ptr<CallInterceptor>> stack_;
  std::shared_ptr<Domain> terminal_;
};

}  // namespace hermes

#endif  // HERMES_DOMAIN_PIPELINE_H_
