#include "cim/cache_interceptor.h"

#include "obs/flight_recorder.h"

namespace hermes::cim {

namespace {

obs::CacheLookup LookupOf(CimOutcome outcome) {
  switch (outcome) {
    case CimOutcome::kExactHit: return obs::CacheLookup::kExactHit;
    case CimOutcome::kEqualityHit: return obs::CacheLookup::kEqualityHit;
    case CimOutcome::kPartialHit: return obs::CacheLookup::kPartialHit;
    case CimOutcome::kMiss: return obs::CacheLookup::kMiss;
  }
  return obs::CacheLookup::kMiss;
}

}  // namespace

const std::string& CacheInterceptor::name() const {
  static const std::string kName = "cache";
  return kName;
}

Result<CallOutput> CacheInterceptor::Intercept(CallContext& ctx,
                                               const DomainCall& call,
                                               const Next& next) {
  // The outcome is reported per call rather than inferred by diffing the
  // CIM's shared counters, which would misattribute concurrent queries'
  // hits and misses to each other.
  CimOutcome outcome = CimOutcome::kMiss;
  Result<CallOutput> out = cim_->RunWith(
      call,
      [&ctx, &next](const DomainCall& actual) { return next(ctx, actual); },
      &outcome, ctx.prefer_stale);

  if (outcome == CimOutcome::kMiss) {
    ++ctx.metrics.cache_misses;
  } else {
    ++ctx.metrics.cache_hits;
  }
  if (out.ok() && out->degraded) {
    // Cached answers stood in for an unreachable source: the query still
    // succeeds, but its completeness is reported as degraded. Flip the
    // underlying failure's source error to masked (or record one if no
    // resilience layer ran below us).
    ++ctx.metrics.degraded_calls;
    bool masked = false;
    for (auto it = ctx.source_errors.rbegin(); it != ctx.source_errors.rend();
         ++it) {
      if (it->function == call.function && !it->masked) {
        it->masked = true;
        masked = true;
        break;
      }
    }
    if (!masked) {
      SourceError err;
      err.site = ctx.last_failure_site;
      err.domain = cim_->inner() != nullptr ? cim_->inner()->name()
                                            : call.domain;
      err.function = call.function;
      err.cause = ctx.last_failure_cause.empty() ? "unavailable"
                                                 : ctx.last_failure_cause;
      err.message = "served degraded answers from cache";
      err.t_ms = ctx.now_ms;
      err.masked = true;
      ctx.source_errors.push_back(std::move(err));
    }
  }
  // The call's end event carries the lookup: it emits no events of its own.
  ctx.cache_lookup = LookupOf(outcome);
  ctx.cache_degraded = out.ok() && out->degraded;
  return out;
}

}  // namespace hermes::cim
