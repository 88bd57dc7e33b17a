#include "cim/cache_interceptor.h"

#include "obs/flight_recorder.h"

namespace hermes::cim {

namespace {

const char* OutcomeName(CimOutcome outcome) {
  switch (outcome) {
    case CimOutcome::kExactHit: return "exact-hit";
    case CimOutcome::kEqualityHit: return "equality-hit";
    case CimOutcome::kPartialHit: return "partial-hit";
    case CimOutcome::kMiss: return "miss";
  }
  return "unknown";
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
  const double t_open = ctx.now_ms;
  const uint32_t lookup =
      ctx.Emit(obs::FlightEventKind::kCacheLookupBegin, t_open);
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
  if (ctx.observed()) {
    // The lookup's end event carries its outcome; a failed lookup's detail
    // is "<outcome>:<cause>".
    obs::FlightEvent end = obs::FlightEvent::End(
        obs::FlightEventKind::kCacheLookupEnd, lookup, t_open);
    end.set_domain(call.domain);
    if (out.ok()) {
      end.sim_ms = t_open + out->all_ms;
      end.set_detail(OutcomeName(outcome));
      end.aux = out->degraded ? 1 : 0;
    } else {
      end.set_failed(std::string(OutcomeName(outcome)) + ":" +
                         std::string(ctx.failure_cause()),
                     ctx.last_failure_site);
    }
    ctx.Emit(end);
  }
  return out;
}

}  // namespace hermes::cim
