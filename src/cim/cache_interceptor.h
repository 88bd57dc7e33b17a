#ifndef HERMES_CIM_CACHE_INTERCEPTOR_H_
#define HERMES_CIM_CACHE_INTERCEPTOR_H_

#include <memory>
#include <string>

#include "cim/cim.h"
#include "domain/pipeline.h"

namespace hermes::cim {

/// The cache layer of the call pipeline: the CIM entry path.
///
/// Delegates to the shared CimDomain lookup algorithm (exact hit →
/// equality invariant → subset invariant → actual call), but routes the
/// actual call down the rest of the pipeline — so the network layer below
/// only sees calls the cache could not fully answer, and unavailability
/// surfacing from below is masked with cached results per CimOptions.
/// Cache hit/miss outcomes are attributed to the query via
/// CallContext::metrics. The layer emits no events: it leaves the lookup's
/// outcome on the context (`cache_lookup`, `cache_degraded`), and the
/// call's end event carries it.
class CacheInterceptor : public CallInterceptor {
 public:
  explicit CacheInterceptor(std::shared_ptr<CimDomain> cim)
      : cim_(std::move(cim)) {}

  const std::string& name() const override;

  Result<CallOutput> Intercept(CallContext& ctx, const DomainCall& call,
                               const Next& next) override;

  /// Cached domains have no usable native cost model: hit costs depend on
  /// cache state, not the source model (mirrors CimDomain, which never
  /// forwards HasCostModel).
  bool HasCostModel(bool inner_has) const override {
    (void)inner_has;
    return false;
  }

  const std::shared_ptr<CimDomain>& cim() const { return cim_; }

 private:
  std::shared_ptr<CimDomain> cim_;
};

}  // namespace hermes::cim

#endif  // HERMES_CIM_CACHE_INTERCEPTOR_H_
