#ifndef HERMES_DOMAIN_REGISTRY_H_
#define HERMES_DOMAIN_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "domain/domain.h"    // IWYU pragma: export
#include "domain/pipeline.h"  // IWYU pragma: export

namespace hermes {

/// Name → Domain routing table used by the execution engine.
///
/// The registry owns its domains via shared_ptr so the same underlying
/// domain object can be registered under several names (e.g. a raw domain
/// plus a PipelineDomain that puts it behind a simulated site).
class DomainRegistry {
 public:
  DomainRegistry() = default;

  DomainRegistry(const DomainRegistry&) = delete;
  DomainRegistry& operator=(const DomainRegistry&) = delete;

  /// Registers `domain` under `name`. Fails if the name is taken.
  Status Register(const std::string& name, std::shared_ptr<Domain> domain);

  /// Replaces any existing registration for `name`.
  void RegisterOrReplace(const std::string& name,
                         std::shared_ptr<Domain> domain);

  /// Removes a registration; returns NotFound when absent.
  Status Unregister(const std::string& name);

  bool Has(const std::string& name) const {
    return domains_.find(name) != domains_.end();
  }

  /// Looks up the domain registered under `name`.
  Result<std::shared_ptr<Domain>> Get(const std::string& name) const;

  /// Executes a ground call by routing on call.domain, threading `ctx`
  /// through the target's interceptor stack (when it has one).
  Result<CallOutput> Run(CallContext& ctx, const DomainCall& call) const;

  /// Executes a ground call by routing on call.domain. Forwards to the
  /// context-taking overload with a default (scratch) context.
  Result<CallOutput> Run(const DomainCall& call) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::shared_ptr<Domain>> domains_;
};

}  // namespace hermes

#endif  // HERMES_DOMAIN_REGISTRY_H_
