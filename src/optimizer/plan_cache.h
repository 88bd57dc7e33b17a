#ifndef HERMES_OPTIMIZER_PLAN_CACHE_H_
#define HERMES_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "optimizer/plan.h"

namespace hermes::optimizer {

/// One (site, domain) a cached plan calls. Invalidation matches these
/// against DriftTracker exceedances and breaker-open sites; an empty site
/// is a wildcard.
struct PlanCacheDep {
  std::string site;
  std::string domain;  ///< Logical domain (no "cim_" prefix).
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

/// Memo of the plan the mediator chose for each query text: the key is the
/// exact query text plus a tag of the query-shaping options, the value the
/// chosen CandidatePlan and the (site, domain) pairs it calls. A hit lets a
/// repeat query skip parsing and planning; the caller still compiles the
/// plan under its own compile options. One mutex guards the map; beyond
/// kCapacity entries the least recently looked-up one is evicted.
class PlanCache {
 public:
  static constexpr size_t kCapacity = 512;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan memoized under `key`, or null (a miss). Counts the hit or
  /// miss and marks the entry most recently used.
  std::shared_ptr<const CandidatePlan> Lookup(const std::string& key);

  /// Memoizes `plan` under `key`. No-op if the key is already present.
  void Insert(const std::string& key,
              std::shared_ptr<const CandidatePlan> plan,
              std::vector<PlanCacheDep> deps);

  /// Drops every entry depending on `site` (breaker opened there).
  void InvalidateSite(const std::string& site);

  /// Drops every entry calling `domain` at `site` — the DriftTracker
  /// exceedance hook. `domain` is the logical domain.
  void InvalidateDrift(const std::string& site, const std::string& domain);

  /// Drops every entry (wiring changed under the mediator).
  void Clear();

  PlanCacheStats stats() const;

  /// Registers the hermes_plan_cache_* family on `registry`.
  void BindMetrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CandidatePlan> plan;
    std::vector<PlanCacheDep> deps;
  };
  using LruList = std::list<Entry>;

  void InvalidateMatching(
      const std::function<bool(const PlanCacheDep&)>& pred);
  /// Removes `it` from both the index and the list. Requires mu_.
  void EraseLocked(LruList::iterator it);

  mutable std::mutex mu_;
  LruList lru_;  ///< Most recently looked up first.
  /// Keys view the owning list node's Entry::key; both are erased together.
  std::unordered_map<std::string_view, LruList::iterator> index_;

  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> invalidations_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> evictions_ = std::make_shared<obs::Counter>();
};

}  // namespace hermes::optimizer

#endif  // HERMES_OPTIMIZER_PLAN_CACHE_H_
