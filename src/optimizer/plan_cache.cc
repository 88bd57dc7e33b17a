#include "optimizer/plan_cache.h"

#include <iterator>
#include <utility>

namespace hermes::optimizer {

std::shared_ptr<const CandidatePlan> PlanCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_->Add();
    return nullptr;
  }
  hits_->Add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->plan;
}

void PlanCache::Insert(const std::string& key,
                       std::shared_ptr<const CandidatePlan> plan,
                       std::vector<PlanCacheDep> deps) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return;
  if (lru_.size() >= kCapacity) {
    EraseLocked(std::prev(lru_.end()));
    evictions_->Add();
  }
  lru_.push_front(Entry{key, std::move(plan), std::move(deps)});
  index_.emplace(lru_.front().key, lru_.begin());
}

void PlanCache::EraseLocked(LruList::iterator it) {
  index_.erase(it->key);
  lru_.erase(it);
}

void PlanCache::InvalidateMatching(
    const std::function<bool(const PlanCacheDep&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    for (const PlanCacheDep& dep : it->deps) {
      if (pred(dep)) {
        EraseLocked(it);
        invalidations_->Add();
        break;
      }
    }
    it = next;
  }
}

void PlanCache::InvalidateSite(const std::string& site) {
  InvalidateMatching(
      [&site](const PlanCacheDep& dep) { return dep.site == site; });
}

void PlanCache::InvalidateDrift(const std::string& site,
                                const std::string& domain) {
  InvalidateMatching([&](const PlanCacheDep& dep) {
    if (!dep.site.empty() && !site.empty() && dep.site != site) return false;
    return dep.domain == domain;
  });
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.invalidations = invalidations_->Value();
  stats.evictions = evictions_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  stats.entries = lru_.size();
  return stats;
}

void PlanCache::BindMetrics(obs::MetricsRegistry& registry) {
  hits_ = registry.GetOrAddCounter("hermes_plan_cache_hits_total",
                                   "Plan cache lookups served from cache");
  misses_ = registry.GetOrAddCounter(
      "hermes_plan_cache_misses_total",
      "Plan cache lookups that fell through to the optimizer");
  invalidations_ = registry.GetOrAddCounter(
      "hermes_plan_cache_invalidations_total",
      "Entries invalidated by drift exceedance or breaker-open sites");
  evictions_ = registry.GetOrAddCounter("hermes_plan_cache_evictions_total",
                                        "Entries evicted by LRU");
  registry.RegisterCallbackGauge("hermes_plan_cache_entries",
                                 "Live plan cache entries", {}, [this]() {
                                   std::lock_guard<std::mutex> lock(mu_);
                                   return static_cast<double>(lru_.size());
                                 });
}

}  // namespace hermes::optimizer
