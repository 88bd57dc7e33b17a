#include "optimizer/plan_cache.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "optimizer/rewriter.h"

namespace hermes::optimizer {

namespace {

/// Deterministic walk over every Term of a query, in the same order as
/// engine::op::QueryVariables: predicate args; domain-call output then
/// args; comparison lhs then rhs. MakeKey, Insert and Instantiate all use
/// this walk, so constant positions line up across template and instance.
template <typename Fn>
void VisitQueryTerms(lang::Query& query, Fn&& fn) {
  for (lang::Atom& goal : query.goals) {
    switch (goal.kind) {
      case lang::Atom::Kind::kPredicate:
        for (lang::Term& t : goal.args) fn(t);
        break;
      case lang::Atom::Kind::kDomainCall:
        fn(goal.output);
        for (lang::Term& t : goal.call.args) fn(t);
        break;
      case lang::Atom::Kind::kComparison:
        fn(goal.lhs);
        fn(goal.rhs);
        break;
    }
  }
}

/// True when any rule reachable from the query's predicate goals carries a
/// constant term — rebinding the query's constants cannot be proven to
/// reproduce what a fresh compile would do (the optimizer may have pushed
/// query constants into rule bodies), so such entries serve exact
/// constant matches only.
bool ReachableRulesHaveConstants(const lang::Program& program,
                                 const lang::Query& query) {
  auto has_constant = [](const lang::Atom& atom) {
    switch (atom.kind) {
      case lang::Atom::Kind::kPredicate:
        for (const lang::Term& t : atom.args) {
          if (t.is_constant()) return true;
        }
        return false;
      case lang::Atom::Kind::kDomainCall:
        if (atom.output.is_constant()) return true;
        for (const lang::Term& t : atom.call.args) {
          if (t.is_constant()) return true;
        }
        return false;
      case lang::Atom::Kind::kComparison:
        return atom.lhs.is_constant() || atom.rhs.is_constant();
    }
    return false;
  };
  for (size_t r : RuleRewriter::ReachableRules(program, query.goals)) {
    const lang::Rule& rule = program.rules[r];
    for (const lang::Term& t : rule.head.args) {
      if (t.is_constant()) return true;
    }
    for (const lang::Atom& atom : rule.body) {
      if (has_constant(atom)) return true;
    }
  }
  return false;
}

char TypeTag(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull: return 'n';
    case Value::Type::kBool: return 'b';
    case Value::Type::kInt: return 'i';
    case Value::Type::kDouble: return 'd';
    case Value::Type::kString: return 's';
    case Value::Type::kList: return 'l';
    case Value::Type::kStruct: return 't';
  }
  return '?';
}

}  // namespace

struct PlanCache::Instance {
  CompiledPlan compiled;
  /// Constant Term slots of this instance's own plan.query, in the
  /// canonical walk order (parallel to Entry::slot_to_const).
  std::vector<lang::Term*> slots;
};

struct PlanCache::Entry {
  PlanCacheKey key;
  CandidatePlan plan_template;
  std::vector<Value> template_constants;
  CostVector predicted;
  bool predicted_valid = false;
  /// Constants cannot be rebound (duplicate/unmatched values, or reachable
  /// rules with constants): serve only identical-constant queries.
  bool exact_only = false;
  /// Plan-side constant slot j rebinds from canonical constant
  /// slot_to_const[j]. Empty when exact_only.
  std::vector<size_t> slot_to_const;
  std::vector<PlanCacheDep> deps;
  std::atomic<bool> invalid{false};
  std::vector<std::unique_ptr<Instance>> pool;  ///< Guarded by shard mu.
  uint64_t tick = 0;
};

struct PlanCache::Shard {
  std::mutex mu;
  std::vector<std::shared_ptr<Entry>> entries;
  uint64_t tick = 0;
};

PlanCache::Lease::Lease() = default;
PlanCache::Lease::~Lease() = default;
PlanCache::Lease::Lease(Lease&& other) noexcept { *this = std::move(other); }

PlanCache::Lease& PlanCache::Lease::operator=(Lease&& other) noexcept {
  if (this == &other) return *this;
  entry_ = other.entry_;
  entry_guard_ = std::move(other.entry_guard_);
  instance_ = std::move(other.instance_);
  dirty_ = other.dirty_;
  other.entry_ = nullptr;
  other.dirty_ = false;
  return *this;
}

CompiledPlan* PlanCache::Lease::plan() {
  return instance_ != nullptr ? &instance_->compiled : nullptr;
}

PlanCache::PlanCache(PlanCacheOptions options, const dcsm::Dcsm* dcsm,
                     engine::op::CompileOptions compile_options)
    : options_(options) {
  compile_options.record_spine = true;  // instances host mid-query replans
  compiler_ = PlanCompiler(dcsm, compile_options);
  if (options_.shards == 0) options_.shards = 1;
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::~PlanCache() = default;

PlanCacheKey PlanCache::MakeKey(const lang::Query& query,
                                const std::string& options_tag,
                                std::vector<Value>* constants) {
  if (constants != nullptr) constants->clear();
  lang::Query masked = query;
  VisitQueryTerms(masked, [constants](lang::Term& t) {
    if (!t.is_constant()) return;
    if (constants != nullptr) constants->push_back(t.constant);
    // The mask keeps the constant's type: a plan's inferred row schema
    // pins column types from constants, so an int and a string at the
    // same position must not share an entry.
    t.constant = Value::Str(std::string("\x01") + TypeTag(t.constant));
  });
  PlanCacheKey key;
  key.text = masked.ToString();
  key.text += "\n#";
  key.text += options_tag;
  return key;
}

PlanCache::Shard& PlanCache::ShardFor(const PlanCacheKey& key) {
  // FNV-1a over the key text; shard count is small, quality is plenty.
  uint64_t h = 1469598103934665603ull;
  for (char c : key.text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return *shards_[h % shards_.size()];
}

std::unique_ptr<PlanCache::Instance> PlanCache::Instantiate(
    Entry& entry) const {
  auto instance = std::make_unique<Instance>();
  instance->compiled = compiler_.Compile(entry.plan_template);
  if (!entry.exact_only) {
    instance->slots.reserve(entry.slot_to_const.size());
    VisitQueryTerms(instance->compiled.mutable_plan()->query,
                    [&instance](lang::Term& t) {
                      if (t.is_constant()) instance->slots.push_back(&t);
                    });
  }
  return instance;
}

PlanCache::Lease PlanCache::Acquire(const PlanCacheKey& key,
                                    const std::vector<Value>& constants) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Entry> entry;
  std::unique_ptr<Instance> instance;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& e : shard.entries) {
      if (e->key == key) {
        entry = e;
        break;
      }
    }
    if (entry == nullptr || entry->invalid.load(std::memory_order_acquire)) {
      if (misses_ != nullptr) misses_->Add();
      return Lease{};
    }
    entry->tick = ++shard.tick;
    if (!entry->pool.empty()) {
      instance = std::move(entry->pool.back());
      entry->pool.pop_back();
    }
  }

  if (entry->exact_only && constants != entry->template_constants) {
    // The entry cannot be retargeted; hand the instance back untouched.
    if (instance != nullptr) {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (entry->pool.size() < options_.max_instances_per_entry) {
        entry->pool.push_back(std::move(instance));
      }
    }
    if (misses_ != nullptr) misses_->Add();
    return Lease{};
  }

  if (instance == nullptr) {
    // Pool dry: build a fresh instance outside the shard lock (the
    // skeleton is immutable, compilation is read-only over it).
    instance = Instantiate(*entry);
    if (instantiations_ != nullptr) instantiations_->Add();
  }

  if (!entry->exact_only) {
    // Rebind: compare-before-assign keeps the repeat-identical-query path
    // allocation-free (int assignment is alloc-free either way).
    for (size_t j = 0; j < instance->slots.size() &&
                       j < entry->slot_to_const.size();
         ++j) {
      const Value& v = constants[entry->slot_to_const[j]];
      lang::Term* t = instance->slots[j];
      if (!(t->constant == v)) t->constant = v;
    }
  }
  instance->compiled.tree().root->ResetStatsTree();

  if (entry->invalid.load(std::memory_order_acquire)) {
    // Invalidated while we were binding: never hand out a stale plan.
    if (misses_ != nullptr) misses_->Add();
    return Lease{};
  }

  if (hits_ != nullptr) hits_->Add();
  Lease lease;
  lease.entry_ = entry.get();
  lease.entry_guard_ = entry;
  lease.instance_ = std::move(instance);
  return lease;
}

void PlanCache::Insert(const PlanCacheKey& key,
                       const std::vector<Value>& constants,
                       const CandidatePlan& plan, const CostVector& predicted,
                       bool predicted_valid, std::vector<PlanCacheDep> deps) {
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  entry->plan_template = plan;
  entry->template_constants = constants;
  entry->predicted = predicted;
  entry->predicted_valid = predicted_valid;
  entry->deps = std::move(deps);

  // Decide rebindability: the plan's own query constants must be exactly
  // the original query's constants (a permutation of distinct values —
  // the optimizer reorders goals), and no reachable rule may carry
  // constants (pushdown moves query constants into rule bodies).
  std::vector<Value> plan_constants;
  VisitQueryTerms(entry->plan_template.query, [&plan_constants](lang::Term& t) {
    if (t.is_constant()) plan_constants.push_back(t.constant);
  });
  bool rebindable = plan_constants.size() == constants.size();
  if (rebindable) {
    for (size_t i = 0; i < constants.size() && rebindable; ++i) {
      for (size_t k = i + 1; k < constants.size(); ++k) {
        if (constants[i] == constants[k]) {
          rebindable = false;
          break;
        }
      }
    }
  }
  if (rebindable) {
    entry->slot_to_const.reserve(plan_constants.size());
    for (const Value& pv : plan_constants) {
      size_t match = constants.size();
      for (size_t i = 0; i < constants.size(); ++i) {
        if (constants[i] == pv) {
          match = i;
          break;
        }
      }
      if (match == constants.size()) {
        rebindable = false;
        break;
      }
      entry->slot_to_const.push_back(match);
    }
  }
  if (rebindable &&
      ReachableRulesHaveConstants(entry->plan_template.program,
                                  entry->plan_template.query)) {
    rebindable = false;
  }
  if (!rebindable) {
    entry->exact_only = true;
    entry->slot_to_const.clear();
  }

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto& e : shard.entries) {
    if (e->key == key) {
      if (!e->invalid.load(std::memory_order_acquire)) return;
      e = entry;  // replace the invalidated skeleton
      e->tick = ++shard.tick;
      return;
    }
  }
  if (shard.entries.size() >= options_.capacity_per_shard) {
    auto lru = std::min_element(shard.entries.begin(), shard.entries.end(),
                                [](const auto& a, const auto& b) {
                                  return a->tick < b->tick;
                                });
    if (lru != shard.entries.end()) {
      shard.entries.erase(lru);
      if (evictions_ != nullptr) evictions_->Add();
    }
  }
  entry->tick = ++shard.tick;
  shard.entries.push_back(std::move(entry));
}

void PlanCache::Release(Lease lease) {
  if (lease.entry_ == nullptr || lease.instance_ == nullptr) return;
  if (lease.dirty_ ||
      lease.entry_->invalid.load(std::memory_order_acquire)) {
    return;  // replanned or stale: drop the instance
  }
  Shard& shard = ShardFor(lease.entry_->key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (lease.entry_->invalid.load(std::memory_order_acquire)) return;
  if (lease.entry_->pool.size() < options_.max_instances_per_entry) {
    lease.entry_->pool.push_back(std::move(lease.instance_));
  }
}

void PlanCache::InvalidateMatching(
    const std::function<bool(const PlanCacheDep&)>& pred) {
  uint64_t invalidated = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->entries.begin(); it != shard->entries.end();) {
      Entry& entry = **it;
      bool hit = false;
      for (const PlanCacheDep& dep : entry.deps) {
        if (pred(dep)) {
          hit = true;
          break;
        }
      }
      if (hit && !entry.invalid.exchange(true, std::memory_order_acq_rel)) {
        ++invalidated;
        entry.pool.clear();
        it = shard->entries.erase(it);
        continue;
      }
      ++it;
    }
  }
  if (invalidated > 0 && invalidations_ != nullptr) {
    invalidations_->Add(invalidated);
  }
}

void PlanCache::InvalidateSite(const std::string& site) {
  InvalidateMatching(
      [&site](const PlanCacheDep& dep) { return dep.site == site; });
}

void PlanCache::InvalidateDrift(const std::string& site,
                                const std::string& domain,
                                const std::string& adorn) {
  InvalidateMatching([&](const PlanCacheDep& dep) {
    if (!dep.site.empty() && !site.empty() && dep.site != site) return false;
    if (dep.domain != domain) return false;
    return dep.adorn.empty() || adorn.empty() || dep.adorn == adorn;
  });
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& entry : shard->entries) {
      entry->invalid.store(true, std::memory_order_release);
      entry->pool.clear();
    }
    shard->entries.clear();
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats stats;
  stats.hits = hits_ != nullptr ? hits_->Value() : 0;
  stats.misses = misses_ != nullptr ? misses_->Value() : 0;
  stats.instantiations =
      instantiations_ != nullptr ? instantiations_->Value() : 0;
  stats.invalidations =
      invalidations_ != nullptr ? invalidations_->Value() : 0;
  stats.evictions = evictions_ != nullptr ? evictions_->Value() : 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->entries.size();
  }
  return stats;
}

void PlanCache::BindMetrics(obs::MetricsRegistry& registry) {
  hits_ = registry.GetOrAddCounter("hermes_plan_cache_hits_total",
                                   "Plan cache lookups served from cache");
  misses_ = registry.GetOrAddCounter(
      "hermes_plan_cache_misses_total",
      "Plan cache lookups that fell through to the optimizer");
  instantiations_ = registry.GetOrAddCounter(
      "hermes_plan_cache_instantiations_total",
      "Cache hits that had to lower a fresh instance (pool dry)");
  invalidations_ = registry.GetOrAddCounter(
      "hermes_plan_cache_invalidations_total",
      "Entries invalidated by drift exceedance or breaker-open sites");
  evictions_ = registry.GetOrAddCounter("hermes_plan_cache_evictions_total",
                                        "Entries evicted by per-shard LRU");
  registry.RegisterCallbackGauge("hermes_plan_cache_entries",
                                 "Live plan cache entries across shards", {},
                                 [this]() {
                                   size_t n = 0;
                                   for (const auto& shard : shards_) {
                                     std::lock_guard<std::mutex> lock(
                                         shard->mu);
                                     n += shard->entries.size();
                                   }
                                   return static_cast<double>(n);
                                 });
}

}  // namespace hermes::optimizer
