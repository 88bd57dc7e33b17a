#include "cim/result_cache.h"

namespace hermes::cim {

namespace {

/// Splits `budget` across `shards` (rounded up so the aggregate budget is
/// never smaller than requested). Zero stays zero (unbounded).
size_t SplitBudget(size_t budget, size_t shards) {
  if (budget == 0) return 0;
  return (budget + shards - 1) / shards;
}

}  // namespace

ResultCache::Shard::~Shard() {
  // The LRU list threads through every resident node exactly once; the
  // hash index shares the same nodes, so one sweep frees everything.
  lru.ForEach([](Node& node) {
    delete &node;
    return true;
  });
}

ResultCache::ResultCache(size_t max_entries, size_t max_bytes,
                         size_t num_shards) {
  if (num_shards == 0) {
    // Bounded caches default to a single shard so eviction remains exact
    // global LRU; unbounded caches only ever gain from striping.
    num_shards = (max_entries > 0 || max_bytes > 0) ? 1 : kDefaultShards;
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_max_entries_ = SplitBudget(max_entries, num_shards);
  shard_max_bytes_ = SplitBudget(max_bytes, num_shards);
}

ResultCache::Node* ResultCache::FindLocked(const Shard& shard,
                                           const CallKey& call,
                                           size_t hash) {
  return shard.index.Find(hash,
                          [&](const Node& node) { return call == node.call; });
}

void ResultCache::Put(DomainCall call, AnswerSet answers, bool complete,
                      uint64_t now) {
  const size_t hash = call.Hash();
  const size_t bytes = AnswerSetByteSize(answers);

  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard_max_bytes_ > 0 && bytes > shard_max_bytes_) {
    // The entry alone busts the byte budget: inserting it would evict
    // every resident entry and then the entry itself — reject instead.
    if (Node* stale = FindLocked(shard, call, hash)) {
      RemoveNodeLocked(shard, stale);
    }
    oversize_rejects_->Add(1);
    return;
  }
  if (Node* old = FindLocked(shard, call, hash)) {
    RemoveNodeLocked(shard, old);
  }
  Node* node = new Node;
  node->call = std::move(call);
  node->entry.answers = std::move(answers);
  node->entry.complete = complete;
  node->entry.bytes = bytes;
  node->entry.inserted_at = now;
  node->entry.inserted_sim_ms = sim_clock_ms();
  shard.inserted_sim_sum_ms += node->entry.inserted_sim_ms;
  shard.total_bytes += bytes;
  ++shard.count;
  shard.index.Insert(node, hash);
  shard.lru.PushFront(node);
  insertions_->Add(1);
  EvictIfNeededLocked(shard);
}

std::optional<CacheEntry> ResultCache::Get(const CallKey& call) {
  const size_t hash = call.Hash();
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  Node* node = FindLocked(shard, call, hash);
  if (node == nullptr) {
    misses_->Add(1);
    return std::nullopt;
  }
  hits_->Add(1);
  shard.lru.MoveToFront(node);
  return node->entry;
}

std::optional<CacheEntry> ResultCache::Peek(const CallKey& call) const {
  const size_t hash = call.Hash();
  const Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Node* node = FindLocked(shard, call, hash);
  if (node == nullptr) return std::nullopt;
  return node->entry;
}

void ResultCache::Remove(const CallKey& call) {
  const size_t hash = call.Hash();
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (Node* node = FindLocked(shard, call, hash)) {
    RemoveNodeLocked(shard, node);
  }
}

void ResultCache::RemoveNodeLocked(Shard& shard, Node* node) {
  shard.total_bytes -= node->entry.bytes;
  shard.inserted_sim_sum_ms -= node->entry.inserted_sim_ms;
  --shard.count;
  shard.index.Remove(node);
  IntrusiveList<Node, &Node::lru_node>::Remove(node);
  delete node;
}

void ResultCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.ForEach([](Node& node) {
      delete &node;
      return true;
    });
    shard->lru.Clear();
    shard->index.Clear();
    shard->total_bytes = 0;
    shard->count = 0;
    shard->inserted_sim_sum_ms = 0.0;
  }
}

void ResultCache::AdvanceSimClock(double delta_ms) {
  if (delta_ms <= 0.0) return;
  // std::atomic<double>::fetch_add is C++20 but not universally lock-free;
  // the CAS loop compiles everywhere and the clock is advanced at most
  // once per actual source call.
  double cur = sim_clock_ms_.load(std::memory_order_relaxed);
  while (!sim_clock_ms_.compare_exchange_weak(cur, cur + delta_ms,
                                              std::memory_order_relaxed)) {
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->count;
  }
  return total;
}

size_t ResultCache::total_bytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->total_bytes;
  }
  return total;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats merged;
  merged.hits = hits_->Value();
  merged.misses = misses_->Value();
  merged.insertions = insertions_->Value();
  merged.evictions = evictions_->Value();
  merged.oversize_rejects = oversize_rejects_->Value();
  return merged;
}

void ResultCache::BindMetrics(obs::MetricsRegistry& registry,
                              const std::string& domain) {
  obs::Labels labels = {{"domain", domain}};
  registry.Register("hermes_cache_hits_total", "Exact result-cache hits",
                    labels, hits_);
  registry.Register("hermes_cache_misses_total", "Exact result-cache misses",
                    labels, misses_);
  registry.Register("hermes_cache_insertions_total",
                    "Answer sets admitted into the result cache", labels,
                    insertions_);
  registry.Register("hermes_cache_evictions_total",
                    "Entries evicted by the LRU byte/entry budgets", labels,
                    evictions_);
  registry.Register("hermes_cache_oversize_rejects_total",
                    "Inserts refused for exceeding a shard's byte budget",
                    labels, oversize_rejects_);
  registry.RegisterCallbackGauge("hermes_cache_entries",
                                 "Entries currently resident in the cache",
                                 labels, [this] {
                                   return static_cast<double>(size());
                                 });
  registry.RegisterCallbackGauge(
      "hermes_cache_bytes", "Approximate bytes currently resident", labels,
      [this] { return static_cast<double>(total_bytes()); });
  for (size_t i = 0; i < shards_.size(); ++i) {
    obs::Labels shard_labels = labels;
    shard_labels.emplace_back("shard", std::to_string(i));
    Shard* shard = shards_[i].get();
    registry.RegisterCallbackGauge(
        "hermes_cache_entry_age_sim_ms",
        "Mean sim-clock age of this shard's resident entries", shard_labels,
        [this, shard] {
          std::lock_guard<std::mutex> lock(shard->mu);
          if (shard->count == 0) return 0.0;
          return sim_clock_ms() - shard->inserted_sim_sum_ms /
                                      static_cast<double>(shard->count);
        });
    registry.RegisterCallbackGauge(
        "hermes_cache_evict_age_sim_ms",
        "Sim-clock age of this shard's most recent LRU victim", shard_labels,
        [shard] {
          std::lock_guard<std::mutex> lock(shard->mu);
          return shard->last_evict_age_ms;
        });
  }
}

void ResultCache::EvictIfNeededLocked(Shard& shard) {
  while ((shard_max_entries_ > 0 && shard.count > shard_max_entries_) ||
         (shard_max_bytes_ > 0 && shard.total_bytes > shard_max_bytes_)) {
    Node* victim = shard.lru.PopBack();
    if (victim == nullptr) return;
    shard.total_bytes -= victim->entry.bytes;
    shard.inserted_sim_sum_ms -= victim->entry.inserted_sim_ms;
    shard.last_evict_age_ms = sim_clock_ms() - victim->entry.inserted_sim_ms;
    --shard.count;
    shard.index.Remove(victim);
    delete victim;
    evictions_->Add(1);
  }
}

}  // namespace hermes::cim
