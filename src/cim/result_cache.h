#ifndef HERMES_CIM_RESULT_CACHE_H_
#define HERMES_CIM_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/intrusive_map.h"
#include "common/result.h"
#include "domain/call.h"
#include "obs/metrics.h"

namespace hermes::cim {

/// What the cache holds for one domain call — Section 4's cache element
/// without its key. Lookups return it by value; the call it answers stays
/// in the cache.
struct CacheEntry {
  AnswerSet answers;
  bool complete = true;  ///< False when only a partial set was retained.
  size_t bytes = 0;      ///< Approximate answer-set size.
  uint64_t inserted_at = 0;  ///< Logical tick when cached (staleness).
  /// Cache sim-clock reading when cached (see AdvanceSimClock); feeds the
  /// hermes_cache_*_age_sim_ms gauges.
  double inserted_sim_ms = 0.0;
};

/// Counters exported by the result cache — a snapshot view over the
/// cache's live obs counters (the one source of truth, also exposable
/// through a MetricsRegistry via BindMetrics).
struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts refused because one entry alone exceeded a shard's byte
  /// budget (inserting it would have evicted the whole shard for nothing).
  uint64_t oversize_rejects = 0;
};

/// Lock-striped, LRU-bounded map from ground domain calls to their answer
/// sets.
///
/// The cache is split into independent shards selected by `DomainCall`
/// hash; each shard has its own mutex, LRU list and slice of the entry/byte
/// budgets, so concurrent lookups of distinct calls proceed in parallel —
/// cache hits (the paper's headline win) scale with cores instead of
/// serializing on one cache-wide lock.
///
/// Concurrency contract:
///  - Every public method is safe to call from any thread.
///  - `Get`/`Peek` return the entry BY VALUE (a snapshot taken under the
///    shard lock). The previous pointer-returning API was only valid until
///    the next `Put`/`Remove`/`Clear`, a lifetime rule that is unenforceable
///    once writers run concurrently with readers. They are keyed by a
///    `CallKey`, so a probe builds no DomainCall.
///  - `ForEach` locks one shard at a time (shard 0 upward, most- to
///    least-recently-used within a shard) and hands `fn` references into
///    the shard, valid only during that call. It observes no cross-shard
///    atomic snapshot, and `fn` must not call back into the cache.
///
/// Bounds semantics: entry and byte budgets are divided evenly across
/// shards (rounded up), and eviction is per-shard LRU. When bounds are
/// requested without an explicit shard count the cache uses a single shard,
/// which preserves exact global-LRU eviction order; unbounded caches
/// default to `kDefaultShards`. A zero bound means unbounded.
class ResultCache {
 public:
  static constexpr size_t kDefaultShards = 16;

  /// `num_shards` = 0 picks the default: `kDefaultShards` when unbounded,
  /// 1 (exact global LRU) when any bound is set.
  ResultCache(size_t max_entries = 0, size_t max_bytes = 0,
              size_t num_shards = 0);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Inserts or replaces the entry for `call`. `now` is an optional
  /// logical timestamp enabling staleness bounds (see CimOptions). An
  /// entry whose answers alone exceed the shard byte budget is rejected
  /// (counted in `oversize_rejects`) instead of evicting every resident
  /// entry on its way to being evicted itself.
  void Put(DomainCall call, AnswerSet answers, bool complete = true,
           uint64_t now = 0);

  /// Exact lookup; bumps recency. Returns a copy of the entry (taken under
  /// the shard lock), or nullopt on miss.
  std::optional<CacheEntry> Get(const CallKey& call);

  /// Exact lookup without touching recency or stats (used by invariant
  /// scans so they don't distort exact-hit statistics).
  std::optional<CacheEntry> Peek(const CallKey& call) const;

  /// Removes the entry for `call` if present.
  void Remove(const CallKey& call);

  void Clear();

  /// Calls `fn(const DomainCall& call, const CacheEntry& entry)` for each
  /// entry, shard by shard; `fn` returning false stops the scan. Does not
  /// affect recency. `fn` runs under the shard's lock, must not call back
  /// into the cache, and must not keep its references past its return.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      bool keep_going = true;
      shard->lru.ForEach([&](const Node& node) {
        keep_going = fn(node.call, node.entry);
        return keep_going;
      });
      if (!keep_going) return;
    }
  }

  /// Advances the cache-wide simulated clock entries are aged against.
  /// The CIM adds each actual call's simulated service time, so "age" is
  /// measured in accumulated source-call milliseconds — the denominator
  /// the paper's staleness discussion actually cares about — rather than
  /// wall time, which a simulator burns through in microseconds.
  void AdvanceSimClock(double delta_ms);
  double sim_clock_ms() const {
    return sim_clock_ms_.load(std::memory_order_relaxed);
  }

  size_t size() const;
  size_t total_bytes() const;
  size_t num_shards() const { return shards_.size(); }
  /// The live counters merged into one snapshot.
  ResultCacheStats stats() const;

  /// Registers the hit/miss/insertion/eviction counters plus live
  /// entry-count and byte-occupancy callback gauges with `registry`,
  /// labeled {domain=<domain>}. The gauges capture `this`, so the cache
  /// must outlive any Expose() call on the registry.
  void BindMetrics(obs::MetricsRegistry& registry, const std::string& domain);

 private:
  /// One resident entry, allocated exactly once: the payload plus both of
  /// its index memberships (hash chain + LRU links) embedded in the same
  /// block — the kernel hashtable/list_head idiom. The node-based
  /// std::unordered_map + std::list layout this replaces cost two extra
  /// allocations per entry and re-hashed the key on every touch; here the
  /// hash is computed once per operation and cached in the hash node.
  struct Node {
    DomainCall call;
    CacheEntry entry;
    IntrusiveMapNode hash_node;
    IntrusiveListNode lru_node;
  };

  struct Shard {
    mutable std::mutex mu;
    size_t total_bytes = 0;
    size_t count = 0;
    /// Σ inserted_sim_ms over resident entries, maintained incrementally
    /// so the mean-age gauge is O(1) at exposition time.
    double inserted_sim_sum_ms = 0.0;
    /// Sim-clock age of the most recent LRU victim; 0 until one exists.
    double last_evict_age_ms = 0.0;
    IntrusiveList<Node, &Node::lru_node> lru;  ///< Front = most recent.
    IntrusiveHashMap<Node, &Node::hash_node> index;
    ~Shard();
  };

  Shard& ShardFor(size_t hash) { return *shards_[hash % shards_.size()]; }
  const Shard& ShardFor(size_t hash) const {
    return *shards_[hash % shards_.size()];
  }
  /// Exact-match node for `call` (whose Hash() is `hash`), or nullptr.
  /// Caller holds the shard lock.
  static Node* FindLocked(const Shard& shard, const CallKey& call,
                          size_t hash);
  /// Unlinks and frees `node`; caller holds the shard lock.
  void RemoveNodeLocked(Shard& shard, Node* node);
  /// Evicts LRU entries until `shard` fits its budgets; caller holds lock.
  void EvictIfNeededLocked(Shard& shard);

  size_t shard_max_entries_;  ///< Per-shard entry budget (0 = unbounded).
  size_t shard_max_bytes_;    ///< Per-shard byte budget (0 = unbounded).
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Accumulated simulated source-call time (see AdvanceSimClock).
  std::atomic<double> sim_clock_ms_{0.0};

  // Live statistics (cache-wide; the obs counters stripe internally).
  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> insertions_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> evictions_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> oversize_rejects_ =
      std::make_shared<obs::Counter>();
};

}  // namespace hermes::cim

#endif  // HERMES_CIM_RESULT_CACHE_H_
