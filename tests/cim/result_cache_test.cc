#include "cim/result_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

namespace hermes::cim {
namespace {

DomainCall Call(int i) {
  return DomainCall{"d", "f", {Value::Int(i)}};
}

AnswerSet Answers(int n) {
  AnswerSet out;
  for (int i = 0; i < n; ++i) out.push_back(Value::Int(i));
  return out;
}

TEST(ResultCacheTest, PutAndGet) {
  ResultCache cache;
  cache.Put(Call(1), Answers(3));
  std::optional<CacheEntry> e = cache.Get(Call(1));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->answers.size(), 3u);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCacheTest, MissCountsAndReturnsNullopt) {
  ResultCache cache;
  EXPECT_FALSE(cache.Get(Call(9)).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, PutReplacesExisting) {
  ResultCache cache;
  cache.Put(Call(1), Answers(3));
  cache.Put(Call(1), Answers(5));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(Call(1))->answers.size(), 5u);
}

TEST(ResultCacheTest, PeekDoesNotTouchStats) {
  ResultCache cache;
  cache.Put(Call(1), Answers(1));
  EXPECT_TRUE(cache.Peek(Call(1)).has_value());
  EXPECT_FALSE(cache.Peek(Call(2)).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ResultCacheTest, EntryCountEviction) {
  ResultCache cache(/*max_entries=*/2);
  cache.Put(Call(1), Answers(1));
  cache.Put(Call(2), Answers(1));
  cache.Put(Call(3), Answers(1));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Peek(Call(1)).has_value());  // LRU victim
  EXPECT_TRUE(cache.Peek(Call(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, GetRefreshesRecency) {
  ResultCache cache(/*max_entries=*/2);
  cache.Put(Call(1), Answers(1));
  cache.Put(Call(2), Answers(1));
  (void)cache.Get(Call(1));  // bump 1 to the front
  cache.Put(Call(3), Answers(1));
  EXPECT_TRUE(cache.Peek(Call(1)).has_value());
  EXPECT_FALSE(cache.Peek(Call(2)).has_value());  // 2 became the victim
}

TEST(ResultCacheTest, ByteBoundEviction) {
  // Each Int answer is ~8 bytes.
  ResultCache cache(/*max_entries=*/0, /*max_bytes=*/100);
  cache.Put(Call(1), Answers(5));   // ~40 bytes
  cache.Put(Call(2), Answers(5));   // ~80 total
  cache.Put(Call(3), Answers(5));   // would exceed 100 → evict LRU
  EXPECT_LE(cache.total_bytes(), 100u);
  EXPECT_FALSE(cache.Peek(Call(1)).has_value());
}

TEST(ResultCacheTest, RemoveAndClear) {
  ResultCache cache;
  cache.Put(Call(1), Answers(2));
  cache.Put(Call(2), Answers(2));
  cache.Remove(Call(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.Remove(Call(99));  // no-op
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0u);
}

TEST(ResultCacheTest, CallKeyFindsTheCallItNames) {
  ResultCache cache(0, 0, /*num_shards=*/4);
  cache.Put(DomainCall{"d", "f", {Value::Str("a"), Value::Int(2)}},
            Answers(3));
  // The same call with its arguments gathered from two places, and with a
  // numerically equal double: both name the cached call.
  const Value a = Value::Str("a");
  const Value two = Value::Double(2.0);
  const Value* args[] = {&a, &two};
  const CallKey gathered("d", "f", args, 2);
  EXPECT_EQ(gathered.Hash(),
            (DomainCall{"d", "f", {Value::Str("a"), Value::Int(2)}}.Hash()));
  std::optional<CacheEntry> e = cache.Peek(gathered);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->answers.size(), 3u);
  const Value* other[] = {&a, &a};
  EXPECT_FALSE(cache.Peek(CallKey("d", "f", other, 2)).has_value());
  EXPECT_FALSE(cache.Peek(CallKey("e", "f", args, 2)).has_value());
}

TEST(ResultCacheTest, IncompleteEntriesKeepFlag) {
  ResultCache cache;
  cache.Put(Call(1), Answers(2), /*complete=*/false);
  EXPECT_FALSE(cache.Get(Call(1))->complete);
}

TEST(ResultCacheTest, ForEachVisitsAllAndCanStop) {
  ResultCache cache;
  cache.Put(Call(1), Answers(1));
  cache.Put(Call(2), Answers(1));
  cache.Put(Call(3), Answers(1));
  int visited = 0;
  cache.ForEach([&](const DomainCall&, const CacheEntry&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 3);
  visited = 0;
  cache.ForEach([&](const DomainCall&, const CacheEntry&) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

TEST(ResultCacheTest, TotalBytesTracksContent) {
  ResultCache cache;
  cache.Put(Call(1), Answers(10));
  size_t bytes = cache.total_bytes();
  EXPECT_GT(bytes, 0u);
  cache.Put(Call(2), Answers(10));
  EXPECT_EQ(cache.total_bytes(), 2 * bytes);
}

// --- Sharding ------------------------------------------------------------

TEST(ResultCacheTest, ShardDefaults) {
  // Unbounded caches stripe for concurrency; bounded ones default to one
  // shard so eviction stays exact global LRU.
  EXPECT_EQ(ResultCache().num_shards(), ResultCache::kDefaultShards);
  EXPECT_EQ(ResultCache(/*max_entries=*/4).num_shards(), 1u);
  EXPECT_EQ(ResultCache(0, /*max_bytes=*/100).num_shards(), 1u);
  EXPECT_EQ(ResultCache(4, 0, /*num_shards=*/8).num_shards(), 8u);
}

TEST(ResultCacheTest, ShardedCacheServesAllEntries) {
  ResultCache cache(0, 0, /*num_shards=*/4);
  for (int i = 0; i < 64; ++i) cache.Put(Call(i), Answers(i % 5 + 1));
  EXPECT_EQ(cache.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    std::optional<CacheEntry> e = cache.Get(Call(i));
    ASSERT_TRUE(e.has_value()) << "entry " << i;
    EXPECT_EQ(e->answers.size(), static_cast<size_t>(i % 5 + 1));
  }
  EXPECT_EQ(cache.stats().hits, 64u);
}

TEST(ResultCacheTest, ShardedEntryBudgetIsSplitRoundedUp) {
  // 4 entries over 4 shards = 1 per shard; aggregate capacity is at least
  // the requested bound and never more than bound rounded up per shard.
  ResultCache cache(/*max_entries=*/4, 0, /*num_shards=*/4);
  for (int i = 0; i < 100; ++i) cache.Put(Call(i), Answers(1));
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// --- Edge cases the sharding work surfaced (regression tests) ------------

TEST(ResultCacheTest, OversizedInsertIsRejectedNotLoopEvicted) {
  ResultCache cache(0, /*max_bytes=*/50);
  cache.Put(Call(1), Answers(3));  // ~24 bytes, fits
  size_t resident = cache.size();
  cache.Put(Call(2), Answers(100));  // ~800 bytes: can never fit
  // The oversized entry is refused outright instead of evicting every
  // resident entry on its way to being evicted itself.
  EXPECT_FALSE(cache.Peek(Call(2)).has_value());
  EXPECT_EQ(cache.size(), resident);
  EXPECT_TRUE(cache.Peek(Call(1)).has_value());
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, OversizedReplacementDropsTheStaleEntry) {
  ResultCache cache(0, /*max_bytes=*/50);
  cache.Put(Call(1), Answers(3));
  cache.Put(Call(1), Answers(100));  // replacement too big to admit
  // Keeping the old answers would silently serve stale data for a call the
  // caller just re-ran; the entry is dropped instead.
  EXPECT_FALSE(cache.Peek(Call(1)).has_value());
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
}

TEST(ResultCacheTest, GetReturnsSnapshotUnaffectedByLaterMutation) {
  // The old pointer-returning API was invalidated by the next Put/Remove;
  // the value snapshot must survive arbitrary later mutations.
  ResultCache cache;
  cache.Put(Call(1), Answers(4));
  std::optional<CacheEntry> snapshot = cache.Get(Call(1));
  ASSERT_TRUE(snapshot.has_value());
  cache.Put(Call(1), Answers(9));  // replace
  cache.Remove(Call(1));           // and remove entirely
  cache.Clear();
  EXPECT_EQ(snapshot->answers.size(), 4u);
}

TEST(ResultCacheTest, ConcurrentMixedOperationsKeepExactCounters) {
  ResultCache cache(0, 0, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        int key = (t * kOpsPerThread + i) % 97;
        cache.Put(Call(key), Answers(2));
        std::optional<CacheEntry> e = cache.Get(Call(key + 1000));
        EXPECT_FALSE(e.has_value());  // distinct key space: always a miss
        e = cache.Get(Call(key));
        if (e.has_value()) {
          EXPECT_EQ(e->answers.size(), 2u);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ResultCacheStats stats = cache.stats();
  // Every op is counted exactly once despite the concurrency.
  EXPECT_EQ(stats.insertions,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 2);
  // The 1000+ key space was never inserted: at least half the lookups miss.
  EXPECT_GE(stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(cache.size(), 97u);
}

}  // namespace
}  // namespace hermes::cim
