// Unit tests for the sharded LRU cache behind the engine's query-result
// memoization.
#include "util/lru_cache.h"

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace cirank {
namespace {

TEST(ShardedLruCacheTest, ZeroCapacityDisablesEverything) {
  ShardedLruCache<std::string, int> cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", 1);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCacheTest, PutGetRoundTrip) {
  ShardedLruCache<std::string, int> cache(8, 2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  auto a = cache.Get("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  EXPECT_FALSE(cache.Get("missing").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedLruCacheTest, PutOverwritesExistingKey) {
  ShardedLruCache<std::string, int> cache(4, 1);
  cache.Put("a", 1);
  cache.Put("a", 2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("a"), 2);
}

TEST(ShardedLruCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so the recency order is global and the test deterministic.
  ShardedLruCache<int, int> cache(3, 1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh 1: LRU order 2, 3, 1
  cache.Put(4, 40);                       // evicts 2
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
  EXPECT_TRUE(cache.Get(4).has_value());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ShardedLruCacheTest, ClearDropsEntries) {
  ShardedLruCache<std::string, int> cache(16, 4);
  for (int i = 0; i < 10; ++i) cache.Put("k" + std::to_string(i), i);
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("k3").has_value());
}

TEST(ShardedLruCacheTest, ShardCountIsClampedToCapacity) {
  // 2 entries across (requested) 64 shards: still stores both.
  ShardedLruCache<int, int> cache(2, 64);
  cache.Put(1, 1);
  cache.Put(2, 2);
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
}

TEST(ShardedLruCacheTest, ConcurrentMixedTrafficIsSafe) {
  ShardedLruCache<int, int> cache(64, 8);
  std::atomic<int> hits{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.Submit([&cache, &hits, t] {
        for (int i = 0; i < 500; ++i) {
          const int key = (t * 131 + i) % 100;
          cache.Put(key, key * 2);
          auto v = cache.Get(key);
          if (v.has_value()) {
            EXPECT_EQ(*v, key * 2);
            hits.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 100 == 99) cache.Clear();
        }
      });
    }
    pool.WaitIdle();
  }
  EXPECT_GT(hits.load(std::memory_order_relaxed), 0);
  EXPECT_LE(cache.size(), 64u);
}

}  // namespace
}  // namespace cirank
