// Sharded, mutex-per-shard LRU cache for serving-path memoization (the
// store behind core/result_cache.h). Sharding keeps the lock hold times of
// concurrent readers from serializing on one mutex; each shard owns an
// intrusive recency list plus a hash index, both declared
// CIRANK_GUARDED_BY the shard's mutex so the `tsa` preset proves no
// structure is touched outside it (DESIGN.md §12). Shard mutexes sit at
// the cache-shard level of the lock hierarchy (engine → cache-shard →
// pool); per-shard counters are relaxed atomics and deliberately
// unguarded. Values are returned by copy, so callers typically store a
// shared_ptr when entries are large.
#ifndef CIRANK_UTIL_LRU_CACHE_H_
#define CIRANK_UTIL_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace cirank {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  // `capacity` is the total entry budget across shards; 0 disables the
  // cache entirely (Get always misses, Put is a no-op). `num_shards` is
  // clamped to [1, capacity] so every shard holds at least one entry.
  explicit ShardedLruCache(size_t capacity, size_t num_shards = 8) {
    if (capacity == 0) return;
    if (num_shards < 1) num_shards = 1;
    if (num_shards > capacity) num_shards = capacity;
    const size_t per_shard = (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(per_shard));
    }
  }

  bool enabled() const { return !shards_.empty(); }

  // Returns the cached value and refreshes its recency, or nullopt.
  std::optional<Value> Get(const Key& key) {
    if (!enabled()) return std::nullopt;
    Shard& shard = ShardFor(key);
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  // Inserts or refreshes `key`, evicting the least recently used entry of
  // the key's shard when that shard is full.
  void Put(const Key& key, Value value) {
    if (!enabled()) return;
    Shard& shard = ShardFor(key);
    MutexLock lk(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.order.begin());
    if (shard.order.size() > shard.capacity) {
      shard.index.erase(shard.order.back().first);
      shard.order.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Drops every entry (the feedback-invalidation path). Shards are swept
  // one at a time — concurrent readers of later shards may still hit until
  // the sweep reaches them, which is fine: invalidation only promises no
  // stale entry survives the call.
  void Clear() {
    for (auto& shard : shards_) {
      MutexLock lk(shard->mu);
      shard->order.clear();
      shard->index.clear();
    }
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      MutexLock lk(shard->mu);
      total += shard->order.size();
    }
    return total;
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  // Per-shard counter snapshot for the observability layer (exported as
  // `{shard="i"}`-labeled metrics). Entry i describes shard i.
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  std::vector<ShardStats> PerShardStats() const {
    std::vector<ShardStats> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) {
      ShardStats s;
      s.hits = shard->hits.load(std::memory_order_relaxed);
      s.misses = shard->misses.load(std::memory_order_relaxed);
      s.evictions = shard->evictions.load(std::memory_order_relaxed);
      {
        MutexLock lk(shard->mu);
        s.entries = shard->order.size();
      }
      out.push_back(s);
    }
    return out;
  }

 private:
  struct Shard {
    explicit Shard(size_t cap) : capacity(cap) {}
    mutable Mutex mu;  // cache-shard level of the lock hierarchy
    std::list<std::pair<Key, Value>> order
        CIRANK_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                       Hash>
        index CIRANK_GUARDED_BY(mu);
    size_t capacity;  // immutable after construction
    // Monotonic per-shard counters (the totals below aggregate them);
    // relaxed atomics, intentionally outside the shard capability.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard& ShardFor(const Key& key) {
    // splitmix64 finalizer decorrelates std::hash's low bits from the
    // modulus so keys spread evenly over shards.
    uint64_t h = static_cast<uint64_t>(hash_(key));
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return *shards_[h % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;  // set once in the ctor
  Hash hash_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace cirank

#endif  // CIRANK_UTIL_LRU_CACHE_H_
