// The top-k result cache (DESIGN.md §9). In CI-Rank, user feedback changes
// the ranking only when RebuildFromFeedback recomputes the personalized
// PageRank, so serving memoizes whole top-k lists. CiRankEngine (single-
// engine results) and shard::ShardedEngine (merged scatter-gather results)
// each own one instance; the policy lives here once:
//   * the key: normalized keywords, every SearchOptions field the answers
//     depend on, and the epoch of the model snapshot they were computed on;
//   * cacheability: deadline- or budget-limited queries are never cached (a
//     truncated result is time-dependent), and a caller may force a bypass;
//   * the hit contract (see Path);
//   * invalidation, the hit/miss/invalidation counters and entry gauge.
//     Each lookup is counted once, by this instance, which keeps its own
//     count beside the registry counter: several caches may record into
//     one registry, so the registry cannot give one cache's counts back.
// Callers follow lookup → compute → store:
//
//   ResultCache::Probe probe =
//       cache.Lookup(query, options, pinned.epoch(), path, stats);
//   if (probe.hit != nullptr) return *probe.hit;
//   CIRANK_ASSIGN_OR_RETURN(std::vector<RankedAnswer> answers, Compute());
//   cache.Store(std::move(probe), answers);
//   return answers;
//
// Thread-safe: the LRU is internally synchronized (util/lru_cache.h) and the
// metrics are relaxed atomics.
#ifndef CIRANK_CORE_RESULT_CACHE_H_
#define CIRANK_CORE_RESULT_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/execution.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"
#include "util/lru_cache.h"

namespace cirank {

// Snapshot of one result cache's counters (this instance's lookups only).
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  size_t entries = 0;
};

class ResultCache {
 public:
  // Every instance spreads its capacity over this many LRU shards.
  static constexpr size_t kLruShards = 8;

  // How one call may use the cache.
  enum class Path {
    // Library Search calls: a call without a stats sink may hit; one with a
    // sink runs fresh (a memoized result has no counters to report) and
    // still stores its result.
    kDirect,
    // The serving and batch paths: a stats-requesting call may hit too, and
    // then gets only the from_cache marker plus the executor and ranker
    // names — every counter stays zero because no search ran.
    kServing,
    // Forced bypass, neither read nor written (per-shard stats requests,
    // SearchBatch with use_cache = false).
    kBypass,
  };

  // The metric families one instance records into (DESIGN.md §11).
  struct MetricNames {
    const char* hits;           // counter
    const char* misses;         // counter
    const char* invalidations;  // counter
    const char* entries;        // gauge, refreshed by Store/Invalidate/Stats
  };

  // `metrics` may be null (no recording).
  ResultCache(const QueryCacheOptions& options, obs::MetricsRegistry* metrics,
              const MetricNames& names);

  // One call's cache decision. `hit` is set when the call is served from
  // memory; otherwise `key` is engaged when the fresh result may be stored.
  struct Probe {
    std::shared_ptr<const std::vector<RankedAnswer>> hit;
    std::optional<std::string> key;
  };

  // The lookup half, for a search pinned to the snapshot of `epoch`. On a
  // hit, a non-null `stats` is filled per the hit contract. A hit or miss is
  // counted only when a lookup actually happened.
  Probe Lookup(const Query& query, const SearchOptions& options,
               uint64_t epoch, Path path, SearchStats* stats);

  // The store half: memoizes `answers` under the probe's key (a no-op when
  // Lookup declined to cache the call).
  void Store(Probe probe, const std::vector<RankedAnswer>& answers);

  // Drops every entry and counts one invalidation. Entries are shared_ptr,
  // so a hit handed out concurrently stays valid.
  void Invalidate();

  // Counter snapshot; also refreshes the entry gauge.
  QueryCacheStats Stats() const;

 private:
  // One event: this instance's count and, when bound, the registry's.
  struct Tally {
    std::atomic<uint64_t> count{0};
    obs::Counter* metric = nullptr;
    void Add() {
      count.fetch_add(1, std::memory_order_relaxed);
      if (metric != nullptr) metric->Increment();
    }
  };

  void RefreshEntriesGauge() const;

  ShardedLruCache<std::string, std::shared_ptr<const std::vector<RankedAnswer>>>
      lru_;
  Tally hits_;
  Tally misses_;
  Tally invalidations_;
  obs::Gauge* entries_ = nullptr;  // null when recording is off
};

}  // namespace cirank

#endif  // CIRANK_CORE_RESULT_CACHE_H_
