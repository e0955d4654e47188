#include "core/result_cache.h"

#include <sstream>
#include <utility>

namespace cirank {

namespace {

// The cache key must pin down everything the result depends on: normalized
// keywords, the full search configuration, and the model snapshot's epoch.
std::string CacheKey(const Query& query, const SearchOptions& options,
                     uint64_t epoch) {
  std::ostringstream key;
  for (const std::string& k : query.keywords) key << k << ' ';
  key << "|k=" << options.k << "|d=" << options.max_diameter
      << "|x=" << options.max_expansions << "|s=" << options.strict_merge_rule
      << "|b=" << static_cast<const void*>(options.bounds)
      << "|e=" << options.executor
      << "|r=" << options.ranker << "|o=" << options.order_by
      << "|w=" << options.composite_rwmp_weight << ','
      << options.composite_text_weight
      // Defensive: shard-scoped sub-searches run uncached through
      // CiRankEngine::PinnedModel::Search, but if one ever reached a cache
      // its scope mask must not alias an unsharded entry.
      << "|h=" << static_cast<const void*>(options.shard_hooks)
      << "|m=" << epoch;
  return std::move(key).str();
}

}  // namespace

ResultCache::ResultCache(const QueryCacheOptions& options,
                         obs::MetricsRegistry* metrics,
                         const MetricNames& names)
    : lru_(options.capacity, kLruShards) {
  if (metrics == nullptr) return;
  hits_.metric = &metrics->GetCounter(names.hits, "Result-cache hits");
  misses_.metric = &metrics->GetCounter(names.misses, "Result-cache misses");
  invalidations_.metric = &metrics->GetCounter(
      names.invalidations,
      "Result-cache invalidations triggered by feedback/rebuild");
  entries_ = &metrics->GetGauge(names.entries,
                                "Entries currently resident in the cache");
}

ResultCache::Probe ResultCache::Lookup(const Query& query,
                                       const SearchOptions& options,
                                       uint64_t epoch, Path path,
                                       SearchStats* stats) {
  Probe probe;
  // Deadline- and budget-limited queries are never cached: what they return
  // depends on how far the search got before the guard fired, so a memoized
  // copy is neither reproducible nor necessarily the full answer.
  const bool cacheable = path != Path::kBypass && lru_.enabled() &&
                         options.deadline_ms <= 0.0 &&
                         options.candidate_budget <= 0;
  if (!cacheable) return probe;
  probe.key = CacheKey(query, options, epoch);
  if (stats != nullptr && path == Path::kDirect) return probe;
  if (auto hit = lru_.Get(*probe.key); hit.has_value()) {
    hits_.Add();
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->from_cache = true;
      stats->executor = options.executor;
      stats->ranker = options.ranker;
    }
    probe.hit = *std::move(hit);
    return probe;
  }
  misses_.Add();
  return probe;
}

void ResultCache::Store(Probe probe, const std::vector<RankedAnswer>& answers) {
  if (!probe.key.has_value()) return;
  lru_.Put(*probe.key,
           std::make_shared<const std::vector<RankedAnswer>>(answers));
  RefreshEntriesGauge();
}

void ResultCache::Invalidate() {
  lru_.Clear();
  invalidations_.Add();
  RefreshEntriesGauge();
}

QueryCacheStats ResultCache::Stats() const {
  QueryCacheStats stats;
  stats.hits = hits_.count.load(std::memory_order_relaxed);
  stats.misses = misses_.count.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.count.load(std::memory_order_relaxed);
  stats.entries = lru_.size();
  if (entries_ != nullptr) entries_->Set(static_cast<double>(stats.entries));
  return stats;
}

void ResultCache::RefreshEntriesGauge() const {
  if (entries_ != nullptr) entries_->Set(static_cast<double>(lru_.size()));
}

}  // namespace cirank
