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
    : lru_(options.capacity, kLruShards), metrics_(metrics), names_(names) {
  if (metrics_ == nullptr) return;
  hits_ = &metrics_->GetCounter(names_.hits, "Result-cache hits");
  misses_ = &metrics_->GetCounter(names_.misses, "Result-cache misses");
  invalidations_ = &metrics_->GetCounter(
      names_.invalidations,
      "Result-cache invalidations triggered by feedback/rebuild");
  entries_ = &metrics_->GetGauge(names_.entries,
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
    if (hits_ != nullptr) hits_->Increment();
    if (stats != nullptr) {
      *stats = SearchStats{};
      stats->from_cache = true;
      stats->executor = options.executor;
      stats->ranker = options.ranker;
    }
    probe.hit = *std::move(hit);
    return probe;
  }
  if (misses_ != nullptr) misses_->Increment();
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
  if (invalidations_ != nullptr) invalidations_->Increment();
  RefreshEntriesGauge();
}

QueryCacheStats ResultCache::Stats() const {
  QueryCacheStats stats;
  stats.hits = lru_.hits();
  stats.misses = lru_.misses();
  stats.invalidations = lru_.invalidations();
  stats.entries = lru_.size();
  if (entries_ != nullptr) entries_->Set(static_cast<double>(stats.entries));
  if (metrics_ == nullptr || names_.lru_shards == nullptr) return stats;
  // Per-shard values are point-in-time exports of the LRU's own atomics, so
  // a gauge (Set) is the right instrument even for the monotonic ones.
  const std::string prefix = names_.lru_shards;
  const auto shards = lru_.PerShardStats();
  for (size_t i = 0; i < shards.size(); ++i) {
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    metrics_
        ->GetGauge(prefix + "_hits" + label,
                   "Cache hits, by shard (cumulative, exported as a gauge)")
        .Set(static_cast<double>(shards[i].hits));
    metrics_
        ->GetGauge(prefix + "_evictions" + label,
                   "Cache evictions, by shard (cumulative, exported as a gauge)")
        .Set(static_cast<double>(shards[i].evictions));
  }
  return stats;
}

void ResultCache::RefreshEntriesGauge() const {
  if (entries_ != nullptr) entries_->Set(static_cast<double>(lru_.size()));
}

}  // namespace cirank
