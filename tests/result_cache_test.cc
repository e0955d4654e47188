// Unit tests for the result-cache policy (core/result_cache.h) that both
// CiRankEngine and shard::ShardedEngine memoize top-k lists through: the
// cacheability rule, the per-path hit contract, the key (model epoch
// included), invalidation, and the counters and gauges.
#include "core/result_cache.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace cirank {
namespace {

constexpr ResultCache::MetricNames kNames = {
    "test_cache_hits_total", "test_cache_misses_total",
    "test_cache_invalidations_total", "test_cache_entries",
    /*lru_shards=*/"test_cache_shard"};

QueryCacheOptions Capacity(size_t capacity) {
  QueryCacheOptions options;
  options.capacity = capacity;
  return options;
}

std::vector<RankedAnswer> Answers() {
  return {RankedAnswer{Jtt(3), 0.75}, RankedAnswer{Jtt(5), 0.5}};
}

// Looks up and, on a miss, stores Answers(); returns whether it hit.
bool LookupOrStore(ResultCache& cache, const Query& query,
                   const SearchOptions& options, ResultCache::Path path,
                   SearchStats* stats = nullptr, uint64_t epoch = 0) {
  ResultCache::Probe probe = cache.Lookup(query, options, epoch, path, stats);
  if (probe.hit != nullptr) return true;
  cache.Store(std::move(probe), Answers());
  return false;
}

TEST(ResultCacheTest, MissStoreHitWithCountersInLockstep) {
  obs::MetricsRegistry metrics;
  ResultCache cache(Capacity(16), &metrics, kNames);
  const Query q = Query::MustParse("kw0 kw1");
  const SearchOptions options;

  ResultCache::Probe miss =
      cache.Lookup(q, options, /*epoch=*/0, ResultCache::Path::kDirect,
                   nullptr);
  EXPECT_EQ(miss.hit, nullptr);
  ASSERT_TRUE(miss.key.has_value());
  cache.Store(std::move(miss), Answers());

  ResultCache::Probe hit =
      cache.Lookup(q, options, /*epoch=*/0, ResultCache::Path::kDirect,
                   nullptr);
  ASSERT_NE(hit.hit, nullptr);
  ASSERT_EQ(hit.hit->size(), 2u);
  EXPECT_EQ((*hit.hit)[0].score, 0.75);
  EXPECT_EQ((*hit.hit)[1].tree.CanonicalKey(), Jtt(5).CanonicalKey());

  const QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(metrics.GetCounter("test_cache_hits_total").Value(), 1);
  EXPECT_EQ(metrics.GetCounter("test_cache_misses_total").Value(), 1);
}

TEST(ResultCacheTest, DirectPathServesStatsRequestsFreshButStores) {
  obs::MetricsRegistry metrics;
  ResultCache cache(Capacity(16), &metrics, kNames);
  const Query q = Query::MustParse("kw0");
  const SearchOptions options;
  SearchStats stats;
  EXPECT_FALSE(
      LookupOrStore(cache, q, options, ResultCache::Path::kDirect, &stats));
  EXPECT_FALSE(
      LookupOrStore(cache, q, options, ResultCache::Path::kDirect, &stats))
      << "a stats-requesting direct call must run fresh";
  EXPECT_EQ(cache.Stats().hits, 0u);
  EXPECT_EQ(cache.Stats().misses, 0u) << "no lookup happened, none counted";
  EXPECT_EQ(cache.Stats().entries, 1u) << "the fresh result is still stored";
  EXPECT_TRUE(LookupOrStore(cache, q, options, ResultCache::Path::kDirect));
}

TEST(ResultCacheTest, ServingPathHitReportsOnlyMarkerExecutorAndRanker) {
  ResultCache cache(Capacity(16), nullptr, kNames);
  const Query q = Query::MustParse("kw0 kw2");
  SearchOptions options;
  options.executor = "naive";
  options.ranker = "rwmp_x_text";
  EXPECT_FALSE(LookupOrStore(cache, q, options, ResultCache::Path::kServing));

  SearchStats stats;
  stats.popped = 7;
  stats.generated = 9;
  stats.truncated = true;
  stats.stages.bound_calls = 3;
  EXPECT_TRUE(
      LookupOrStore(cache, q, options, ResultCache::Path::kServing, &stats));
  EXPECT_TRUE(stats.from_cache);
  EXPECT_EQ(stats.executor, "naive");
  EXPECT_EQ(stats.ranker, "rwmp_x_text");
  EXPECT_EQ(stats.popped, 0);
  EXPECT_EQ(stats.generated, 0);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.stages.bound_calls, 0);
}

TEST(ResultCacheTest, DeadlineBudgetAndBypassCallsAreNeverCached) {
  obs::MetricsRegistry metrics;
  ResultCache cache(Capacity(16), &metrics, kNames);
  const Query q = Query::MustParse("kw1");
  SearchOptions deadline;
  deadline.deadline_ms = 1000.0;
  SearchOptions budget;
  budget.candidate_budget = 100;
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(LookupOrStore(cache, q, deadline, ResultCache::Path::kServing));
    EXPECT_FALSE(LookupOrStore(cache, q, budget, ResultCache::Path::kServing));
    EXPECT_FALSE(
        LookupOrStore(cache, q, SearchOptions(), ResultCache::Path::kBypass));
  }
  const QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(metrics.GetCounter("test_cache_misses_total").Value(), 0);
}

TEST(ResultCacheTest, ZeroCapacityDisablesTheCache) {
  ResultCache cache(Capacity(0), nullptr, kNames);
  const Query q = Query::MustParse("kw0");
  EXPECT_FALSE(LookupOrStore(cache, q, SearchOptions(),
                             ResultCache::Path::kServing));
  EXPECT_FALSE(LookupOrStore(cache, q, SearchOptions(),
                             ResultCache::Path::kServing));
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, KeyCoversKeywordsAndSearchConfiguration) {
  ResultCache cache(Capacity(64), nullptr, kNames);
  const Query q = Query::MustParse("kw0 kw1");
  const SearchOptions base;
  EXPECT_FALSE(LookupOrStore(cache, q, base, ResultCache::Path::kDirect));
  EXPECT_TRUE(LookupOrStore(cache, q, base, ResultCache::Path::kDirect));
  EXPECT_FALSE(LookupOrStore(cache, Query::MustParse("kw0"), base,
                             ResultCache::Path::kDirect));

  std::vector<SearchOptions> variants(7, base);
  variants[0].k = 3;
  variants[1].max_diameter = 2;
  variants[2].max_expansions = 50;
  variants[3].strict_merge_rule = true;
  variants[4].executor = "naive";
  variants[5].ranker = "rwmp_x_text";
  variants[6].order_by = "size asc";
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(LookupOrStore(cache, q, variants[i],
                               ResultCache::Path::kDirect))
        << "variant " << i << " aliased the base entry";
  }
  SearchOptions weights = base;
  weights.composite_text_weight = 0.25;
  EXPECT_FALSE(LookupOrStore(cache, q, weights, ResultCache::Path::kDirect));
}

// A list computed on one model snapshot is never served for another, with
// or without an Invalidate() in between.
TEST(ResultCacheTest, KeyCoversModelEpoch) {
  ResultCache cache(Capacity(16), nullptr, kNames);
  const Query q = Query::MustParse("kw0 kw1");
  const SearchOptions options;
  EXPECT_FALSE(LookupOrStore(cache, q, options, ResultCache::Path::kServing,
                             nullptr, /*epoch=*/0));
  EXPECT_TRUE(LookupOrStore(cache, q, options, ResultCache::Path::kServing,
                            nullptr, /*epoch=*/0));
  EXPECT_FALSE(LookupOrStore(cache, q, options, ResultCache::Path::kServing,
                             nullptr, /*epoch=*/1))
      << "an entry of epoch 0 answered a search pinned at epoch 1";
  EXPECT_TRUE(LookupOrStore(cache, q, options, ResultCache::Path::kServing,
                            nullptr, /*epoch=*/1));
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(ResultCacheTest, InvalidateDropsEntriesAndKeepsGaugesCurrent) {
  obs::MetricsRegistry metrics;
  ResultCache cache(Capacity(16), &metrics, kNames);
  obs::Gauge& entries = metrics.GetGauge("test_cache_entries");
  EXPECT_FALSE(LookupOrStore(cache, Query::MustParse("kw0"), SearchOptions(),
                             ResultCache::Path::kDirect));
  EXPECT_FALSE(LookupOrStore(cache, Query::MustParse("kw1"), SearchOptions(),
                             ResultCache::Path::kDirect));
  EXPECT_EQ(entries.Value(), 2.0) << "stores refresh the gauge, no snapshot";

  cache.Invalidate();
  EXPECT_EQ(entries.Value(), 0.0);
  EXPECT_EQ(metrics.GetCounter("test_cache_invalidations_total").Value(), 1);
  const QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_FALSE(LookupOrStore(cache, Query::MustParse("kw0"), SearchOptions(),
                             ResultCache::Path::kDirect));

  // Stats() exports the per-LRU-shard gauges under the configured prefix.
  EXPECT_NE(metrics.RenderPrometheus().find("test_cache_shard_hits{shard="),
            std::string::npos);
}

TEST(ResultCacheTest, HitOutlivesAConcurrentInvalidation) {
  ResultCache cache(Capacity(16), nullptr, kNames);
  const Query q = Query::MustParse("kw2");
  EXPECT_FALSE(
      LookupOrStore(cache, q, SearchOptions(), ResultCache::Path::kDirect));
  ResultCache::Probe hit = cache.Lookup(q, SearchOptions(), /*epoch=*/0,
                                       ResultCache::Path::kDirect, nullptr);
  ASSERT_NE(hit.hit, nullptr);
  cache.Invalidate();
  EXPECT_EQ(hit.hit->size(), 2u) << "the handed-out entry stays valid";
}

}  // namespace
}  // namespace cirank
