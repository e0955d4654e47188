// Concurrency stress test for sharded serving, designed to run under
// ThreadSanitizer (the tsan CMake preset builds it like every other test):
// several threads hammer ShardedEngine::Search / ServingSearch at four
// shards — each query itself fanning sub-searches over a per-query pool and
// publishing into the shared GatherState — while background threads record
// feedback through the facade (invalidating the merged-result cache), run
// full model rebuilds (each must succeed under the traffic), and snapshot
// the cache counters. Any data race between the gather path, the cache,
// and feedback is a TSan report and a test failure.
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "shard/builder.h"
#include "shard/sharded_engine.h"
#include "tests/test_util.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cirank {
namespace {

using shard::BuiltEngine;
using shard::EngineBuilder;
using shard::ShardedSearchStats;
using testing_util::MakeRandomGraph;

TEST(ShardStressTest, ShardedSearchRacesFeedbackInvalidation) {
  Graph graph = MakeRandomGraph(37, 60, 4.0);
  QueryCacheOptions cache;
  cache.capacity = 32;
  auto built_result = EngineBuilder()
                          .WithGraph(&graph)
                          .WithShards(4)
                          .WithShardCache(cache)
                          .Build();
  ASSERT_TRUE(built_result.ok()) << built_result.status().ToString();
  BuiltEngine built = std::move(built_result).value();
  shard::ShardedEngine& sharded = *built.sharded;

  const char* texts[] = {"kw0 kw1", "kw1 kw2", "kw0 kw2 kw3",
                         "kw3",     "kw2 kw3", "kw0 kw1 kw2"};
  std::vector<Query> queries;
  for (const char* t : texts) queries.push_back(Query::MustParse(t));

  std::atomic<bool> stop{false};
  std::atomic<int> search_errors{0};
  std::atomic<int> feedback_errors{0};

  auto background = std::make_unique<ThreadPool>(3);
  // Mutator: cache invalidation through the facade racing the gather path.
  background->Submit([&] {
    NodeId v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!sharded.RecordClick(v % graph.num_nodes()).ok()) {
        feedback_errors.fetch_add(1, std::memory_order_relaxed);
      }
      ++v;
    }
  });
  background->Submit([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!sharded.RecordFeedback({1, 2}, {3}, 0.5).ok()) {
        feedback_errors.fetch_add(1, std::memory_order_relaxed);
      }
      if (!sharded.RebuildFromFeedback().ok()) {
        feedback_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Observer: counter snapshots concurrent with everything else.
  background->Submit([&] {
    while (!stop.load(std::memory_order_acquire)) {
      QueryCacheStats stats = sharded.cache_stats();
      (void)(stats.hits + stats.misses + stats.invalidations + stats.entries);
    }
  });

  // Four search threads: alternating cached Search, stats-bypassing Search
  // with per-shard stats, and ServingSearch at varying fan-out widths.
  {
    ThreadPool searchers(4);
    for (int t = 0; t < 4; ++t) {
      searchers.Submit([&, t] {
        const SearchOverrides overrides = SearchOverrides().WithK(4);
        for (int round = 0; round < 12; ++round) {
          const Query& q = queries[(t + round) % queries.size()];
          Result<std::vector<RankedAnswer>> result =
              Status::Internal("unset");
          switch (round % 3) {
            case 0:
              result = sharded.Search(q);
              break;
            case 1: {
              SearchStats stats;
              ShardedSearchStats shard_stats;
              result = sharded.Search(q, overrides, &stats, &shard_stats,
                                      /*shard_parallelism=*/1 + t);
              break;
            }
            default: {
              SearchStats stats;
              result = sharded.ServingSearch(q, overrides, &stats);
              break;
            }
          }
          if (!result.ok()) {
            search_errors.fetch_add(1, std::memory_order_relaxed);
          } else if (result->empty()) {
            // Every query keyword appears in the 60-node vocabulary; an
            // empty result would mean a lost answer, not a valid outcome.
            search_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }  // joins the searchers

  stop.store(true, std::memory_order_release);
  background.reset();  // joins the loops once they observe `stop`

  EXPECT_EQ(search_errors.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(feedback_errors.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace cirank
