// Concurrency stress test, designed to run under ThreadSanitizer (the tsan
// CMake preset builds it like every other test): hammers
// CiRankEngine::SearchBatch from the inside (its own pool) while pool
// workers concurrently record feedback — which invalidates the query-result
// cache — and read the cache counters. Any data race between the serving
// paths is a TSan report and a test failure.
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

TEST(SearchStressTest, BatchSearchRacesFeedbackInvalidation) {
  Graph graph = MakeRandomGraph(17, 60, 4.0);
  auto built = CiRankEngine::Builder(graph).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();

  std::vector<Query> queries;
  const char* texts[] = {"kw0 kw1", "kw1 kw2", "kw0 kw2 kw3",
                         "kw3",     "kw2 kw3", "kw0 kw1 kw2"};
  for (int rep = 0; rep < 4; ++rep) {
    for (const char* t : texts) queries.push_back(Query::MustParse(t));
  }

  BatchSearchOptions batch;
  batch.num_threads = 4;
  batch.overrides.k = 4;
  batch.overrides.max_diameter = 3;

  std::atomic<bool> stop{false};
  std::atomic<int> feedback_errors{0};

  ThreadPool background(3);
  // Mutator: cache invalidation racing the batch's Get/Put traffic.
  background.Submit([&] {
    NodeId v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!engine.RecordClick(v % graph.num_nodes()).ok()) {
        feedback_errors.fetch_add(1, std::memory_order_relaxed);
      }
      ++v;
    }
  });
  background.Submit([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!engine.RecordFeedback({1, 2}, {3}, 0.5).ok()) {
        feedback_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Observer: counter snapshots concurrent with everything else.
  background.Submit([&] {
    while (!stop.load(std::memory_order_acquire)) {
      QueryCacheStats stats = engine.cache_stats();
      // hits + misses only ever grow; read them to race the counters.
      (void)(stats.hits + stats.misses + stats.invalidations + stats.entries);
    }
  });

  for (int round = 0; round < 6; ++round) {
    auto results = engine.SearchBatch(queries, batch);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].ok()) << "query " << i << " round " << round;
    }
  }

  stop.store(true, std::memory_order_release);
  background.WaitIdle();
  EXPECT_EQ(feedback_errors.load(std::memory_order_relaxed), 0);
  EXPECT_GT(engine.FeedbackClicks(1), 0.0);
}

// Many concurrent BranchAndBoundSearch calls sharing one scorer (the scorer
// is immutable, so this must be race-free); every one must still reproduce
// the serial result exactly.
TEST(SearchStressTest, ConcurrentSearchesShareScorer) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(23, 40, 4.0));
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;

  auto reference = BranchAndBoundSearch(*b.scorer, Query::MustParse("kw0 kw1"),
                                        opts, nullptr);
  ASSERT_TRUE(reference.ok());

  std::atomic<int> mismatches{0};
  {
    ThreadPool pool(4);
    for (int t = 0; t < 4; ++t) {
      pool.Submit([&] {
        for (int i = 0; i < 3; ++i) {
          auto r = BranchAndBoundSearch(*b.scorer, Query::MustParse("kw0 kw1"),
                                        opts);
          if (!r.ok() || r->size() != reference->size()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          for (size_t j = 0; j < r->size(); ++j) {
            if ((*r)[j].score != (*reference)[j].score ||
                (*r)[j].tree.CanonicalKey() !=
                    (*reference)[j].tree.CanonicalKey()) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace cirank
