// Concurrency stress test for feedback rebuilds under live traffic, designed
// to run under ThreadSanitizer (the tsan CMake preset builds it like every
// other test). One thread rebuilds the model from a fixed set of clicks in a
// loop while searchers use every serving path: the engine's cached Search,
// Search with stats, SearchBatch, and the four-shard facade's Search and
// ServingSearch. The rebuilds go through the raw engine, which never flushes
// the facade's cache, so only the model epoch in the cache key keeps that
// cache coherent. A rebuild publishes a new model snapshot instead of
// editing the one searches run on, so:
//   * every rebuild succeeds;
//   * every answer list is byte-identical to the answers before the first
//     rebuild (A) or to those of a second engine after the same clicks and
//     one rebuild (B) — never a mix of two models;
//   * once the rebuilds stop, every path returns B, the cached ones too.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "shard/builder.h"
#include "shard/sharded_engine.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace cirank {
namespace {

using shard::BuiltEngine;
using shard::EngineBuilder;
using testing_util::MakeRandomGraph;

// Every byte a client sees of one answer list: the canonical tree keys and
// the exact bit patterns of the scores.
std::string AnswerBytes(const std::vector<RankedAnswer>& answers) {
  std::string bytes;
  for (const RankedAnswer& a : answers) {
    uint64_t bits = 0;
    std::memcpy(&bits, &a.score, sizeof(bits));
    bytes += a.tree.CanonicalKey() + '@' + std::to_string(bits) + ';';
  }
  return bytes;
}

// The searchers' paths, in the order they rotate through.
enum Path { kCached, kWithStats, kBatch, kSharded, kServing, kNumPaths };

class RebuildStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = MakeRandomGraph(41, 60, 4.0);
    for (const char* t : {"kw0 kw1", "kw1 kw2", "kw0 kw2 kw3", "kw3",
                          "kw2 kw3", "kw0 kw1 kw2"}) {
      queries_.push_back(Query::MustParse(t));
    }
    defaults_.k = 4;
    defaults_.max_diameter = 3;
    for (NodeId v = 0; v < 12; ++v) clicks_.emplace_back(v * 5, 20.0 + v);
  }

  Result<BuiltEngine> Build(uint32_t shards) const {
    QueryCacheOptions cache;
    cache.capacity = 64;
    return EngineBuilder()
        .WithGraph(&graph_)
        .WithSearchDefaults(defaults_)
        .WithCache(cache)
        .WithShards(shards)
        .WithShardCache(cache)
        .Build();
  }

  // Uncached reference answers on the engine's current model.
  std::vector<std::string> Reference(const CiRankEngine& engine) const {
    std::vector<std::string> bytes;
    for (const Query& q : queries_) {
      auto answers = engine.Search(q, engine.options().search);
      EXPECT_TRUE(answers.ok());
      bytes.push_back(answers.ok() ? AnswerBytes(*answers) : "");
    }
    return bytes;
  }

  // Runs `query` through `path`; returns the answer bytes, or "" on error.
  static std::string Run(const BuiltEngine& built, Path path,
                         const Query& query) {
    Result<std::vector<RankedAnswer>> result = Status::Internal("unset");
    SearchStats stats;
    switch (path) {
      case kCached:
        result = built.engine->Search(query);
        break;
      case kWithStats:
        result = built.engine->Search(query, &stats);
        break;
      case kBatch: {
        BatchSearchOptions batch;
        batch.num_threads = 2;
        auto results = built.engine->SearchBatch({query, query}, batch);
        if (!results[0].ok() || !results[1].ok()) return "";
        if (AnswerBytes(*results[0]) != AnswerBytes(*results[1])) {
          return "batch entries of one query disagree";
        }
        result = std::move(results[0]);
        break;
      }
      case kSharded:
        result = built.sharded->Search(query);
        break;
      case kServing:
        result = built.sharded->ServingSearch(query, SearchOverrides(), &stats);
        break;
      case kNumPaths:
        break;
    }
    return result.ok() ? AnswerBytes(*result) : "";
  }

  Graph graph_;
  std::vector<Query> queries_;
  SearchOptions defaults_;
  std::vector<std::pair<NodeId, double>> clicks_;
};

TEST_F(RebuildStressTest, RebuildsUnderTrafficServeOnlyWholeModels) {
  // Reference B: a second engine after the same clicks and one rebuild.
  auto reference = Build(1);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const auto& [v, w] : clicks_) {
    ASSERT_TRUE(reference->engine->RecordClick(v, w).ok());
  }
  ASSERT_TRUE(reference->engine->RebuildFromFeedback().ok());
  const std::vector<std::string> b = Reference(*reference->engine);

  auto built_result = Build(4);
  ASSERT_TRUE(built_result.ok()) << built_result.status().ToString();
  const BuiltEngine built = std::move(built_result).value();
  for (const auto& [v, w] : clicks_) {
    ASSERT_TRUE(built.sharded->RecordClick(v, w).ok());
  }
  // Reference A: clicks change no answer before a rebuild.
  const std::vector<std::string> a = Reference(*built.engine);
  int queries_that_change = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (a[i] != b[i]) ++queries_that_change;
  }
  ASSERT_GT(queries_that_change, 0) << "the clicks must change some answers";

  // Warm both caches with A, so stale entries exist to be (not) served.
  for (int p = 0; p < kNumPaths; ++p) {
    for (size_t i = 0; i < queries_.size(); ++i) {
      ASSERT_EQ(Run(built, static_cast<Path>(p), queries_[i]), a[i]);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> searches{0};
  std::atomic<int> rebuilds{0};
  std::atomic<int> rebuild_errors{0};
  std::atomic<int> mismatches{0};

  auto rebuilder = std::make_unique<ThreadPool>(1);
  rebuilder->Submit([&] {
    int64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (!built.engine->RebuildFromFeedback().ok()) {
        rebuild_errors.fetch_add(1, std::memory_order_relaxed);
      }
      rebuilds.fetch_add(1, std::memory_order_relaxed);
      // Let a few searches, some of them cache hits, run between rebuilds.
      seen += 6;
      while (searches.load(std::memory_order_acquire) < seen &&
             !stop.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  });

  {
    ThreadPool searchers(4);
    for (int t = 0; t < 4; ++t) {
      searchers.Submit([&, t] {
        for (int round = 0; round < 30; ++round) {
          const size_t i = static_cast<size_t>(t + round) % queries_.size();
          const Path path = static_cast<Path>((t + round / 2) % kNumPaths);
          const std::string bytes = Run(built, path, queries_[i]);
          if (bytes != a[i] && bytes != b[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          searches.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
  }  // joins the searchers

  stop.store(true, std::memory_order_release);
  rebuilder.reset();  // joins the rebuild loop once it observes `stop`

  EXPECT_GT(rebuilds.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(rebuild_errors.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);

  // Every path, fresh and then cached, now serves the rebuilt model.
  for (int p = 0; p < kNumPaths; ++p) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (size_t i = 0; i < queries_.size(); ++i) {
        EXPECT_EQ(Run(built, static_cast<Path>(p), queries_[i]), b[i])
            << "path " << p << " query " << i << " repeat " << repeat;
      }
    }
  }
}

}  // namespace
}  // namespace cirank
