// Unit tests for the sharded serving layer's parts (DESIGN.md §16): the
// ShardPlan's ownership/scope invariants, the GatherState threshold
// algebra the early-termination proof rests on, the ShardScopeHooks glue,
// the shard::EngineBuilder construction surface, and the ShardedEngine's
// merged-result cache + feedback discipline.
#include "shard/sharded_engine.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "shard/builder.h"
#include "shard/gather.h"
#include "tests/test_util.h"
#include "util/status.h"

namespace cirank {
namespace shard {
namespace {

using testing_util::Fingerprint;
using testing_util::MakeRandomGraph;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlanTest, OwnershipPartitionsAndScopesCoverOwned) {
  Graph graph = MakeRandomGraph(11, 60);
  ShardPlanOptions options;
  options.num_shards = 4;
  options.scope_radius = 2;
  auto plan = ShardPlan::Build(graph, options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  EXPECT_EQ(plan->num_shards(), 4u);
  EXPECT_EQ(plan->partitioner_name(), "hash");
  EXPECT_EQ(plan->scope_radius(), 2u);
  ASSERT_EQ(plan->owners().size(), graph.num_nodes());

  size_t owned_total = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    const std::vector<uint8_t>& scope = plan->scope(s);
    ASSERT_EQ(scope.size(), graph.num_nodes());
    const ShardInfo& info = plan->info(s);
    size_t owned = 0;
    size_t in_scope = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (plan->owner(v) == s) {
        ++owned;
        EXPECT_EQ(scope[v], 1) << "shard " << s << " misses owned node " << v;
      }
      if (scope[v] != 0) ++in_scope;
    }
    EXPECT_EQ(info.owned_nodes, owned);
    EXPECT_EQ(info.scope_nodes, in_scope);
    EXPECT_GE(info.scope_nodes, info.owned_nodes) << "scope ⊉ owned";
    owned_total += owned;
  }
  // Ownership is a partition: every node owned exactly once.
  EXPECT_EQ(owned_total, graph.num_nodes());
}

TEST(ShardPlanTest, RadiusZeroScopesAreExactlyTheOwnedSets) {
  Graph graph = MakeRandomGraph(13, 30);
  ShardPlanOptions options;
  options.num_shards = 4;
  options.scope_radius = 0;
  auto plan = ShardPlan::Build(graph, options);
  ASSERT_TRUE(plan.ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(plan->info(s).owned_nodes, plan->info(s).scope_nodes);
  }
}

TEST(ShardPlanTest, LargeRadiusScopesSaturateToTheWholeGraph) {
  // MakeRandomGraph builds a spanning chain, so the graph is connected and
  // a radius beyond any path length pulls every node into every ball.
  Graph graph = MakeRandomGraph(17, 25);
  ShardPlanOptions options;
  options.num_shards = 3;
  options.scope_radius = 1000;
  auto plan = ShardPlan::Build(graph, options);
  ASSERT_TRUE(plan.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan->info(s).scope_nodes, graph.num_nodes());
  }
}

TEST(ShardPlanTest, UnknownPartitionerAndBadShardCountFail) {
  Graph graph = MakeRandomGraph(1, 10);
  ShardPlanOptions options;
  options.partitioner = "bogus";
  EXPECT_TRUE(ShardPlan::Build(graph, options).status().IsNotFound());
  options.partitioner = "hash";
  options.num_shards = 0;
  EXPECT_TRUE(ShardPlan::Build(graph, options).status().IsInvalidArgument());
  options.num_shards = 257;
  EXPECT_TRUE(ShardPlan::Build(graph, options).status().IsInvalidArgument());
}

// --- GatherState -----------------------------------------------------------

TEST(GatherStateTest, ThresholdStaysAtNegInfinityUntilKDistinctAnswers) {
  GatherState gather(/*k=*/2);
  EXPECT_EQ(gather.Threshold(), kNegInf);
  gather.Publish("a", 1.0);
  EXPECT_EQ(gather.Threshold(), kNegInf) << "one distinct answer, k=2";
  gather.Publish("a", 1.0);  // duplicate: same tree from an overlapping ball
  EXPECT_EQ(gather.distinct_answers(), 1u);
  EXPECT_EQ(gather.Threshold(), kNegInf)
      << "a duplicate must not advance the threshold";
  gather.Publish("b", 0.5);
  EXPECT_EQ(gather.Threshold(), 0.5) << "k-th best of {1.0, 0.5}";
}

TEST(GatherStateTest, ThresholdIsTheKthBestAndMonotone) {
  GatherState gather(/*k=*/2);
  gather.Publish("a", 1.0);
  gather.Publish("b", 0.5);
  ASSERT_EQ(gather.Threshold(), 0.5);
  gather.Publish("c", 2.0);
  EXPECT_EQ(gather.Threshold(), 1.0) << "k best are {2.0, 1.0}";
  // An answer below the current k-th never lowers the threshold.
  gather.Publish("d", 0.1);
  EXPECT_EQ(gather.Threshold(), 1.0);
  EXPECT_EQ(gather.distinct_answers(), 4u);
}

TEST(ShardScopeHooksTest, ScopeMaskAndGatherForwarding) {
  const std::vector<uint8_t> mask{1, 0, 1};
  GatherState gather(/*k=*/1);
  ShardScopeHooks hooks(&mask, &gather);
  EXPECT_TRUE(hooks.InScope(0));
  EXPECT_FALSE(hooks.InScope(1));
  EXPECT_TRUE(hooks.InScope(2));
  EXPECT_FALSE(hooks.InScope(3)) << "past-the-mask ids are out of scope";

  EXPECT_EQ(hooks.GlobalThreshold(), kNegInf);
  hooks.PublishAnswer("t", 3.5);
  EXPECT_EQ(hooks.GlobalThreshold(), 3.5);

  // Null scope = full-scope fallback; null gather = scoping-only tests.
  ShardScopeHooks unscoped(nullptr, nullptr);
  EXPECT_TRUE(unscoped.InScope(123456));
  unscoped.PublishAnswer("u", 1.0);  // must be a safe no-op
  EXPECT_EQ(unscoped.GlobalThreshold(), kNegInf);
}

// --- EngineBuilder ---------------------------------------------------------

TEST(EngineBuilderTest, ExternalGraphIsUsedNotCopied) {
  Graph graph = MakeRandomGraph(19, 30);
  auto built = EngineBuilder().WithGraph(&graph).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->graph, &graph);
  EXPECT_EQ(built->owned_graph, nullptr);
  ASSERT_NE(built->engine, nullptr);
  ASSERT_NE(built->sharded, nullptr);
  // The default is a single-shard facade — still a ShardedEngine, so every
  // caller serves through one type.
  EXPECT_EQ(built->sharded->num_shards(), 1u);
  EXPECT_EQ(&built->sharded->engine(), built->engine.get());
}

TEST(EngineBuilderTest, ShardKnobsReachThePlan) {
  Graph graph = MakeRandomGraph(19, 30);
  auto built = EngineBuilder()
                   .WithGraph(&graph)
                   .WithShards(4)
                   .WithPartitioner("star")
                   .WithShardParallelism(2)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->sharded->num_shards(), 4u);
  EXPECT_EQ(built->sharded->plan().partitioner_name(), "star");
  EXPECT_EQ(built->sharded->options().default_parallelism, 2);
  // Attach sizes the scope radius from the engine's default diameter.
  EXPECT_EQ(built->sharded->plan().scope_radius(),
            built->engine->options().search.max_diameter);
}

TEST(EngineBuilderTest, BundleSurvivesMoves) {
  // The facade holds a pointer to the engine and the engine to the graph;
  // unique_ptr members must keep those addresses stable when the bundle is
  // moved (exactly what MakeServingHarness does).
  Graph graph = MakeRandomGraph(19, 30);
  auto built = EngineBuilder().WithGraph(&graph).WithShards(2).Build();
  ASSERT_TRUE(built.ok());
  BuiltEngine moved = std::move(built).value();
  auto result = moved.sharded->Search(Query::MustParse("kw0 kw1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// The star index is built from the graph before the engine, whose default
// bound provider it becomes; it changes pruning only, so the answers equal
// those of an index-free bundle over the same graph.
TEST(EngineBuilderTest, StarIndexIsTheEngineDefaultBounds) {
  Graph graph = MakeRandomGraph(19, 30);
  auto indexed = EngineBuilder().WithGraph(&graph).WithStarIndex(true).Build();
  auto plain = EngineBuilder().WithGraph(&graph).Build();
  ASSERT_TRUE(indexed.ok() && plain.ok());
  ASSERT_NE(indexed->star_index, nullptr) << indexed->star_index_note;
  EXPECT_EQ(indexed->engine->options().search.bounds,
            indexed->star_index.get());
  EXPECT_EQ(plain->star_index, nullptr);
  EXPECT_EQ(plain->engine->options().search.bounds, nullptr);

  const Query q = Query::MustParse("kw0 kw1");
  auto with_index = indexed->sharded->Search(q);
  auto without = plain->sharded->Search(q);
  ASSERT_TRUE(with_index.ok() && without.ok());
  EXPECT_FALSE(without->empty());
  EXPECT_EQ(Fingerprint(*with_index), Fingerprint(*without));
}

TEST(EngineBuilderTest, InvalidConfigurationsFailClosed) {
  Graph graph = MakeRandomGraph(19, 20);
  EXPECT_FALSE(
      EngineBuilder().WithGraph(&graph).WithPartitioner("bogus").Build().ok());
  EXPECT_FALSE(EngineBuilder().WithGraph(&graph).WithShards(0).Build().ok());
  EXPECT_FALSE(EngineBuilder().WithDataset("nope").Build().ok());
  EXPECT_FALSE(EngineBuilder().WithLoadPath("/nonexistent/graph.bin").Build().ok());
}

// --- ShardedEngine: Attach, cache, feedback --------------------------------

TEST(ShardedEngineTest, AttachRejectsNullEngine) {
  EXPECT_TRUE(
      ShardedEngine::Attach(nullptr).status().IsInvalidArgument());
}

TEST(ShardedEngineTest, MergedResultCacheHitsAndFeedbackInvalidation) {
  Graph graph = MakeRandomGraph(21, 40);
  QueryCacheOptions cache;
  cache.capacity = 16;
  auto built = EngineBuilder()
                   .WithGraph(&graph)
                   .WithShards(2)
                   .WithShardCache(cache)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedEngine& sharded = *built->sharded;

  const Query q = Query::MustParse("kw0 kw1");
  auto first = sharded.Search(q);
  ASSERT_TRUE(first.ok());
  QueryCacheStats stats = sharded.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  auto second = sharded.Search(q);
  ASSERT_TRUE(second.ok());
  stats = sharded.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // The memoized bytes are the originals.
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
    EXPECT_EQ((*first)[i].tree.CanonicalKey(), (*second)[i].tree.CanonicalKey());
  }

  // Feedback through the facade reaches the engine AND clears the merged-
  // result cache.
  ASSERT_TRUE(sharded.RecordClick(0).ok());
  EXPECT_GT(sharded.engine().FeedbackClicks(0), 0.0);
  stats = sharded.cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  auto third = sharded.Search(q);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(sharded.cache_stats().misses, 2u) << "post-feedback search is fresh";
}

TEST(ShardedEngineTest, ShardStatsRequestsBypassTheCache) {
  Graph graph = MakeRandomGraph(21, 40);
  QueryCacheOptions cache;
  cache.capacity = 16;
  auto built = EngineBuilder()
                   .WithGraph(&graph)
                   .WithShards(2)
                   .WithShardCache(cache)
                   .Build();
  ASSERT_TRUE(built.ok());
  ShardedEngine& sharded = *built->sharded;

  const Query q = Query::MustParse("kw1 kw2");
  ASSERT_TRUE(sharded.Search(q).ok());  // populate
  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto fresh = sharded.Search(q, SearchOverrides(), &stats, &shard_stats);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(stats.from_cache);
  EXPECT_EQ(shard_stats.per_shard.size(), 2u);
  EXPECT_EQ(sharded.cache_stats().hits, 0u)
      << "a per-shard stats request must run fresh";
}

TEST(ShardedEngineTest, ServingSearchMayAnswerStatsRequestsFromCache) {
  Graph graph = MakeRandomGraph(21, 40);
  QueryCacheOptions cache;
  cache.capacity = 16;
  auto built = EngineBuilder()
                   .WithGraph(&graph)
                   .WithShards(2)
                   .WithShardCache(cache)
                   .Build();
  ASSERT_TRUE(built.ok());
  ShardedEngine& sharded = *built->sharded;

  const Query q = Query::MustParse("kw0 kw3");
  SearchStats miss_stats;
  ASSERT_TRUE(sharded.ServingSearch(q, SearchOverrides(), &miss_stats).ok());
  EXPECT_FALSE(miss_stats.from_cache);
  SearchStats hit_stats;
  ASSERT_TRUE(sharded.ServingSearch(q, SearchOverrides(), &hit_stats).ok());
  EXPECT_TRUE(hit_stats.from_cache)
      << "ServingSearch keeps CiRankEngine::ServingSearch's hit contract";
  EXPECT_EQ(hit_stats.popped, 0) << "a memoized result reports no fresh work";
}

// The merged-result cache is keyed by the engine's model epoch, so a rebuild
// through the raw engine — which never flushes the facade's cache — still
// retires every merged list computed on the old model.
TEST(ShardedEngineTest, RawEngineRebuildRetiresMergedResults) {
  Graph graph = MakeRandomGraph(25, 35);
  QueryCacheOptions cache;
  cache.capacity = 16;
  auto built = EngineBuilder()
                   .WithGraph(&graph)
                   .WithShards(2)
                   .WithShardCache(cache)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedEngine& sharded = *built->sharded;
  CiRankEngine& engine = *built->engine;

  const Query q = Query::MustParse("kw0 kw1");
  auto first = sharded.Search(q);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(first->size(), 2u);
  ASSERT_TRUE(sharded.Search(q).ok());
  ASSERT_EQ(sharded.cache_stats().hits, 1u) << "the merged list is cached";

  // Heavy clicks on every node of the last-ranked answer, then a rebuild,
  // all around the facade.
  for (NodeId v : first->back().tree.nodes()) {
    ASSERT_TRUE(engine.RecordClick(v, 50.0).ok());
  }
  ASSERT_TRUE(engine.RebuildFromFeedback().ok());
  EXPECT_EQ(sharded.cache_stats().invalidations, 0u)
      << "the raw engine cannot flush the facade's cache";

  auto after = sharded.Search(q);
  ASSERT_TRUE(after.ok());
  auto fresh = engine.Search(q, engine.options().search);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(after->size(), fresh->size());
  bool differs_from_first = after->size() != first->size();
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].score, (*fresh)[i].score) << "rank " << i;
    EXPECT_EQ((*after)[i].tree.CanonicalKey(), (*fresh)[i].tree.CanonicalKey())
        << "rank " << i;
    if (i < first->size() &&
        ((*after)[i].score != (*first)[i].score ||
         (*after)[i].tree.CanonicalKey() != (*first)[i].tree.CanonicalKey())) {
      differs_from_first = true;
    }
  }
  EXPECT_TRUE(differs_from_first)
      << "the rebuilt model must change this query's answers";
}

TEST(ShardedEngineTest, RebuildFromFeedbackKeepsShardedAndEngineAligned) {
  Graph graph = MakeRandomGraph(25, 35);
  auto built = EngineBuilder().WithGraph(&graph).WithShards(4).Build();
  ASSERT_TRUE(built.ok());
  ShardedEngine& sharded = *built->sharded;

  ASSERT_TRUE(sharded.RecordClick(1, 5.0).ok());
  ASSERT_TRUE(sharded.RecordClick(2, 3.0).ok());
  ASSERT_TRUE(sharded.RebuildFromFeedback().ok());

  // After the rebuild publishes a new model snapshot the sharded path must
  // still match the single-engine path byte-for-byte on it.
  const Query q = Query::MustParse("kw0 kw1");
  const SearchOverrides overrides = SearchOverrides().WithK(5);
  SearchStats direct_stats;
  auto direct = built->engine->Search(q, overrides, &direct_stats);
  ASSERT_TRUE(direct.ok());
  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto merged = sharded.Search(q, overrides, &stats, &shard_stats);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(direct->size(), merged->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*direct)[i].score, (*merged)[i].score) << "rank " << i;
    EXPECT_EQ((*direct)[i].tree.CanonicalKey(),
              (*merged)[i].tree.CanonicalKey())
        << "rank " << i;
  }
}

}  // namespace
}  // namespace shard
}  // namespace cirank
