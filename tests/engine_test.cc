// Integration tests of the CiRankEngine facade over generated datasets.
#include "core/engine.h"

#include <gtest/gtest.h>

#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "index/star_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cirank {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImdbGenOptions opts;
    opts.num_movies = 100;
    opts.num_actors = 120;
    opts.num_actresses = 60;
    opts.num_directors = 25;
    opts.num_producers = 15;
    opts.num_companies = 8;
    opts.seed = 55;
    auto ds = BuildImdbDataset(opts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<Dataset>(std::move(ds).value());
    auto engine = CiRankEngine::Builder(dataset_->graph).Build();
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<CiRankEngine>(std::move(engine).value());
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<CiRankEngine> engine_;
};

TEST_F(EngineTest, BuildValidatesOptions) {
  CiRankOptions opts;
  opts.rwmp.alpha = 2.0;
  EXPECT_FALSE(
      CiRankEngine::Builder(dataset_->graph).WithOptions(opts).Build().ok());
}

TEST_F(EngineTest, SearchReturnsRankedValidAnswers) {
  // Query for an actor that certainly exists: take the most popular one.
  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 2;
  SearchStats stats;
  auto answers = engine_->Search(q, opts, &stats);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  for (size_t i = 1; i < answers->size(); ++i) {
    EXPECT_GE((*answers)[i - 1].score, (*answers)[i].score);
  }
  for (const RankedAnswer& a : *answers) {
    EXPECT_TRUE(a.tree.CoversAllKeywords(q, engine_->index()));
    EXPECT_TRUE(a.tree.IsReduced(q, engine_->index()));
  }
  EXPECT_TRUE((*answers)[0].tree.contains(actor));
}

TEST_F(EngineTest, CoStarQueryConnectsThroughMovie) {
  // Find a movie with two actor neighbors and query their names.
  const Graph& g = dataset_->graph;
  NodeId movie = kInvalidNode, a1 = kInvalidNode, a2 = kInvalidNode;
  for (NodeId m : dataset_->star_entities) {
    std::vector<NodeId> actors;
    for (const Edge& e : g.out_edges(m)) {
      if (g.relation_of(e.to) == 1) actors.push_back(e.to);
    }
    // Require distinct full names so the query is unambiguous enough.
    for (size_t i = 0; i + 1 < actors.size() && movie == kInvalidNode; ++i) {
      for (size_t j = i + 1; j < actors.size(); ++j) {
        if (g.text_of(actors[i]) != g.text_of(actors[j])) {
          movie = m;
          a1 = actors[i];
          a2 = actors[j];
          break;
        }
      }
    }
    if (movie != kInvalidNode) break;
  }
  ASSERT_NE(movie, kInvalidNode);

  Query q = Query::MustParse(g.text_of(a1) + " " + g.text_of(a2));
  SearchOptions opts;
  opts.k = 3;
  opts.max_diameter = 2;
  auto answers = engine_->Search(q, opts);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  // The top answer must connect two actors through a shared movie.
  EXPECT_EQ((*answers)[0].tree.Diameter(), 2u);
}

TEST_F(EngineTest, StarIndexAcceleratedSearchMatches) {
  auto index = StarIndex::Build(dataset_->graph);
  ASSERT_TRUE(index.ok());
  const NodeId actor = dataset_->nodes_by_relation[1][3];
  Query q = Query::MustParse(dataset_->graph.text_of(actor));

  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;
  auto plain = engine_->Search(q, opts);
  opts.bounds = &index.value();
  auto indexed = engine_->Search(q, opts);
  ASSERT_TRUE(plain.ok() && indexed.ok());
  ASSERT_EQ(plain->size(), indexed->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_NEAR((*plain)[i].score, (*indexed)[i].score, 1e-9);
  }
}

TEST_F(EngineTest, EngineIsMovable) {
  CiRankEngine moved = std::move(*engine_);
  Query q = Query::MustParse("smith");
  SearchOptions opts;
  opts.k = 2;
  opts.max_diameter = 2;
  EXPECT_TRUE(moved.Search(q, opts).ok());
}

// Regression for the options-merge bug: Search(query, overrides) used to
// take a whole SearchOptions, so a caller wanting to tweak one field passed
// a default-constructed struct and silently reset every engine default
// (k back to 10, diameter back to 4, bounds dropped). SearchOverrides must
// only replace what the caller explicitly set.
TEST_F(EngineTest, OverridesMergeOverEngineDefaults) {
  CiRankOptions opts;
  opts.search.k = 3;
  opts.search.max_diameter = 2;
  opts.search.max_expansions = 5000;
  opts.search.strict_merge_rule = true;
  auto built = CiRankEngine::Builder(dataset_->graph).WithOptions(opts).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();

  // Empty overrides: every engine default survives.
  SearchOptions merged = engine.EffectiveOptions(SearchOverrides{});
  EXPECT_EQ(merged.k, 3);
  EXPECT_EQ(merged.max_diameter, 2u);
  EXPECT_EQ(merged.max_expansions, 5000);
  EXPECT_TRUE(merged.strict_merge_rule);

  // Partial override: only the named field changes.
  SearchOverrides just_k;
  just_k.k = 7;
  merged = engine.EffectiveOptions(just_k);
  EXPECT_EQ(merged.k, 7);
  EXPECT_EQ(merged.max_diameter, 2u);
  EXPECT_EQ(merged.max_expansions, 5000);
  EXPECT_TRUE(merged.strict_merge_rule);

  // Behavioral check: the override entry point returns the same answers as
  // the fully spelled-out options.
  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  auto via_overrides = engine.Search(q, just_k);
  SearchOptions explicit_opts = opts.search;
  explicit_opts.k = 7;
  auto via_options = engine.Search(q, explicit_opts);
  ASSERT_TRUE(via_overrides.ok() && via_options.ok());
  ASSERT_EQ(via_overrides->size(), via_options->size());
  for (size_t i = 0; i < via_overrides->size(); ++i) {
    EXPECT_EQ((*via_overrides)[i].score, (*via_options)[i].score);
  }
}

TEST_F(EngineTest, QueryCacheHitsAndFeedbackInvalidation) {
  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  SearchOverrides overrides;
  overrides.k = 3;
  overrides.max_diameter = 2;

  auto first = engine_->Search(q, overrides);
  ASSERT_TRUE(first.ok());
  QueryCacheStats stats = engine_->cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);

  auto second = engine_->Search(q, overrides);
  ASSERT_TRUE(second.ok());
  stats = engine_->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].score, (*second)[i].score);
  }

  // Different configuration, different cache key: no false sharing.
  SearchOverrides other = overrides;
  other.k = 2;
  ASSERT_TRUE(engine_->Search(q, other).ok());
  EXPECT_EQ(engine_->cache_stats().hits, 1u);
  EXPECT_EQ(engine_->cache_stats().entries, 2u);

  // Feedback invalidates everything.
  ASSERT_TRUE(engine_->RecordClick(actor).ok());
  stats = engine_->cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.invalidations, 1u);
  auto after = engine_->Search(q, overrides);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine_->cache_stats().hits, 1u);  // miss: had to recompute
}

TEST_F(EngineTest, StatsRequestBypassesCacheRead) {
  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  SearchOverrides overrides;
  overrides.k = 3;
  overrides.max_diameter = 2;
  ASSERT_TRUE(engine_->Search(q, overrides).ok());

  SearchStats stats;
  auto with_stats = engine_->Search(q, overrides, &stats);
  ASSERT_TRUE(with_stats.ok());
  // A cached result cannot report search work; the call must have searched.
  EXPECT_GT(stats.stages.candidates_generated, 0);
  EXPECT_EQ(engine_->cache_stats().hits, 0u);
}

TEST_F(EngineTest, SearchBatchMatchesIndividualSearches) {
  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) {
    const NodeId actor = dataset_->nodes_by_relation[1][i];
    queries.push_back(Query::MustParse(dataset_->graph.text_of(actor)));
  }
  queries.push_back(Query());  // deliberately invalid entry

  BatchSearchOptions batch;
  batch.num_threads = 4;
  batch.use_cache = false;
  batch.overrides.k = 3;
  batch.overrides.max_diameter = 2;
  auto results = engine_->SearchBatch(queries, batch);
  ASSERT_EQ(results.size(), queries.size());

  // The invalid query fails alone; the rest match serial reference runs.
  EXPECT_FALSE(results.back().ok());
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "query " << i;
    auto reference = engine_->Search(queries[i], batch.overrides);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(results[i]->size(), reference->size()) << "query " << i;
    for (size_t j = 0; j < reference->size(); ++j) {
      EXPECT_EQ((*results[i])[j].score, (*reference)[j].score)
          << "query " << i << " rank " << j;
      EXPECT_EQ((*results[i])[j].tree.CanonicalKey(),
                (*reference)[j].tree.CanonicalKey())
          << "query " << i << " rank " << j;
    }
  }
}

TEST_F(EngineTest, RebuildFromFeedbackShiftsImportanceTowardClicks) {
  const NodeId clicked = dataset_->nodes_by_relation[1].front();
  const double before = engine_->model().importance(clicked);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine_->RecordClick(clicked).ok());
  }
  EXPECT_GT(engine_->FeedbackClicks(clicked), 0.0);
  ASSERT_TRUE(engine_->RebuildFromFeedback().ok());
  const double after = engine_->model().importance(clicked);
  EXPECT_GT(after, before);

  // The engine still serves coherent results from the rebuilt model.
  Query q = Query::MustParse(dataset_->graph.text_of(clicked));
  SearchOverrides overrides;
  overrides.k = 3;
  overrides.max_diameter = 2;
  auto answers = engine_->Search(q, overrides);
  ASSERT_TRUE(answers.ok());
  EXPECT_FALSE(answers->empty());
}

// The serving-path counters (DESIGN.md §11) must advance in lockstep with
// what SearchStats and QueryCacheStats report — same events, two views.
TEST_F(EngineTest, EngineCountersAdvanceExactlyAsSearchStats) {
  obs::MetricsRegistry local;
  CiRankOptions opts;
  opts.metrics = &local;
  auto built = CiRankEngine::Builder(dataset_->graph).WithOptions(opts).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();
  ASSERT_EQ(engine.metrics(), &local);
  EXPECT_GT(local.GetGauge("cirank_build_total_seconds").Value(), 0.0);

  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  const SearchOverrides overrides = SearchOverrides().WithK(3).WithMaxDiameter(2);

  obs::Counter& queries = local.GetCounter("cirank_engine_queries_total");
  obs::Counter& hits = local.GetCounter("cirank_engine_cache_hits_total");
  obs::Counter& misses = local.GetCounter("cirank_engine_cache_misses_total");
  obs::Counter& generated =
      local.GetCounter("cirank_candidates_generated_total");
  obs::Counter& pruned = local.GetCounter("cirank_candidates_pruned_total");

  ASSERT_TRUE(engine.Search(q, overrides).ok());  // cold: miss, then fill
  EXPECT_EQ(queries.Value(), 1);
  EXPECT_EQ(hits.Value(), 0);
  EXPECT_EQ(misses.Value(), 1);

  ASSERT_TRUE(engine.Search(q, overrides).ok());  // warm: hit
  EXPECT_EQ(queries.Value(), 2);
  EXPECT_EQ(hits.Value(), 1);
  EXPECT_EQ(misses.Value(), 1);
  EXPECT_EQ(static_cast<uint64_t>(hits.Value()), engine.cache_stats().hits);

  // A stats-carrying call skips the cache read entirely, so neither hit nor
  // miss may move — and the pipeline counters advance by exactly the deltas
  // SearchStats reports for this one query.
  const int64_t generated_before = generated.Value();
  const int64_t pruned_before = pruned.Value();
  SearchStats stats;
  ASSERT_TRUE(engine.Search(q, overrides, &stats).ok());
  EXPECT_EQ(queries.Value(), 3);
  EXPECT_EQ(hits.Value(), 1);
  EXPECT_EQ(misses.Value(), 1);
  EXPECT_GT(stats.stages.candidates_generated, 0);
  EXPECT_EQ(generated.Value() - generated_before,
            stats.stages.candidates_generated);
  EXPECT_EQ(pruned.Value() - pruned_before, stats.stages.candidates_pruned);
  // Two searches actually executed (the hit served from memory); each
  // observed one end-to-end latency.
  EXPECT_EQ(local.GetHistogram("cirank_engine_query_seconds")
                .TakeSnapshot()
                .count,
            2);
  EXPECT_EQ(local.GetCounter("cirank_executor_queries_total{executor=\"bnb\"}")
                .Value(),
            2);
}

TEST_F(EngineTest, TruncationCounterMatchesSearchStats) {
  obs::MetricsRegistry local;
  CiRankOptions opts;
  opts.metrics = &local;
  auto built = CiRankEngine::Builder(dataset_->graph).WithOptions(opts).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();

  const NodeId actor = dataset_->nodes_by_relation[1].front();
  Query q = Query::MustParse(dataset_->graph.text_of(actor));
  SearchStats stats;
  auto partial = engine.Search(
      q, SearchOverrides().WithK(5).WithMaxDiameter(4).WithCandidateBudget(1),
      &stats);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(stats.truncated);
  // The pipeline counts each truncation once; the engine adds no second
  // counter of the same event.
  EXPECT_EQ(local.GetCounter("cirank_executor_truncated_total").Value(), 1);
  EXPECT_EQ(local.RenderPrometheus().find("cirank_engine_truncated_total"),
            std::string::npos);
  // Budget-limited queries are never cached, so no lookup was counted.
  EXPECT_EQ(local.GetCounter("cirank_engine_cache_misses_total").Value(), 0);
}

// The acceptance check from the issue: after a SearchBatch, the Prometheus
// rendering must expose the serving-path metric families.
TEST_F(EngineTest, SearchBatchPopulatesRequiredMetricFamilies) {
  obs::MetricsRegistry local;
  CiRankOptions opts;
  opts.metrics = &local;
  auto built = CiRankEngine::Builder(dataset_->graph).WithOptions(opts).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();

  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(Query::MustParse(
        dataset_->graph.text_of(dataset_->nodes_by_relation[1][i])));
  }
  BatchSearchOptions batch;
  batch.num_threads = 2;
  batch.overrides.WithK(3).WithMaxDiameter(2);
  auto results = engine.SearchBatch(queries, batch);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  const std::string prom = local.RenderPrometheus();
  for (const char* family :
       {"cirank_engine_queries_total", "cirank_engine_cache_hits_total",
        "cirank_stage_seconds_bucket{stage=", "cirank_threadpool_queue_depth",
        "cirank_threadpool_task_wait_seconds", "cirank_cache_entries"}) {
    EXPECT_NE(prom.find(family), std::string::npos)
        << "missing family " << family << " in:\n" << prom;
  }
  EXPECT_EQ(local.GetCounter("cirank_engine_queries_total").Value(),
            static_cast<int64_t>(queries.size()));
}

// Instrumentation must be observation only: an engine with metrics and
// tracing wired in returns byte-for-byte the answers of one built with
// metrics_enabled = false.
TEST_F(EngineTest, InstrumentationDoesNotChangeResults) {
  CiRankOptions plain_opts;
  plain_opts.metrics_enabled = false;
  auto plain_built =
      CiRankEngine::Builder(dataset_->graph).WithOptions(plain_opts).Build();
  ASSERT_TRUE(plain_built.ok());
  CiRankEngine plain = std::move(plain_built).value();
  ASSERT_EQ(plain.metrics(), nullptr);

  obs::MetricsRegistry local;
  obs::TraceCollector trace;
  CiRankOptions instrumented_opts;
  instrumented_opts.metrics = &local;
  instrumented_opts.trace = &trace;
  auto instr_built = CiRankEngine::Builder(dataset_->graph)
                         .WithOptions(instrumented_opts)
                         .Build();
  ASSERT_TRUE(instr_built.ok());
  CiRankEngine instrumented = std::move(instr_built).value();

  const SearchOverrides overrides =
      SearchOverrides().WithK(5).WithMaxDiameter(4);
  for (int i = 0; i < 5; ++i) {
    Query q = Query::MustParse(
        dataset_->graph.text_of(dataset_->nodes_by_relation[1][i]));
    auto a = plain.Search(q, overrides);
    auto b = instrumented.Search(q, overrides);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << "query " << i;
    for (size_t j = 0; j < a->size(); ++j) {
      EXPECT_EQ((*a)[j].score, (*b)[j].score)  // bitwise, no tolerance
          << "query " << i << " rank " << j;
      EXPECT_EQ((*a)[j].tree.CanonicalKey(), (*b)[j].tree.CanonicalKey())
          << "query " << i << " rank " << j;
    }
  }
  // The instrumented engine really did record: spans per query (one parent
  // plus one per stage) and a positive query counter.
  EXPECT_GE(trace.size(), 5u * 4u);
  EXPECT_EQ(local.GetCounter("cirank_engine_queries_total").Value(), 5);
}

TEST(EngineDblpTest, WorksOnDblpSchema) {
  DblpGenOptions opts;
  opts.num_papers = 120;
  opts.num_authors = 80;
  opts.num_conferences = 6;
  opts.seed = 66;
  auto ds = BuildDblpDataset(opts);
  ASSERT_TRUE(ds.ok());
  auto engine = CiRankEngine::Builder(ds->graph).Build();
  ASSERT_TRUE(engine.ok());

  const NodeId author = ds->nodes_by_relation[1].front();
  Query q = Query::MustParse(ds->graph.text_of(author));
  SearchOptions sopts;
  sopts.k = 3;
  sopts.max_diameter = 2;
  auto answers = engine->Search(q, sopts);
  ASSERT_TRUE(answers.ok());
  EXPECT_FALSE(answers->empty());
}

}  // namespace
}  // namespace cirank
