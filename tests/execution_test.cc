// Tests of the unified execution pipeline (core/execution.h): the
// ExecutionContext deadline/budget guard, the executor registry and every
// executor's answer order, truncated (best-so-far) results, the
// unlimited-budget exactness property, and the SearchBatch from_cache
// marker.
#include "core/execution.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baseline_executors.h"
#include "core/engine.h"
#include "core/topk.h"
#include "datasets/imdb_gen.h"
#include "tests/test_util.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

// --- ExecutionContext guard ------------------------------------------------

TEST(ExecutionContextTest, UnlimitedContextNeverStops) {
  // No deadline, or one past what steady_clock can represent: that one
  // saturates instead of wrapping into the past.
  for (double deadline_ms :
       {0.0, 1e300, std::numeric_limits<double>::infinity()}) {
    ExecutionContext ctx(ExecutionLimits{deadline_ms, /*candidate_budget=*/0});
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(ctx.ChargeCandidates()) << deadline_ms << " ms, call " << i;
      ASSERT_FALSE(ctx.ShouldStop()) << deadline_ms << " ms, call " << i;
    }
    EXPECT_FALSE(ctx.stopped()) << deadline_ms;
    EXPECT_TRUE(ctx.stop_status().ok()) << deadline_ms;
  }
}

TEST(ExecutionContextTest, CandidateBudgetLatchesStop) {
  ExecutionContext ctx(ExecutionLimits{/*deadline_ms=*/0.0,
                                       /*candidate_budget=*/3});
  EXPECT_TRUE(ctx.ChargeCandidates(2));
  EXPECT_FALSE(ctx.stopped());
  EXPECT_FALSE(ctx.ChargeCandidates(2));  // 4 > 3
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stop_reason(), ExecutionContext::StopReason::kCandidateBudget);
  EXPECT_TRUE(ctx.stop_status().IsDeadlineExceeded());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.stats().stages.candidates_generated, 4);
}

TEST(ExecutionContextTest, ExpiredDeadlineTripsShouldStop) {
  ExecutionContext ctx(ExecutionLimits{/*deadline_ms=*/1.0,
                                       /*candidate_budget=*/0});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock is probed once per stride, so a single call may miss; a few
  // strides' worth must observe the expiry.
  bool stopped = false;
  for (int i = 0; i < 1000 && !stopped; ++i) stopped = ctx.ShouldStop();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(ctx.stop_reason(), ExecutionContext::StopReason::kDeadline);
  EXPECT_TRUE(ctx.stop_status().IsDeadlineExceeded());
}

// --- Registry --------------------------------------------------------------

// The small IMDB graph the registry and engine tests search.
Dataset SmallImdbDataset() {
  ImdbGenOptions opts;
  opts.num_movies = 40;
  opts.num_actors = 50;
  opts.num_actresses = 25;
  opts.num_directors = 10;
  opts.num_producers = 6;
  opts.num_companies = 4;
  opts.seed = 77;
  auto ds = BuildImdbDataset(opts);
  CIRANK_CHECK_OK(ds.status());
  return std::move(ds).value();
}

TEST(ExecutorRegistryTest, CoreAndBaselineExecutorsAreRegistered) {
  ExecutorRegistry& reg = ExecutorRegistry::Global();
  EXPECT_TRUE(reg.Contains("bnb"));
  EXPECT_TRUE(reg.Contains("naive"));
  // The intra-query "parallel" executor was removed; `/search` maps the
  // name to "bnb" before it reaches the registry.
  EXPECT_FALSE(reg.Contains("parallel"));

  ASSERT_TRUE(RegisterBaselineExecutors().ok());
  ASSERT_TRUE(RegisterBaselineExecutors().ok());  // idempotent
  for (const char* name : {"banks", "bidirectional", "spark", "discover2"}) {
    EXPECT_TRUE(reg.Contains(name)) << name;
  }

  const std::vector<std::string> names = reg.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  // Every executor's answers follow the one answer order (TopKAnswers): at
  // most k, distinct trees, score descending with ties by canonical key.
  // Every executor also fills its stats: its name and ranker, at least one
  // found answer per returned answer, and at least one generated candidate
  // per found answer.
  const Dataset ds = SmallImdbDataset();
  auto engine = CiRankEngine::Builder(ds.graph).Build();
  ASSERT_TRUE(engine.ok());
  constexpr int kK = 5;
  for (const std::string& name : names) {
    size_t total = 0;
    for (size_t i = 0; i < 3; ++i) {
      const Query q =
          Query::MustParse(ds.graph.text_of(ds.nodes_by_relation[1][i]));
      SearchStats stats;
      auto r = engine->Search(
          q, SearchOverrides().WithK(kK).WithExecutor(name), &stats);
      ASSERT_TRUE(r.ok()) << name << " query " << i;
      EXPECT_LE(r->size(), static_cast<size_t>(kK)) << name << " query " << i;
      EXPECT_EQ(stats.executor, name) << "query " << i;
      EXPECT_FALSE(stats.ranker.empty()) << name << " query " << i;
      EXPECT_GE(stats.answers_found, static_cast<int64_t>(r->size()))
          << name << " query " << i;
      EXPECT_GE(stats.stages.candidates_generated, stats.answers_found)
          << name << " query " << i;
      std::set<std::string> keys;
      for (size_t j = 0; j < r->size(); ++j) {
        const RankedAnswer& a = (*r)[j];
        EXPECT_TRUE(keys.insert(a.tree.CanonicalKey()).second)
            << name << " query " << i << " rank " << j;
        if (j == 0) continue;
        const RankedAnswer& prev = (*r)[j - 1];
        EXPECT_TRUE(RanksBefore(prev.score, prev.tree, a.score, a.tree))
            << name << " query " << i << " rank " << j;
      }
      total += r->size();
    }
    EXPECT_GT(total, 0u) << name;
  }
}

TEST(ExecutorRegistryTest, DuplicateRegistrationFails) {
  Status dup = ExecutorRegistry::Global().Register(
      "bnb", [](const ExecutorEnv&) -> Result<std::unique_ptr<SearchExecutor>> {
        return Status::Internal("unreachable");
      });
  EXPECT_FALSE(dup.ok());
}

TEST(ExecutorRegistryTest, UnknownExecutorNameFailsTheSearch) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(1, 12));
  Query q = Query::MustParse("kw0 kw1");
  SearchOptions opts;
  opts.executor = "no-such-executor";
  ExecutorEnv env{b.scorer.get(), &q, opts};
  EXPECT_FALSE(ExecuteSearch(env).ok());
}

// --- Deadline / budget truncation ------------------------------------------

// A graph dense enough that the unbounded search visits far more than one
// deadline-check stride's worth of candidates.
ScorerBundle SlowBundle() {
  return MakeScorerBundle(MakeRandomGraph(4, 120, 5.0));
}

void ExpectWellFormedTruncation(const ScorerBundle& b, const Query& q,
                                const Result<std::vector<RankedAnswer>>& r,
                                const SearchStats& stats,
                                const std::string& label) {
  ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
  EXPECT_TRUE(stats.truncated) << label;
  EXPECT_FALSE(stats.proven_optimal) << label;
  for (size_t i = 0; i < r->size(); ++i) {
    const RankedAnswer& a = (*r)[i];
    EXPECT_TRUE(a.tree.CoversAllKeywords(q, *b.index)) << label;
    EXPECT_TRUE(a.tree.EdgesExistIn(b.graph)) << label;
    if (i > 0) {
      EXPECT_GE((*r)[i - 1].score, a.score) << label;
    }
  }
}

TEST(ExecutionPipelineTest, DeadlineTruncatesSerialExecutor) {
  ScorerBundle b = SlowBundle();
  Query q = Query::MustParse("kw0 kw1 kw2");
  SearchOptions opts;
  opts.k = 10;
  opts.executor = "bnb";
  opts.deadline_ms = 1.0;
  ExecutorEnv env{b.scorer.get(), &q, opts};
  SearchStats stats;
  auto r = ExecuteSearch(env, &stats);
  ExpectWellFormedTruncation(b, q, r, stats, "bnb");
  EXPECT_EQ(stats.executor, "bnb");
}

TEST(ExecutionPipelineTest, CandidateBudgetTruncates) {
  ASSERT_TRUE(RegisterBaselineExecutors().ok());
  ScorerBundle b = SlowBundle();
  Query q = Query::MustParse("kw0 kw1");
  constexpr int64_t kBudget = 16;
  for (const std::string& name : ExecutorRegistry::Global().Names()) {
    SearchOptions opts;
    opts.k = 10;
    opts.executor = name;
    opts.candidate_budget = kBudget;
    ExecutorEnv env{b.scorer.get(), &q, opts};
    SearchStats stats;
    auto r = ExecuteSearch(env, &stats);
    ExpectWellFormedTruncation(b, q, r, stats, name);
    // The stage counters report the candidates charged past the budget.
    EXPECT_GT(stats.stages.candidates_generated, kBudget) << name;
  }
}

// The naive executor charges each pooled tree as it finds it, so a budget
// below the pool size ends the enumeration early and the trees found so far
// are still ranked — for spark and discover2 too, which are this executor.
TEST(ExecutionPipelineTest, BudgetBelowThePoolStillRanksTheNaivePool) {
  ASSERT_TRUE(RegisterBaselineExecutors().ok());
  ScorerBundle b = SlowBundle();
  Query q = Query::MustParse("kw0 kw1");
  for (const char* name : {"naive", "spark", "discover2"}) {
    SearchOptions opts;
    opts.k = 5;
    opts.executor = name;
    opts.candidate_budget = 1;
    ExecutorEnv env{b.scorer.get(), &q, opts};
    SearchStats stats;
    auto r = ExecuteSearch(env, &stats);
    ASSERT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    ExpectWellFormedTruncation(b, q, r, stats, name);
    EXPECT_FALSE(r->empty()) << name;
    // The tree that exhausted the budget is kept, as bnb keeps the
    // candidate that exhausts it: two trees charged, both ranked.
    EXPECT_EQ(stats.stages.candidates_generated, 2) << name;
    EXPECT_EQ(stats.answers_found, 2) << name;
  }
}

// Property: with no deadline and no budget the pipeline must reproduce the
// direct search byte for byte — the guard may cost time but never answers.
TEST(ExecutionPipelineTest, UnlimitedBudgetReproducesExactResults) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 14 + seed));
    Query q = Query::MustParse("kw0 kw1");
    SearchOptions opts;
    opts.k = 5;

    auto direct = BranchAndBoundSearch(*b.scorer, q, opts);
    ASSERT_TRUE(direct.ok());

    SearchOptions popts = opts;
    popts.executor = "bnb";
    popts.deadline_ms = 0.0;
    popts.candidate_budget = 0;
    ExecutorEnv env{b.scorer.get(), &q, popts};
    SearchStats stats;
    auto r = ExecuteSearch(env, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(stats.truncated);
    ASSERT_EQ(direct->size(), r->size()) << "seed=" << seed;
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*direct)[i].score, (*r)[i].score) << "seed=" << seed;
      EXPECT_EQ((*direct)[i].tree.CanonicalKey(), (*r)[i].tree.CanonicalKey())
          << "seed=" << seed;
    }
  }
}

TEST(ExecutionPipelineTest, StageStatsAreReported) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(2, 18));
  Query q = Query::MustParse("kw0 kw1");
  SearchOptions opts;
  opts.k = 5;
  ExecutorEnv env{b.scorer.get(), &q, opts};
  SearchStats stats;
  auto r = ExecuteSearch(env, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(stats.stages.candidates_generated, 0);
  EXPECT_GT(stats.stages.bound_calls, 0);
  EXPECT_GT(stats.stages.arena_bytes, 0u);
  EXPECT_GE(stats.stages.expand_seconds, 0.0);
}

// --- Engine integration: overrides and the batch cache marker ---------------

class ExecutionEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(SmallImdbDataset());
    auto engine = CiRankEngine::Builder(dataset_->graph).Build();
    ASSERT_TRUE(engine.ok());
    engine_ = std::make_unique<CiRankEngine>(std::move(engine).value());
    query_ = Query::MustParse(
        dataset_->graph.text_of(dataset_->nodes_by_relation[1].front()));
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<CiRankEngine> engine_;
  Query query_;
};

TEST_F(ExecutionEngineTest, ExecutorOverrideRoutesTheQuery) {
  SearchOverrides overrides;
  overrides.k = 3;
  overrides.max_diameter = 2;
  overrides.executor = "naive";
  SearchStats stats;
  auto r = engine_->Search(query_, engine_->EffectiveOptions(overrides),
                           &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.executor, "naive");
}

TEST_F(ExecutionEngineTest, BatchCacheHitsCarryFromCacheMarker) {
  std::vector<Query> queries(4, query_);
  BatchSearchOptions batch;
  batch.num_threads = 2;
  batch.overrides.k = 3;
  batch.overrides.max_diameter = 2;

  std::vector<SearchStats> cold_stats;
  auto cold = engine_->SearchBatch(queries, batch, &cold_stats);
  ASSERT_EQ(cold.size(), queries.size());
  ASSERT_EQ(cold_stats.size(), queries.size());

  std::vector<SearchStats> warm_stats;
  auto warm = engine_->SearchBatch(queries, batch, &warm_stats);
  ASSERT_EQ(warm_stats.size(), queries.size());
  int from_cache = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(warm[i].ok());
    ASSERT_TRUE(cold[i].ok());
    ASSERT_EQ(cold[i]->size(), warm[i]->size());
    for (size_t j = 0; j < warm[i]->size(); ++j) {
      EXPECT_EQ((*cold[i])[j].score, (*warm[i])[j].score);
    }
    if (warm_stats[i].from_cache) {
      ++from_cache;
      // A memoized result has no fresh counters, just the marker.
      EXPECT_EQ(warm_stats[i].popped, 0);
      EXPECT_EQ(warm_stats[i].stages.candidates_generated, 0);
    }
  }
  EXPECT_GT(from_cache, 0);
}

// The "spark" and "discover2" executors are the naive executor with the
// ranker pinned to their own name: the same answers as executor "naive"
// under that ranker whatever SearchOptions::ranker says, and their own
// name in stats.executor and the per-executor query counter.
TEST_F(ExecutionEngineTest, PoolScoringExecutorsAreNaiveWithTheirRanker) {
  ASSERT_TRUE(RegisterBaselineExecutors().ok());
  obs::MetricsRegistry metrics;
  CiRankOptions options;
  options.metrics = &metrics;
  options.cache.capacity = 0;
  auto built =
      CiRankEngine::Builder(dataset_->graph).WithOptions(options).Build();
  ASSERT_TRUE(built.ok());
  const CiRankEngine engine = std::move(built).value();

  for (const std::string name : {"spark", "discover2"}) {
    for (size_t i = 0; i < 3; ++i) {
      const Query q = Query::MustParse(
          dataset_->graph.text_of(dataset_->nodes_by_relation[1][i]));
      const SearchOverrides base = SearchOverrides().WithK(5).WithMaxDiameter(3);
      SearchStats pinned_stats;
      auto pinned = engine.Search(
          q, SearchOverrides(base).WithExecutor(name), &pinned_stats);
      auto pinned_rwmp = engine.Search(
          q, SearchOverrides(base).WithExecutor(name).WithRanker("rwmp"));
      SearchStats naive_stats;
      auto naive = engine.Search(
          q, SearchOverrides(base).WithExecutor("naive").WithRanker(name),
          &naive_stats);
      ASSERT_TRUE(pinned.ok() && pinned_rwmp.ok() && naive.ok())
          << name << " query " << i;
      ASSERT_FALSE(naive->empty()) << name << " query " << i;
      ASSERT_EQ(pinned->size(), naive->size()) << name << " query " << i;
      ASSERT_EQ(pinned_rwmp->size(), naive->size()) << name << " query " << i;
      for (size_t j = 0; j < naive->size(); ++j) {
        EXPECT_EQ((*pinned)[j].score, (*naive)[j].score)
            << name << " query " << i << " rank " << j;
        EXPECT_EQ((*pinned)[j].tree.CanonicalKey(),
                  (*naive)[j].tree.CanonicalKey())
            << name << " query " << i << " rank " << j;
        EXPECT_EQ((*pinned_rwmp)[j].score, (*naive)[j].score)
            << name << " query " << i << " rank " << j;
      }
      EXPECT_EQ(pinned_stats.executor, name);
      EXPECT_EQ(pinned_stats.ranker, name);
      EXPECT_EQ(naive_stats.executor, "naive");
      EXPECT_EQ(pinned_stats.stages.candidates_generated,
                naive_stats.stages.candidates_generated);
      EXPECT_EQ(pinned_stats.answers_found, naive_stats.answers_found);
    }
    EXPECT_EQ(metrics
                  .GetCounter("cirank_executor_queries_total{executor=\"" +
                              name + "\"}")
                  .Value(),
              6)
        << name;
  }
}

TEST_F(ExecutionEngineTest, UnrepresentableDeadlineKeepsEveryAnswer) {
  const SearchOverrides base = SearchOverrides().WithK(5);
  auto unlimited = engine_->Search(query_, base);
  SearchStats stats;
  auto far = engine_->Search(query_, SearchOverrides(base).WithDeadlineMs(1e300),
                             &stats);
  ASSERT_TRUE(unlimited.ok() && far.ok());
  ASSERT_FALSE(unlimited->empty());
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(far->size(), unlimited->size());
  for (size_t i = 0; i < far->size(); ++i) {
    EXPECT_EQ((*far)[i].score, (*unlimited)[i].score) << "rank " << i;
    EXPECT_EQ((*far)[i].tree.edges(), (*unlimited)[i].tree.edges())
        << "rank " << i;
  }
}

TEST_F(ExecutionEngineTest, DeadlineLimitedQueriesAreNeverCached) {
  SearchOverrides overrides;
  overrides.k = 3;
  overrides.max_diameter = 2;
  overrides.deadline_ms = 1000.0;  // generous: completes, but is uncacheable
  std::vector<Query> queries(2, query_);
  BatchSearchOptions batch;
  batch.overrides = overrides;

  (void)engine_->SearchBatch(queries, batch);
  std::vector<SearchStats> stats;
  (void)engine_->SearchBatch(queries, batch, &stats);
  for (const SearchStats& s : stats) EXPECT_FALSE(s.from_cache);
}

}  // namespace
}  // namespace cirank
