// Tests of both index structures (Sec. V): exactness of the naive index,
// admissibility (never-tighter-than-truth) of the star index's composed
// lookups, and equality of branch-and-bound results with and without
// indexes.
#include "index/naive_index.h"
#include "index/star_index.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/naive_search.h"
#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "tests/test_util.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

TEST(NaiveIndexTest, DistancesMatchBfs) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(1, 30));
  auto index = NaiveIndex::Build(b.graph, *b.model);
  ASSERT_TRUE(index.ok());
  std::vector<uint32_t> dist;
  for (NodeId s = 0; s < b.graph.num_nodes(); ++s) {
    BfsDistances(b.graph, s, 16, &dist);
    for (NodeId v = 0; v < b.graph.num_nodes(); ++v) {
      EXPECT_EQ(index->DistanceLowerBound(s, v), dist[v]);
    }
  }
}

TEST(NaiveIndexTest, TransmissionMatchesMaxProduct) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(2, 25));
  auto index = NaiveIndex::Build(b.graph, *b.model);
  ASSERT_TRUE(index.ok());
  std::vector<double> best;
  for (NodeId s = 0; s < b.graph.num_nodes(); ++s) {
    MaxProductReachability(b.graph, s, b.model->dampening_vector(),
                           kUnreachable, &best);
    for (NodeId v = 0; v < b.graph.num_nodes(); ++v) {
      if (s == v) continue;
      // Stored as float with an upward nudge: bound must dominate truth.
      EXPECT_GE(index->TransmissionBound(s, v), best[v] - 1e-9);
      EXPECT_LE(index->TransmissionBound(s, v), best[v] * (1.0 + 1e-4) + 1e-9);
    }
  }
}

TEST(NaiveIndexTest, RefusesHugeGraphs) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(3, 50));
  NaiveIndexOptions opts;
  opts.max_nodes = 10;
  EXPECT_TRUE(
      NaiveIndex::Build(b.graph, *b.model, opts).status().IsFailedPrecondition());
}

class StarIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ImdbGenOptions opts;
    opts.num_movies = 60;
    opts.num_actors = 80;
    opts.num_actresses = 40;
    opts.num_directors = 15;
    opts.num_producers = 10;
    opts.num_companies = 6;
    opts.seed = 77;
    auto ds = BuildImdbDataset(opts);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<Dataset>(std::move(ds).value());
    auto pr = ComputePageRank(dataset_->graph);
    auto model = RwmpModel::Create(dataset_->graph, std::move(pr->scores));
    model_ = std::make_unique<RwmpModel>(std::move(model).value());
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<RwmpModel> model_;
};

TEST_F(StarIndexTest, OnlyMovieNodesAreStar) {
  auto index = StarIndex::Build(dataset_->graph, *model_);
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->star_tables().size(), 1u);
  for (NodeId v = 0; v < dataset_->graph.num_nodes(); ++v) {
    const bool is_movie =
        dataset_->graph.relation_of(v) == index->star_tables()[0];
    EXPECT_EQ(index->IsStarNode(v), is_movie);
  }
  EXPECT_EQ(index->num_star_nodes(), 60u);
}

TEST_F(StarIndexTest, DistanceIsAlwaysLowerBound) {
  auto index = StarIndex::Build(dataset_->graph, *model_);
  ASSERT_TRUE(index.ok());
  // Sample pairs and compare against true BFS distances.
  std::vector<uint32_t> dist;
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextUint(dataset_->graph.num_nodes()));
    BfsDistances(dataset_->graph, s, 12, &dist);
    for (NodeId v = 0; v < dataset_->graph.num_nodes(); ++v) {
      const uint32_t lb = index->DistanceLowerBound(s, v);
      if (dist[v] == kUnreachable) continue;  // any lb is fine
      EXPECT_LE(lb, dist[v]) << "pair " << s << "->" << v;
    }
  }
}

TEST_F(StarIndexTest, TransmissionIsAlwaysUpperBound) {
  StarIndexOptions opts;
  opts.exact_transmission = true;
  auto index = StarIndex::Build(dataset_->graph, *model_, opts);
  ASSERT_TRUE(index.ok());
  std::vector<double> best;
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextUint(dataset_->graph.num_nodes()));
    MaxProductReachability(dataset_->graph, s, model_->dampening_vector(),
                           kUnreachable, &best);
    for (NodeId v = 0; v < dataset_->graph.num_nodes(); ++v) {
      if (v == s) continue;
      EXPECT_GE(index->TransmissionBound(s, v), best[v] - 1e-9)
          << "pair " << s << "->" << v;
    }
  }
}

// Outside exact mode the star index stores distances only; the closed form
// over them lives in the search's UpperBoundCalculator, under the model the
// search runs on. A diameter limit at the index's distance horizon makes
// the calculator bound every pair the index can place.
TEST_F(StarIndexTest, ClosedFormTransmissionIsUpperBound) {
  auto index = StarIndex::Build(dataset_->graph, *model_);  // no exact mode
  ASSERT_TRUE(index.ok());
  InvertedIndex inv(dataset_->graph);
  TreeScorer scorer(*model_, inv);
  const Query q = Query::MustParse("james");
  UpperBoundCalculator calc(scorer, q, StarIndexOptions().max_distance,
                            &index.value());
  std::vector<double> best;
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    NodeId s = static_cast<NodeId>(rng.NextUint(dataset_->graph.num_nodes()));
    MaxProductReachability(dataset_->graph, s, model_->dampening_vector(),
                           kUnreachable, &best);
    for (NodeId v = 0; v < dataset_->graph.num_nodes(); ++v) {
      if (v == s) continue;
      EXPECT_GE(calc.IndexTransmissionBound(s, v), best[v] - 1e-9);
    }
  }
}

// Heavy clicks and one rebuild raise the model's largest dampening above
// the one the star index was built from. The bound the search applies must
// follow the rebuilt model: for every pair within the diameter limit it
// dominates the true max-product transmission under that model.
TEST_F(StarIndexTest, ClosedFormTransmissionFollowsTheRebuiltModel) {
  auto built = CiRankEngine::Builder(dataset_->graph).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();
  auto index = StarIndex::Build(dataset_->graph, engine.model());
  ASSERT_TRUE(index.ok());
  const double built_max_dampening = engine.model().max_dampening();

  const size_t n = dataset_->graph.num_nodes();
  Rng clicks(11);
  for (int i = 0; i < 300; ++i) {
    const NodeId v = static_cast<NodeId>(clicks.NextUint(n / 4));
    ASSERT_TRUE(engine.RecordClick(v, 1.0 + (i % 7)).ok());
  }
  ASSERT_TRUE(engine.RebuildFromFeedback().ok());
  const RwmpModel& rebuilt = engine.model();
  ASSERT_GT(rebuilt.max_dampening(), built_max_dampening);

  const uint32_t d = engine.options().search.max_diameter;
  UpperBoundCalculator calc(engine.scorer(), Query::MustParse("james"), d,
                            &index.value());
  std::vector<uint32_t> dist;
  std::vector<double> best;
  Rng rng(12);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.NextUint(n));
    BfsDistances(dataset_->graph, s, d, &dist);
    MaxProductReachability(dataset_->graph, s, rebuilt.dampening_vector(),
                           kUnreachable, &best);
    for (NodeId v = 0; v < n; ++v) {
      if (v == s || dist[v] == kUnreachable) continue;
      ++checked;
      EXPECT_GE(calc.IndexTransmissionBound(s, v), best[v] - 1e-9)
          << "pair " << s << "->" << v << " at distance " << dist[v];
    }
  }
  EXPECT_GT(checked, 0);
}

// The central index property: branch-and-bound results must be identical
// with and without indexes (they only change pruning, never answers).
TEST(IndexedSearchTest, BnbResultsUnchangedByIndexes) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 18));
    auto naive_index = NaiveIndex::Build(b.graph, *b.model);
    ASSERT_TRUE(naive_index.ok());

    Query q = Query::MustParse("kw0 kw1");
    SearchOptions opts;
    opts.k = 5;
    opts.max_diameter = 4;
    auto plain = BranchAndBoundSearch(*b.scorer, q, opts);
    opts.bounds = &naive_index.value();
    auto indexed = BranchAndBoundSearch(*b.scorer, q, opts);
    ASSERT_TRUE(plain.ok() && indexed.ok());
    ASSERT_EQ(plain->size(), indexed->size()) << "seed " << seed;
    for (size_t i = 0; i < plain->size(); ++i) {
      EXPECT_NEAR((*plain)[i].score, (*indexed)[i].score, 1e-9);
    }
  }
}

TEST_F(StarIndexTest, BnbResultsUnchangedByStarIndex) {
  auto index = StarIndex::Build(dataset_->graph, *model_);
  ASSERT_TRUE(index.ok());
  InvertedIndex inv(dataset_->graph);
  TreeScorer scorer(*model_, inv);

  Query q = Query::MustParse("james smith");  // common name tokens
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;
  auto plain = BranchAndBoundSearch(scorer, q, opts);
  opts.bounds = &index.value();
  auto indexed = BranchAndBoundSearch(scorer, q, opts);
  ASSERT_TRUE(plain.ok() && indexed.ok());
  ASSERT_EQ(plain->size(), indexed->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_NEAR((*plain)[i].score, (*indexed)[i].score, 1e-9);
  }
}

TEST(IndexedSearchTest, IndexReducesExpansions) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(4, 60, 3.0));
  auto naive_index = NaiveIndex::Build(b.graph, *b.model);
  ASSERT_TRUE(naive_index.ok());

  Query q = Query::MustParse("kw0 kw1");
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;
  SearchStats plain_stats, indexed_stats;
  ASSERT_TRUE(BranchAndBoundSearch(*b.scorer, q, opts, &plain_stats).ok());
  opts.bounds = &naive_index.value();
  ASSERT_TRUE(BranchAndBoundSearch(*b.scorer, q, opts, &indexed_stats).ok());
  EXPECT_LE(indexed_stats.popped, plain_stats.popped);
}

}  // namespace
}  // namespace cirank
