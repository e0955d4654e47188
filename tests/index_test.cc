// Tests of both index structures (Sec. V): exactness of the naive index's
// distances, admissibility (never-tighter-than-truth) of the star index's
// composed lookups and of the transmission bound the search derives from
// either index, and equality of branch-and-bound results with and without
// indexes -- also after a feedback rebuild and below an index's horizon.
#include "index/naive_index.h"
#include "index/star_index.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/naive_search.h"
#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "datasets/query_gen.h"
#include "tests/test_util.h"

namespace cirank {
namespace {

using testing_util::Fingerprint;
using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

using NamedProviders =
    std::vector<std::pair<const char*, const PairwiseBoundProvider*>>;

TEST(NaiveIndexTest, DistancesMatchBfs) {
  const Graph graph = MakeRandomGraph(1, 30);
  auto index = NaiveIndex::Build(graph);
  ASSERT_TRUE(index.ok());
  // A pair beyond the horizon is bounded as one hop past it.
  const uint32_t beyond = NaiveIndexOptions().max_distance + 1;
  std::vector<uint32_t> dist;
  for (NodeId s = 0; s < graph.num_nodes(); ++s) {
    BfsDistances(graph, s, 16, &dist);
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_EQ(index->DistanceLowerBound(s, v),
                dist[v] == kUnreachable ? beyond : dist[v]);
    }
  }
}

TEST(NaiveIndexTest, RefusesHugeGraphs) {
  const Graph graph = MakeRandomGraph(3, 50);
  NaiveIndexOptions opts;
  opts.max_nodes = 10;
  EXPECT_TRUE(NaiveIndex::Build(graph, opts).status().IsFailedPrecondition());
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

  // The first `n` of the fixture's paper-mix queries (GenerateQueries'
  // default mix).
  std::vector<Query> PaperMixQueries(int n) const {
    QueryGenOptions opts;
    opts.num_queries = n;
    auto labeled = GenerateQueries(*dataset_, opts);
    EXPECT_TRUE(labeled.ok());
    std::vector<Query> queries;
    if (!labeled.ok()) return queries;
    for (const LabeledQuery& q : *labeled) queries.push_back(q.query);
    return queries;
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<RwmpModel> model_;
};

// Heavy weighted clicks on the first quarter of the nodes, then one rebuild:
// the rebuilt model's largest dampening exceeds the built one's.
void ClickAndRebuild(CiRankEngine* engine) {
  const size_t n = engine->graph().num_nodes();
  const double built_max_dampening = engine->model().max_dampening();
  Rng clicks(11);
  for (int i = 0; i < 300; ++i) {
    const NodeId v = static_cast<NodeId>(clicks.NextUint(n / 4));
    ASSERT_TRUE(engine->RecordClick(v, 1.0 + (i % 7)).ok());
  }
  ASSERT_TRUE(engine->RebuildFromFeedback().ok());
  ASSERT_GT(engine->model().max_dampening(), built_max_dampening);
}

TEST_F(StarIndexTest, OnlyMovieNodesAreStar) {
  auto index = StarIndex::Build(dataset_->graph);
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
  auto index = StarIndex::Build(dataset_->graph);
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

// The star index stores distances only; the closed form over them lives in
// the search's UpperBoundCalculator, under the model the search runs on. A
// diameter limit at the index's distance horizon makes the calculator bound
// every pair the index can place.
TEST_F(StarIndexTest, ClosedFormTransmissionIsUpperBound) {
  auto index = StarIndex::Build(dataset_->graph);
  ASSERT_TRUE(index.ok());
  InvertedIndex inv(dataset_->graph);
  TreeScorer scorer(*model_, inv);
  const Query q = Query::MustParse("james");
  const QueryNodeTable nodes(scorer, q);
  UpperBoundCalculator calc(scorer, nodes, StarIndexOptions().max_distance,
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
// the one in force when the indexes were built. The bound the search
// applies must follow the rebuilt model: for every pair within the diameter
// limit it dominates the true max-product transmission under that model,
// whichever index supplies the distances.
TEST_F(StarIndexTest, ClosedFormTransmissionFollowsTheRebuiltModel) {
  auto built = CiRankEngine::Builder(dataset_->graph).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();
  auto naive = NaiveIndex::Build(dataset_->graph);
  auto star = StarIndex::Build(dataset_->graph);
  ASSERT_TRUE(naive.ok() && star.ok());
  ASSERT_NO_FATAL_FAILURE(ClickAndRebuild(&engine));
  const RwmpModel& rebuilt = engine.model();

  const size_t n = dataset_->graph.num_nodes();
  const uint32_t d = engine.options().search.max_diameter;
  const Query q = Query::MustParse("james");
  const QueryNodeTable nodes(engine.scorer(), q);
  const NamedProviders providers = {{"naive", &naive.value()},
                                    {"star", &star.value()}};
  for (const auto& [name, provider] : providers) {
    SCOPED_TRACE(name);
    UpperBoundCalculator calc(engine.scorer(), nodes, d, provider);
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
}

// After clicks and a rebuild, indexes built before it still change pruning
// only: on the rebuilt model, the indexed answers equal the index-free
// answers byte for byte.
TEST_F(StarIndexTest, IndexedAnswersMatchIndexFreeAfterRebuild) {
  auto built = CiRankEngine::Builder(dataset_->graph).Build();
  ASSERT_TRUE(built.ok());
  CiRankEngine engine = std::move(built).value();
  auto naive = NaiveIndex::Build(dataset_->graph);
  auto star = StarIndex::Build(dataset_->graph);
  ASSERT_TRUE(naive.ok() && star.ok());
  ASSERT_NO_FATAL_FAILURE(ClickAndRebuild(&engine));

  const std::vector<Query> queries = PaperMixQueries(8);
  ASSERT_FALSE(queries.empty());
  SearchOptions opts = engine.options().search;
  opts.k = 5;
  const NamedProviders providers = {{"naive", &naive.value()},
                                    {"star", &star.value()}};
  for (const Query& q : queries) {
    opts.bounds = nullptr;
    auto plain = engine.Search(q, opts);
    ASSERT_TRUE(plain.ok());
    for (const auto& [name, provider] : providers) {
      opts.bounds = provider;
      auto indexed = engine.Search(q, opts);
      ASSERT_TRUE(indexed.ok());
      EXPECT_EQ(Fingerprint(*plain), Fingerprint(*indexed))
          << name << " index, query "
          << ::testing::PrintToString(q.keywords);
    }
  }
}

// A horizon below the diameter limit costs pruning power, not answers: a
// pair beyond it is bounded as one hop past the horizon, not as unreachable.
// At horizon 3 and D = 5, answers of diameter 4 and 5 stay findable.
TEST_F(StarIndexTest, HorizonBelowDiameterLimitKeepsAnswers) {
  NaiveIndexOptions naive_opts;
  naive_opts.max_distance = 3;
  StarIndexOptions star_opts;
  star_opts.max_distance = 3;
  auto naive = NaiveIndex::Build(dataset_->graph, naive_opts);
  auto star = StarIndex::Build(dataset_->graph, star_opts);
  ASSERT_TRUE(naive.ok() && star.ok());
  InvertedIndex inv(dataset_->graph);
  TreeScorer scorer(*model_, inv);

  // Two title-word queries whose best answers have diameter 4.
  const std::vector<Query> queries = {Query::MustParse("ghost shadow"),
                                      Query::MustParse("general mission")};
  SearchOptions opts;
  opts.k = 10;
  opts.max_diameter = 5;
  const NamedProviders providers = {{"naive", &naive.value()},
                                    {"star", &star.value()}};
  for (const Query& q : queries) {
    opts.bounds = nullptr;
    auto plain = BranchAndBoundSearch(scorer, q, opts);
    ASSERT_TRUE(plain.ok());
    ASSERT_FALSE(plain->empty());
    EXPECT_GT(plain->front().tree.Diameter(), 3u);  // beyond the horizon
    for (const auto& [name, provider] : providers) {
      opts.bounds = provider;
      auto indexed = BranchAndBoundSearch(scorer, q, opts);
      ASSERT_TRUE(indexed.ok());
      EXPECT_EQ(Fingerprint(*plain), Fingerprint(*indexed))
          << name << " index, query "
          << ::testing::PrintToString(q.keywords);
    }
  }
}

// The central index property: branch-and-bound results must be identical
// with and without indexes (they only change pruning, never answers).
TEST(IndexedSearchTest, BnbResultsUnchangedByIndexes) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 18));
    auto naive_index = NaiveIndex::Build(b.graph);
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
  auto index = StarIndex::Build(dataset_->graph);
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
  auto naive_index = NaiveIndex::Build(b.graph);
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
