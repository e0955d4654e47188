#include "core/naive_search.h"

#include <set>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

TEST(EnumerateAnswersTest, AllAnswersValidAndDistinct) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(1, 24));
  Query q = Query::MustParse("kw0 kw1");
  EnumerateOptions opts;
  opts.max_diameter = 4;
  auto pool = EnumerateAnswers(b.graph, *b.index, q, opts);
  ASSERT_TRUE(pool.ok());
  std::set<std::string> keys;
  for (const Jtt& t : *pool) {
    EXPECT_TRUE(t.CoversAllKeywords(q, *b.index));
    EXPECT_TRUE(t.IsReduced(q, *b.index));
    EXPECT_TRUE(t.EdgesExistIn(b.graph));
    EXPECT_LE(t.Diameter(), opts.max_diameter);
    EXPECT_TRUE(keys.insert(t.CanonicalKey()).second);
  }
}

TEST(EnumerateAnswersTest, RespectsAnswerCap) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(2, 30, 4.0));
  Query q = Query::MustParse("kw0 kw1");
  EnumerateOptions opts;
  opts.max_diameter = 4;
  opts.max_answers = 3;
  auto pool = EnumerateAnswers(b.graph, *b.index, q, opts);
  ASSERT_TRUE(pool.ok());
  EXPECT_LE(pool->size(), 3u);
}

TEST(EnumerateAnswersTest, FindsShortestConnections) {
  // Two keyword nodes joined by a middle node must yield the 3-node chain.
  Schema schema;
  RelationId e = schema.AddRelation("E");
  EdgeTypeId t = schema.AddEdgeType("t", e, e, 1.0);
  GraphBuilder builder(schema);
  NodeId a = builder.AddNode(e, "alpha");
  NodeId m = builder.AddNode(e, "middle");
  NodeId c = builder.AddNode(e, "beta");
  CIRANK_CHECK_OK(builder.AddBidirectionalEdge(a, m, t, t));
  CIRANK_CHECK_OK(builder.AddBidirectionalEdge(m, c, t, t));
  ScorerBundle b = MakeScorerBundle(builder.Finalize());

  Query q = Query::MustParse("alpha beta");
  auto pool = EnumerateAnswers(b.graph, *b.index, q, {});
  ASSERT_TRUE(pool.ok());
  ASSERT_EQ(pool->size(), 1u);
  EXPECT_EQ((*pool)[0].size(), 3u);
}

TEST(EnumerateAnswersTest, EmptyQueryFails) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(3, 10));
  EXPECT_FALSE(EnumerateAnswers(b.graph, *b.index, Query{}, {}).ok());
}

TEST(NaiveSearchTest, AgreesWithBnbOnTopAnswerForSimpleQueries) {
  // The naive algorithm only assembles shortest-path unions, so compare on
  // graphs/diameters where the optimum is a shortest-path tree.
  int agreements = 0, total = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 16));
    Query q = Query::MustParse("kw0 kw1");
    NaiveSearchOptions n_opts;
    n_opts.k = 5;
    n_opts.max_diameter = 3;
    auto naive = NaiveSearch(*b.scorer, q, n_opts);
    SearchOptions s_opts;
    s_opts.k = 5;
    s_opts.max_diameter = 3;
    auto bnb = BranchAndBoundSearch(*b.scorer, q, s_opts);
    ASSERT_TRUE(naive.ok() && bnb.ok());
    if (naive->empty() != bnb->empty()) continue;
    if (naive->empty()) continue;
    ++total;
    if (std::abs((*naive)[0].score - (*bnb)[0].score) < 1e-9) ++agreements;
    // Naive can never beat the provably optimal B&B.
    EXPECT_LE((*naive)[0].score, (*bnb)[0].score + 1e-9);
  }
  // On most small instances the best answer is a shortest-path tree.
  EXPECT_GT(agreements, total / 2);
}

TEST(NaiveSearchTest, StatsReportGeneratedAnswers) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(9, 20));
  Query q = Query::MustParse("kw0 kw1");
  NaiveSearchOptions opts;
  opts.k = 3;
  SearchStats stats;
  auto result = NaiveSearch(*b.scorer, q, opts, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.stages.candidates_generated, stats.answers_found);
  EXPECT_LE(result->size(), 3u);
}

TEST(ExhaustiveSearchTest, FindsSingleNodeAnswers) {
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(4, 12));
  Query q = Query::MustParse("kw0");
  ExhaustiveSearchOptions opts;
  opts.k = 100;
  opts.max_diameter = 0;  // only single nodes
  opts.max_nodes = 1;
  auto result = ExhaustiveSearch(*b.scorer, q, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(),
            std::min<size_t>(100, b.index->MatchingNodes("kw0").size()));
  for (const RankedAnswer& a : *result) EXPECT_EQ(a.tree.size(), 1u);
}

}  // namespace
}  // namespace cirank
