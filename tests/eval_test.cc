#include "eval/experiment.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datasets/imdb_gen.h"
#include "eval/metrics.h"
#include "eval/rankers.h"
#include "eval/oracle.h"

namespace cirank {
namespace {

TEST(MetricsTest, ReciprocalRank) {
  EXPECT_DOUBLE_EQ(ReciprocalRank({true, false}), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({false, false, true}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({false, false}), 0.0);
  EXPECT_DOUBLE_EQ(ReciprocalRank({}), 0.0);
}

TEST(MetricsTest, GradedPrecisionAndMean) {
  EXPECT_DOUBLE_EQ(GradedPrecision({1.0, 0.5, 0.0}), 0.5);
  EXPECT_DOUBLE_EQ(GradedPrecision({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    RelationId e = schema.AddRelation("E");
    EdgeTypeId t = schema.AddEdgeType("t", e, e, 1.0);
    GraphBuilder b(schema);
    // targets a, c; connectors m1 (popular), m2 (unpopular).
    a_ = b.AddNode(e, "alpha");
    c_ = b.AddNode(e, "beta");
    m1_ = b.AddNode(e, "pop hub");
    m2_ = b.AddNode(e, "dull hub");
    CIRANK_CHECK_OK(b.AddBidirectionalEdge(a_, m1_, t, t));
    CIRANK_CHECK_OK(b.AddBidirectionalEdge(m1_, c_, t, t));
    CIRANK_CHECK_OK(b.AddBidirectionalEdge(a_, m2_, t, t));
    CIRANK_CHECK_OK(b.AddBidirectionalEdge(m2_, c_, t, t));
    ds_.graph = b.Finalize();
    ds_.true_popularity = {0.2, 0.2, 0.9, 0.1};
    ds_.star_entities = {m1_, m2_};
    ds_.nodes_by_relation.resize(1);
    index_ = std::make_unique<InvertedIndex>(ds_.graph);

    lq_.query = Query::MustParse("alpha beta");
    lq_.targets = {a_, c_};
    lq_.kind = LabeledQuery::Kind::kTwoNonAdjacent;
  }

  Dataset ds_;
  std::unique_ptr<InvertedIndex> index_;
  LabeledQuery lq_;
  NodeId a_, c_, m1_, m2_;
};

TEST_F(OracleTest, RelevanceIsTargetFraction) {
  RelevanceOracle oracle(ds_, *index_);
  Jtt only_a(a_);
  EXPECT_DOUBLE_EQ(oracle.Relevance(lq_, only_a), 0.5);
  auto both = Jtt::Create(m1_, {{m1_, a_}, {m1_, c_}});
  ASSERT_TRUE(both.ok());
  EXPECT_DOUBLE_EQ(oracle.Relevance(lq_, *both), 1.0);
}

TEST_F(OracleTest, BestAnswerPrefersPopularConnector) {
  RelevanceOracle oracle(ds_, *index_);
  auto via_pop = Jtt::Create(m1_, {{m1_, a_}, {m1_, c_}});
  auto via_dull = Jtt::Create(m2_, {{m2_, a_}, {m2_, c_}});
  ASSERT_TRUE(via_pop.ok() && via_dull.ok());
  std::vector<Jtt> pool{*via_dull, *via_pop, Jtt(a_)};
  auto best = oracle.BestAnswers(lq_, pool);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], 1u);  // the popular connector
}

TEST_F(OracleTest, BestAnswerPrefersSmallerTrees) {
  RelevanceOracle oracle(ds_, *index_);
  auto small = Jtt::Create(m1_, {{m1_, a_}, {m1_, c_}});
  // A 4-node detour: a - m2 - c plus dangling... build a - m1 - c - (extra
  // edge back through m2 is a cycle, so use a different shape): a-m2, m2-c,
  // c-m1: contains both targets with 4 nodes.
  auto big = Jtt::Create(a_, {{a_, m2_}, {m2_, c_}, {c_, m1_}});
  ASSERT_TRUE(small.ok() && big.ok());
  std::vector<Jtt> pool{*big, *small};
  auto best = oracle.BestAnswers(lq_, pool);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], 1u);
}

TEST_F(OracleTest, NoFullyRelevantAnswerMeansNoBest) {
  RelevanceOracle oracle(ds_, *index_);
  std::vector<Jtt> pool{Jtt(a_), Jtt(c_)};
  EXPECT_TRUE(oracle.BestAnswers(lq_, pool).empty());
}

TEST_F(OracleTest, GroupRelevanceAcceptsSameNameSubstitutes) {
  // With keyword groups, an answer satisfying each group with ANY entity of
  // the intended relation is fully relevant, even without the exact target.
  Schema schema;
  RelationId actor = schema.AddRelation("Actor");
  RelationId movie = schema.AddRelation("Movie");
  EdgeTypeId t = schema.AddEdgeType("t", actor, movie, 1.0);
  EdgeTypeId t2 = schema.AddEdgeType("t2", movie, actor, 1.0);
  GraphBuilder b(schema);
  NodeId smith1 = b.AddNode(actor, "john smith");
  NodeId smith2 = b.AddNode(actor, "john smith");  // same-name substitute
  NodeId m = b.AddNode(movie, "some film");
  NodeId wilson = b.AddNode(actor, "wilson cruz");
  NodeId charlie = b.AddNode(movie, "charlie wilson war");
  NodeId penelope = b.AddNode(actor, "penelope cruz");
  CIRANK_CHECK_OK(b.AddBidirectionalEdge(smith1, m, t, t2));
  CIRANK_CHECK_OK(b.AddBidirectionalEdge(smith2, m, t, t2));
  CIRANK_CHECK_OK(b.AddBidirectionalEdge(penelope, charlie, t, t2));
  Dataset ds;
  ds.graph = b.Finalize();
  ds.true_popularity.assign(ds.graph.num_nodes(), 0.1);
  InvertedIndex index(ds.graph);
  RelevanceOracle oracle(ds, index);

  LabeledQuery lq;
  lq.query = Query::MustParse("john smith");
  lq.targets = {smith1};
  lq.target_keywords = {{"john", "smith"}};
  // The exact target and the same-name substitute are both fully relevant.
  EXPECT_DOUBLE_EQ(oracle.Relevance(lq, Jtt(smith1)), 1.0);
  EXPECT_DOUBLE_EQ(oracle.Relevance(lq, Jtt(smith2)), 1.0);

  // The spurious stitch: "wilson" from a movie and "cruz" from another
  // actor does NOT satisfy the single-entity group.
  LabeledQuery wc;
  wc.query = Query::MustParse("wilson cruz");
  wc.targets = {wilson};
  wc.target_keywords = {{"wilson", "cruz"}};
  auto stitch = Jtt::Create(charlie, {{charlie, penelope}});
  ASSERT_TRUE(stitch.ok());
  EXPECT_DOUBLE_EQ(oracle.Relevance(wc, *stitch), 0.0);
  EXPECT_DOUBLE_EQ(oracle.Relevance(wc, Jtt(wilson)), 1.0);

  // But best answers still require the exact intended entity.
  std::vector<Jtt> pool{Jtt(smith2), Jtt(smith1)};
  auto best = oracle.BestAnswers(lq, pool);
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], 1u);
}

TEST(ExperimentTest, RunsEndToEndAndRanksCiRankFirst) {
  ImdbGenOptions gopts;
  gopts.num_movies = 150;
  gopts.num_actors = 180;
  gopts.num_actresses = 90;
  gopts.num_directors = 40;
  gopts.num_producers = 25;
  gopts.num_companies = 12;
  gopts.seed = 21;
  auto ds = BuildImdbDataset(gopts);
  ASSERT_TRUE(ds.ok());

  auto engine = CiRankEngine::Builder(ds->graph).Build();
  ASSERT_TRUE(engine.ok());

  QueryGenOptions qopts;
  qopts.num_queries = 25;
  qopts.seed = 22;
  auto queries = GenerateQueries(*ds, qopts);
  ASSERT_TRUE(queries.ok());

  std::vector<std::unique_ptr<Ranker>> owned;
  for (const char* name : {"rwmp", "spark", "discover2", "banks"}) {
    auto r = MakeEvalRanker(name, engine->scorer());
    ASSERT_TRUE(r.ok()) << name;
    owned.push_back(std::move(r).value());
  }
  std::vector<const Ranker*> rankers;
  for (const auto& r : owned) rankers.push_back(r.get());

  auto results = RunEffectiveness(*ds, engine->index(), *queries, rankers);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  for (const RankerEffectiveness& r : *results) {
    EXPECT_GT(r.evaluated_queries, 0);
    EXPECT_GE(r.mrr, 0.0);
    EXPECT_LE(r.mrr, 1.0);
    EXPECT_GE(r.precision, 0.0);
    EXPECT_LE(r.precision, 1.0);
  }
  // All rankers see the same number of queries.
  for (size_t i = 1; i < results->size(); ++i) {
    EXPECT_EQ((*results)[i].evaluated_queries,
              (*results)[0].evaluated_queries);
  }
  // The headline result (Fig. 8's comparison set): CI-Rank's MRR beats
  // SPARK and BANKS. (DISCOVER2 is not part of Fig. 8; on tiny datasets it
  // can tie within noise, so it is only sanity-checked above.)
  EXPECT_GE((*results)[0].mrr, (*results)[1].mrr);
  EXPECT_GE((*results)[0].mrr, (*results)[3].mrr);
}

TEST(ExperimentTest, ValidatesInputs) {
  ImdbGenOptions gopts;
  gopts.num_movies = 20;
  gopts.num_actors = 30;
  gopts.num_actresses = 10;
  gopts.num_directors = 5;
  gopts.num_producers = 4;
  gopts.num_companies = 3;
  auto ds = BuildImdbDataset(gopts);
  ASSERT_TRUE(ds.ok());
  InvertedIndex index(ds->graph);
  EXPECT_FALSE(RunEffectiveness(*ds, index, {}, {}).ok());
}

}  // namespace
}  // namespace cirank
