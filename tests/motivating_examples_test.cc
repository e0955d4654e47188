// End-to-end checks that CI-Rank resolves every motivating example of the
// paper the way the paper says it should (Sections I-III).
#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/micro_graphs.h"
#include "eval/rankers.h"

namespace cirank {
namespace {

TEST(MotivatingExamples, TsimmisHighlyCitedPaperWins) {
  // Fig. 2: the JTT through the 38-citation paper must outrank the JTT
  // through the 7-citation paper.
  TsimmisExample ex = BuildTsimmisExample();
  auto engine = CiRankEngine::Builder(ex.dataset.graph).Build();
  ASSERT_TRUE(engine.ok());

  Query q = Query::MustParse("papakonstantinou ullman");
  auto via_a = Jtt::Create(ex.paper_a, {{ex.paper_a, ex.papakonstantinou},
                                        {ex.paper_a, ex.ullman}});
  auto via_b = Jtt::Create(ex.paper_b, {{ex.paper_b, ex.papakonstantinou},
                                        {ex.paper_b, ex.ullman}});
  ASSERT_TRUE(via_a.ok() && via_b.ok());
  EXPECT_GT(engine->ScoreTree(*via_b, q).score,
            engine->ScoreTree(*via_a, q).score);

  // The full search must also surface the paper-(b) tree first among the
  // two-author connections.
  SearchOptions opts;
  opts.k = 3;
  opts.max_diameter = 2;
  auto answers = engine->Search(q, opts);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  EXPECT_TRUE((*answers)[0].tree.contains(ex.paper_b));
}

TEST(MotivatingExamples, CostarPopularMovieWins) {
  // Fig. 3: CI-Rank must prefer the popular connecting movie, which BANKS
  // cannot distinguish (see baselines_test).
  CostarExample ex = BuildCostarExample();
  auto engine = CiRankEngine::Builder(ex.dataset.graph).Build();
  ASSERT_TRUE(engine.ok());

  Query q = Query::MustParse("bloom wood mortensen");
  auto via_popular =
      Jtt::Create(ex.bloom, {{ex.bloom, ex.popular_movie},
                             {ex.popular_movie, ex.wood},
                             {ex.popular_movie, ex.mortensen}});
  auto via_obscure =
      Jtt::Create(ex.bloom, {{ex.bloom, ex.obscure_movie},
                             {ex.obscure_movie, ex.wood},
                             {ex.obscure_movie, ex.mortensen}});
  ASSERT_TRUE(via_popular.ok() && via_obscure.ok());
  EXPECT_GT(engine->ScoreTree(*via_popular, q).score,
            engine->ScoreTree(*via_obscure, q).score);

  SearchOptions opts;
  opts.k = 2;
  opts.max_diameter = 2;
  auto answers = engine->Search(q, opts);
  ASSERT_TRUE(answers.ok());
  ASSERT_GE(answers->size(), 2u);
  EXPECT_TRUE((*answers)[0].tree.contains(ex.popular_movie));
  EXPECT_TRUE((*answers)[1].tree.contains(ex.obscure_movie));
}

TEST(MotivatingExamples, FreeNodeDominationAvoided) {
  // Fig. 4: for "wilson cruz", CI-Rank must rank the single-node actor
  // answer T1 above the spurious Tom Hanks path T2, while the avg-all-
  // importance alternative ranks them the other way around.
  FreeNodeDominationExample ex = BuildFreeNodeDominationExample();
  auto engine = CiRankEngine::Builder(ex.dataset.graph).Build();
  ASSERT_TRUE(engine.ok());

  Query q = Query::MustParse("wilson cruz");
  Jtt t1(ex.wilson_cruz);
  auto t2 = Jtt::Create(
      ex.charlie_wilsons_war,
      {{ex.charlie_wilsons_war, ex.tom_hanks},
       {ex.tom_hanks, ex.tribute},
       {ex.tribute, ex.penelope_cruz}});
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(t2->IsReduced(q, engine->index()));

  EXPECT_GT(engine->ScoreTree(t1, q).score,
            engine->ScoreTree(*t2, q).score);

  auto avg_all = MakeEvalRanker("avg-all-importance", engine->scorer());
  ASSERT_TRUE(avg_all.ok());
  EXPECT_GT((*avg_all)->ScoreAnswer(*t2, q), (*avg_all)->ScoreAnswer(t1, q))
      << "the example should exhibit free-node domination under averaging";

  // The search puts T1 first.
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 3;
  auto answers = engine->Search(q, opts);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  EXPECT_EQ((*answers)[0].tree.size(), 1u);
  EXPECT_TRUE((*answers)[0].tree.contains(ex.wilson_cruz));
}

TEST(MotivatingExamples, StarBeatsChainUnderRwmp) {
  // Sec. III-B alternative 3: equal sizes and near-equal importances, but
  // the star (all sources two hops apart) must beat the chain (up to four
  // hops) under RWMP, while avg-importance/size cannot separate them.
  StarVsChainExample ex = BuildStarVsChainExample();
  auto engine = CiRankEngine::Builder(ex.dataset.graph).Build();
  ASSERT_TRUE(engine.ok());

  Query q = Query::MustParse("alpha beta gamma delta");
  auto star = Jtt::Create(ex.star_nodes[4],
                          {{ex.star_nodes[4], ex.star_nodes[0]},
                           {ex.star_nodes[4], ex.star_nodes[1]},
                           {ex.star_nodes[4], ex.star_nodes[2]},
                           {ex.star_nodes[4], ex.star_nodes[3]}});
  auto chain = Jtt::Create(ex.chain_nodes[2],
                           {{ex.chain_nodes[2], ex.chain_nodes[1]},
                            {ex.chain_nodes[1], ex.chain_nodes[0]},
                            {ex.chain_nodes[2], ex.chain_nodes[3]},
                            {ex.chain_nodes[3], ex.chain_nodes[4]}});
  ASSERT_TRUE(star.ok() && chain.ok());

  EXPECT_GT(engine->ScoreTree(*star, q).score,
            engine->ScoreTree(*chain, q).score);

  auto per_size = MakeEvalRanker("avg-importance-per-size", engine->scorer());
  ASSERT_TRUE(per_size.ok());
  const double s1 = (*per_size)->ScoreAnswer(*star, q);
  const double s2 = (*per_size)->ScoreAnswer(*chain, q);
  // Same size, near-identical importance: the alternative separates them by
  // less than 20% while RWMP separates them decisively.
  EXPECT_LT(std::abs(s1 - s2) / std::max(s1, s2), 0.2);
}

}  // namespace
}  // namespace cirank
