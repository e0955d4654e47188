// Property tests for the pluggable ranking layer (core/ranker.h,
// core/order_by.h):
//
//   1. Registry contents and error shapes — the core rankers are always
//      registered, and an unknown name fails with a message listing them.
//   2. The composite "rwmp_x_text" at weights (1.0, 0.0) is byte-identical
//      to pure RWMP at k ∈ {1, 5, 20} — the text term degrades to exactly
//      nothing, not to a small perturbation.
//   3. The composite's UpperBound is admissible: branch-and-bound under
//      "rwmp_x_text" returns the same answers as the prune-free naive
//      executor under the same ranker.
//   4. Multi-key ORDER BY is a deterministic total order: any shuffle of a
//      tied answer list sorts back to the same permutation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/execution.h"
#include "core/order_by.h"
#include "core/ranker.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace cirank {
namespace {

using testing_util::Fingerprint;

#define ASSERT_OK_AND_MOVE(lhs, rexpr)                     \
  auto lhs##_result = (rexpr);                             \
  ASSERT_TRUE(lhs##_result.ok())                           \
      << lhs##_result.status().ToString();                 \
  auto lhs = std::move(lhs##_result).value()

TEST(RankerRegistryTest, CoreRankersAreAlwaysRegistered) {
  RankerRegistry& registry = RankerRegistry::Global();
  for (const char* name :
       {"rwmp", "rwmp_x_text", "avg-nonfree-importance",
        "avg-all-importance", "avg-importance-per-size"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  // Names() is sorted and duplicate-free.
  const std::vector<std::string> names = registry.Names();
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(RankerRegistryTest, UnknownRankerErrorListsRegisteredNames) {
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/3, 60);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  RankerEnv env{&engine.scorer(), nullptr, {}};
  auto created = RankerRegistry::Global().Create("no-such-ranker", env);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), Status::Code::kNotFound);
  EXPECT_NE(created.status().message().find("rwmp"), std::string::npos)
      << created.status().ToString();
}

TEST(RankerRegistryTest, DuplicateRegistrationIsRejected) {
  Status status = RankerRegistry::Global().Register(
      "rwmp", [](const RankerEnv&) -> Result<std::unique_ptr<Ranker>> {
        return Status::Internal("never called");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("already registered"), std::string::npos);
}

TEST(CompositeRankerTest, UnitWeightsAreByteIdenticalToPureRwmp) {
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/17, 150);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  for (const char* text : {"kw0", "kw0 kw1", "kw1 kw2 kw3"}) {
    const Query query = Query::MustParse(text);
    for (int k : {1, 5, 20}) {
      ASSERT_OK_AND_MOVE(pure,
                         engine.Search(query, SearchOverrides().WithK(k)));
      ASSERT_OK_AND_MOVE(
          composite,
          engine.Search(query, SearchOverrides()
                                   .WithK(k)
                                   .WithRanker("rwmp_x_text")
                                   .WithCompositeWeights(1.0, 0.0)));
      EXPECT_EQ(Fingerprint(pure), Fingerprint(composite))
          << "query '" << text << "' k=" << k
          << ": composite at (1.0, 0.0) diverged from pure rwmp";
    }
  }
}

TEST(CompositeRankerTest, TextTermChangesScoresAtNonzeroWeight) {
  // Sanity against a vacuous pass above: with the text term actually
  // weighted in, scores must differ somewhere (BM25 is not identically 0
  // on a graph whose nodes carry the query keywords).
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/17, 150);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  const Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(pure, engine.Search(query, SearchOverrides().WithK(5)));
  ASSERT_OK_AND_MOVE(mixed,
                     engine.Search(query, SearchOverrides()
                                              .WithK(5)
                                              .WithRanker("rwmp_x_text")
                                              .WithCompositeWeights(1.0, 1.0)));
  ASSERT_FALSE(pure.empty());
  ASSERT_FALSE(mixed.empty());
  EXPECT_NE(Fingerprint(pure), Fingerprint(mixed));
}

TEST(CompositeRankerTest, BranchAndBoundMatchesNaiveUnderComposite) {
  // Admissibility end-to-end: if the composite's UpperBound ever
  // under-estimated, bnb would prune answers the exhaustive naive executor
  // keeps, and the two top-k sets would diverge.
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/23, 120);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  for (const char* text : {"kw0", "kw0 kw1", "kw0 kw1 kw2"}) {
    const Query query = Query::MustParse(text);
    const SearchOverrides base = SearchOverrides()
                                     .WithK(8)
                                     .WithRanker("rwmp_x_text")
                                     .WithCompositeWeights(0.7, 0.3);
    ASSERT_OK_AND_MOVE(
        bnb, engine.Search(query, SearchOverrides(base).WithExecutor("bnb")));
    ASSERT_OK_AND_MOVE(
        naive,
        engine.Search(query, SearchOverrides(base).WithExecutor("naive")));
    EXPECT_EQ(Fingerprint(bnb), Fingerprint(naive))
        << "bnb pruning changed composite top-k for query '" << text << "'";
  }
}

std::vector<size_t> OrderOf(const std::vector<RankedAnswer>& answers,
                            const std::vector<RankedAnswer>& reference) {
  std::vector<size_t> order;
  for (const RankedAnswer& answer : answers) {
    for (size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].tree.CanonicalKey() == answer.tree.CanonicalKey()) {
        order.push_back(i);
        break;
      }
    }
  }
  return order;
}

TEST(OrderByTest, TiedAnswersSortToTheSamePermutationFromAnyShuffle) {
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/29, 150);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  const Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(answers,
                     engine.Search(query, SearchOverrides().WithK(20)));
  ASSERT_GE(answers.size(), 3u) << "graph too sparse for a tie test";
  // Force total ties on the primary key: every comparator decision now
  // falls through score to the secondary keys and the canonical tiebreak.
  for (RankedAnswer& answer : answers) answer.score = 1.0;

  ASSERT_OK_AND_MOVE(keys, ParseOrderBy("score desc, size asc, root asc"));
  std::vector<RankedAnswer> first = answers;
  ApplyOrderBy(keys, graph, &first);

  Rng rng(0x0DDB1A5E);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<RankedAnswer> shuffled = answers;
    rng.Shuffle(&shuffled);
    ApplyOrderBy(keys, graph, &shuffled);
    EXPECT_EQ(OrderOf(shuffled, answers), OrderOf(first, answers))
        << "order_by is not a total order: trial " << trial
        << " settled on a different permutation";
  }
}

TEST(OrderByTest, MultiKeyOrderRespectsEveryKey) {
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/31, 150);
  ASSERT_OK_AND_MOVE(engine, CiRankEngine::Builder(graph).Build());
  const Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(answers,
                     engine.Search(query, SearchOverrides().WithK(20)));
  ASSERT_GE(answers.size(), 2u);

  ASSERT_OK_AND_MOVE(keys, ParseOrderBy("size asc, score desc"));
  ApplyOrderBy(keys, graph, &answers);
  for (size_t i = 1; i < answers.size(); ++i) {
    const size_t prev_size = answers[i - 1].tree.nodes().size();
    const size_t cur_size = answers[i].tree.nodes().size();
    EXPECT_LE(prev_size, cur_size);
    if (prev_size == cur_size) {
      EXPECT_GE(answers[i - 1].score, answers[i].score);
    }
  }
}

TEST(OrderByTest, ParseRejectsUnknownFieldAndDirection) {
  EXPECT_FALSE(ParseOrderBy("scoreboard desc").ok());
  EXPECT_FALSE(ParseOrderBy("score sideways").ok());
  ASSERT_OK_AND_MOVE(empty, ParseOrderBy(""));
  EXPECT_TRUE(empty.empty());
  ASSERT_OK_AND_MOVE(keys, ParseOrderBy(" score desc , external_key "));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].field, OrderKey::Field::kScore);
  EXPECT_TRUE(keys[0].descending);
  EXPECT_EQ(keys[1].field, OrderKey::Field::kExternalKey);
  EXPECT_FALSE(keys[1].descending);
}

}  // namespace
}  // namespace cirank
