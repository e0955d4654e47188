// Property tests for the branch-and-bound pruning machinery:
//  1. Admissibility: nothing the stopping rule ever discarded could have
//     produced an answer beating (or tying) the k-th returned score. The
//     search exports the largest discarded bound via
//     SearchStats::max_pruned_bound; it must stay strictly below the k-th
//     score, and below the *true* k-th score from exhaustive enumeration.
//  2. Monotonicity: the pruning threshold (TopKAnswers::MinScore once full)
//     never decreases, no matter the offer order — the shard gather folds
//     per-shard lists through the same accumulator in whatever order the
//     shards finish.
#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bnb_search.h"
#include "core/naive_search.h"
#include "core/topk.h"
#include "tests/test_util.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

TEST(PruningAdmissibilityTest, PrunedBoundsStayBelowKthScore) {
  int runs_with_pruning = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 18));
    Query q = Query::MustParse(seed % 2 == 0 ? "kw0 kw1" : "kw1 kw2 kw3");
    SearchOptions opts;
    opts.k = 3;
    opts.max_diameter = 4;

    SearchStats stats;
    auto result = BranchAndBoundSearch(*b.scorer, q, opts, &stats);
    ASSERT_TRUE(result.ok());
    if (stats.max_pruned_bound == 0.0) continue;  // nothing was pruned
    ++runs_with_pruning;
    // Pruning only happens once k answers exist, and only strictly below
    // the then-current (hence also the final) k-th score.
    ASSERT_EQ(result->size(), static_cast<size_t>(opts.k));
    EXPECT_LT(stats.max_pruned_bound, result->back().score)
        << "seed=" << seed;
  }
  // The property must have actually been exercised.
  EXPECT_GT(runs_with_pruning, 0);
}

TEST(PruningAdmissibilityTest, PrunedBoundsStayBelowTrueKthScore) {
  for (uint64_t seed = 30; seed <= 40; ++seed) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 14));
    Query q = Query::MustParse("kw0 kw1");
    SearchOptions opts;
    opts.k = 4;
    opts.max_diameter = 4;
    SearchStats stats;
    auto result = BranchAndBoundSearch(*b.scorer, q, opts, &stats);
    ASSERT_TRUE(result.ok());
    if (stats.max_pruned_bound == 0.0) continue;

    ExhaustiveSearchOptions ex_opts;
    ex_opts.k = 4;
    ex_opts.max_diameter = 4;
    ex_opts.max_nodes = 9;
    auto truth = ExhaustiveSearch(*b.scorer, q, ex_opts);
    ASSERT_TRUE(truth.ok());
    ASSERT_EQ(truth->size(), static_cast<size_t>(opts.k));
    // Independent ground truth: the discarded bounds could not even have
    // matched the true k-th answer, so no true top-k member was prunable.
    EXPECT_LT(stats.max_pruned_bound,
              truth->back().score * (1.0 + 1e-9) + 1e-12)
        << "seed=" << seed;
  }
}

TEST(TopKAnswersTest, MinScoreIsMonotoneUnderAnyOfferOrder) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    TopKAnswers answers(5);
    double last_min = 0.0;
    bool was_full = false;
    for (int i = 0; i < 200; ++i) {
      // Distinct single-node trees so dedup does not absorb the offer.
      Jtt tree(static_cast<NodeId>(i));
      (void)answers.Offer(std::move(tree), rng.NextDouble());
      if (answers.Full()) {
        if (was_full) {
          EXPECT_GE(answers.MinScore(), last_min) << "offer " << i;
        }
        last_min = answers.MinScore();
        was_full = true;
      }
    }
    EXPECT_TRUE(was_full);
  }
}

TEST(TopKAnswersTest, DeduplicatesByCanonicalKey) {
  // In the searches a tree's score is a pure function of its canonical
  // form, so re-offers always carry the identical score and first-wins
  // dedup is exact.
  TopKAnswers answers(3);
  EXPECT_TRUE(answers.Offer(Jtt(7), 0.5));
  EXPECT_FALSE(answers.Offer(Jtt(7), 0.5));
  EXPECT_TRUE(answers.Offer(Jtt(9), 0.25));
  std::vector<RankedAnswer> out = answers.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].score, 0.5);
  EXPECT_EQ(out[1].score, 0.25);
}

// Offers arriving in a schedule-dependent order: many threads offering
// under one mutex. The final contents must equal what a serial fold over
// the same offers produces, and the threshold must never have been
// observed to drop.
TEST(TopKAnswersTest, ConcurrentOffersMatchSerialFold) {
  constexpr size_t kK = 8;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;

  // Scores are a pure function of the tree (as in the searches, where the
  // canonical tree determines the score); repeated node ids exercise the
  // dedup path concurrently without making the result order-dependent.
  auto score_of = [](NodeId v) {
    uint64_t h = v;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return static_cast<double>(h % 100000) / 100000.0;
  };
  std::vector<std::pair<NodeId, double>> offers;
  Rng rng(99);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const NodeId v = static_cast<NodeId>(rng.NextUint(500));
    offers.emplace_back(v, score_of(v));
  }

  TopKAnswers concurrent(kK);
  cirank::Mutex mu;
  std::atomic<bool> monotone{true};
  {
    ThreadPool pool(kThreads);
    pool.ParallelFor(offers.size(), [&](size_t i) {
      cirank::MutexLock lk(mu);
      const bool full_before = concurrent.Full();
      const double min_before = full_before ? concurrent.MinScore() : 0.0;
      (void)concurrent.Offer(Jtt(offers[i].first), offers[i].second);
      if (full_before && concurrent.MinScore() < min_before) {
        monotone.store(false, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_TRUE(monotone.load(std::memory_order_relaxed));

  TopKAnswers serial(kK);
  for (const auto& [node, score] : offers) {
    (void)serial.Offer(Jtt(node), score);
  }

  std::vector<RankedAnswer> a = concurrent.Take();
  std::vector<RankedAnswer> b = serial.Take();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    EXPECT_EQ(a[i].tree.CanonicalKey(), b[i].tree.CanonicalKey())
        << "rank " << i;
  }
}

}  // namespace
}  // namespace cirank
