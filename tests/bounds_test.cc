// Admissibility checks for the branch-and-bound upper bound (Lemma 1): the
// bound of any candidate must dominate the score of every answer tree that
// contains the candidate with matching attachment structure. We verify this
// empirically by enumerating all answers on random graphs and, for each
// answer, checking the bound of candidates taken from its own subtrees.
// The bound over a flat candidate is also held bit for bit against a
// reference computed on the materialized Jtt with TreeScorer::Propagate.
#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/naive_search.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

// The calculator keeps its scorer and node table by reference, so it must
// not accept temporaries of either (nor a temporary Query, which it once
// kept a pointer to).
static_assert(!std::is_constructible_v<UpperBoundCalculator, TreeScorer,
                                       const QueryNodeTable&, uint32_t,
                                       const PairwiseBoundProvider*>);
static_assert(!std::is_constructible_v<UpperBoundCalculator,
                                       const TreeScorer&, QueryNodeTable,
                                       uint32_t, const PairwiseBoundProvider*>);
static_assert(!std::is_constructible_v<UpperBoundCalculator,
                                       const TreeScorer&, Query, uint32_t,
                                       const PairwiseBoundProvider*>);

TEST(BoundsTest, CompleteCandidateBoundDominatesOwnScore) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 16));
    Query q = Query::MustParse("kw0 kw1");
    QueryNodeTable nodes(*b.scorer, q);
    UpperBoundCalculator calc(*b.scorer, nodes, 4, nullptr);
    Arena arena;

    ExhaustiveSearchOptions opts;
    opts.k = 50;
    opts.max_diameter = 4;
    opts.max_nodes = 6;
    auto answers = ExhaustiveSearch(*b.scorer, q, opts);
    ASSERT_TRUE(answers.ok());
    for (const RankedAnswer& a : *answers) {
      const Candidate c = CandidateFromJtt(a.tree, b.graph, nodes, arena);
      ASSERT_EQ(c.covered, calc.all_keywords_mask());
      EXPECT_GE(calc.UpperBound(c), a.score - 1e-12)
          << "seed " << seed << " tree " << a.tree.CanonicalKey();
    }
  }
}

TEST(BoundsTest, SingletonBoundDominatesAnswersBuiltFromIt) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 14));
    Query q = Query::MustParse("kw0 kw1");
    QueryNodeTable nodes(*b.scorer, q);
    UpperBoundCalculator calc(*b.scorer, nodes, 4, nullptr);
    CandidateBuilder builder(b.graph, nodes);

    ExhaustiveSearchOptions opts;
    opts.k = 50;
    opts.max_diameter = 4;
    opts.max_nodes = 6;
    auto answers = ExhaustiveSearch(*b.scorer, q, opts);
    ASSERT_TRUE(answers.ok());

    for (const RankedAnswer& a : *answers) {
      // Every node of the answer could have been the seed singleton the
      // search grew this answer from (if it matches a keyword).
      for (NodeId v : a.tree.nodes()) {
        const Candidate& c = builder.Seed(v);
        if (c.covered == 0) continue;
        EXPECT_GE(calc.UpperBound(c), a.score - 1e-12)
            << "seed " << seed << " node " << v;
      }
    }
  }
}

TEST(BoundsTest, InfeasibleKeywordYieldsZeroBound) {
  // Graph where "kw9" matches nothing.
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(7, 12));
  Query q = Query::MustParse("kw0 kw9zzz");
  QueryNodeTable nodes(*b.scorer, q);
  UpperBoundCalculator calc(*b.scorer, nodes, 4, nullptr);
  CandidateBuilder builder(b.graph, nodes);
  // Seed a kw0 singleton; the second keyword can never be supplied.
  auto matches = b.index->MatchingNodes("kw0");
  ASSERT_FALSE(matches.empty());
  EXPECT_DOUBLE_EQ(calc.UpperBound(builder.Seed(matches[0])), 0.0);
}

TEST(BoundsTest, BoundShrinksOrHoldsAsCandidateGrows) {
  // Growing a candidate along the path of a real answer should not raise
  // the bound above the singleton's (sanity of monotone pruning).
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(21, 16));
  Query q = Query::MustParse("kw0 kw1");
  QueryNodeTable nodes(*b.scorer, q);
  UpperBoundCalculator calc(*b.scorer, nodes, 4, nullptr);
  CandidateBuilder builder(b.graph, nodes);
  Arena arena;

  auto matches = b.index->MatchingNodes("kw0");
  ASSERT_FALSE(matches.empty());
  NodeId seed = matches[0];
  const Candidate c = PlaceCandidate(builder.Seed(seed), arena);
  const double ub0 = calc.UpperBound(c);
  // All candidates' bounds are finite and non-negative.
  EXPECT_GE(ub0, 0.0);
  for (const Edge& e : b.graph.out_edges(seed)) {
    const double ub1 = calc.UpperBound(builder.Grow(c, e.to));
    EXPECT_GE(ub1, 0.0);
  }
}

// The bound as computed before candidates were flat: TreeScorer::Propagate
// on the Jtt for every in-tree source and for a unit arrival at the root,
// with the complete and potential estimates of the calculator, without an
// index.
double ReferenceUpperBound(const TreeScorer& scorer, const Query& query,
                           const Jtt& tree, KeywordMask covered) {
  const RwmpModel& model = scorer.model();
  const Graph& graph = model.graph();
  const InvertedIndex& index = scorer.index();
  const NodeId r = tree.root();
  auto emission = [&](NodeId v) { return model.Emission(v, query, index); };
  auto nb_damp = [&](NodeId v) {
    double best = 0.0;
    for (const Edge& e : graph.out_edges(v)) {
      best = std::max(best, model.dampening(e.to));
    }
    return best;
  };
  auto attach = [&](size_t k) {
    double best = 0.0;
    for (NodeId x : index.MatchingNodes(query.keywords[k])) {
      const double e = emission(x);
      if (e <= 0.0) continue;
      if (x == r) {
        best = std::max(best, e);
        continue;
      }
      const double t = std::min(graph.has_edge(x, r) ? 1.0 : nb_damp(r), 1.0);
      best = std::max(best, e * t);
    }
    return best;
  };
  auto outside = [&] {
    double best = 0.0;
    for (const std::string& k : query.keywords) {
      for (NodeId x : index.MatchingNodes(k)) {
        if (emission(x) <= 0.0 || x == r) continue;
        const double t =
            std::min(graph.has_edge(r, x) ? 1.0 : nb_damp(r), 1.0);
        best = std::max(best, t * model.dampening(x));
      }
    }
    return best;
  };

  std::vector<NodeId> src;
  std::vector<double> em;
  for (NodeId v : tree.nodes()) {
    if (emission(v) > 0.0) {
      src.push_back(v);
      em.push_back(emission(v));
    }
  }
  if (src.empty()) return 0.0;
  std::vector<std::vector<Flow>> flows;
  flows.reserve(src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    flows.push_back(scorer.Propagate(tree, src[i], em[i]));
  }
  const std::vector<Flow> tau_raw = scorer.Propagate(tree, r, 1.0);
  auto at = [&](const std::vector<Flow>& f, NodeId v) {
    return f[tree.IndexOf(v)].count;
  };
  std::vector<double> attach_bounds;
  for (size_t k = 0; k < query.size(); ++k) {
    if (covered & (KeywordMask{1} << k)) continue;
    const double a = attach(k);
    if (a <= 0.0) return 0.0;
    attach_bounds.push_back(a);
  }
  const bool complete =
      covered == (KeywordMask{1} << query.size()) - 1;
  double best = 0.0;
  for (size_t j = 0; j < src.size(); ++j) {
    double bound = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < src.size(); ++i) {
      if (i != j) bound = std::min(bound, at(flows[i], src[j]));
    }
    const double tau_j = model.dampening(r) * at(tau_raw, src[j]);
    for (double a : attach_bounds) bound = std::min(bound, a * tau_j);
    if (complete && src.size() == 1) {
      double any = 0.0;
      for (size_t k = 0; k < query.size(); ++k) any = std::max(any, attach(k));
      bound = std::max(em[j], any * tau_j);
    }
    best = std::max(best, bound);
  }
  double weakest = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < src.size(); ++i) {
    weakest = std::min(weakest, src[i] == r ? em[i] : at(flows[i], r));
  }
  return std::max(best, weakest * outside());
}

// Candidates derived by random grow/merge chains (so edge orders and
// out-weight summation orders vary) get exactly the reference bound.
TEST(BoundsTest, FlatBoundEqualsTheJttReferenceBitForBit) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 16));
    Query q = Query::MustParse("kw0 kw1 kw2");
    QueryNodeTable nodes(*b.scorer, q);
    UpperBoundCalculator calc(*b.scorer, nodes, 6, nullptr);
    CandidateBuilder builder(b.graph, nodes);
    Arena arena;
    Rng rng(seed);
    std::vector<Candidate> pool;
    auto check = [&](const Candidate& c) {
      const double ref = ReferenceUpperBound(*b.scorer, q, MaterializeJtt(c),
                                             c.covered);
      EXPECT_EQ(calc.UpperBound(c), ref)
          << "seed " << seed << " tree "
          << MaterializeJtt(c).CanonicalKey() << " root " << c.root;
      if (builder.viable() && c.diameter <= 6) {
        pool.push_back(PlaceCandidate(c, arena));
      }
    };
    for (NodeId v : nodes.non_free()) check(builder.Seed(v));
    for (int step = 0; step < 600 && !pool.empty(); ++step) {
      const Candidate c = pool[rng.NextUint(pool.size())];
      if (rng.NextUint(2) == 0) {
        for (const Edge& e : b.graph.out_edges(c.root)) {
          if (!c.contains(e.to)) {
            check(builder.Grow(c, e.to));
            break;
          }
        }
      } else {
        for (const Candidate& d : std::vector<Candidate>(pool)) {
          if (d.root != c.root) continue;
          const Candidate* merged = builder.Merge(c, d, false);
          if (merged != nullptr) {
            check(*merged);
            break;
          }
        }
      }
    }
    EXPECT_GT(pool.size(), nodes.non_free().size());
  }
}

}  // namespace
}  // namespace cirank
