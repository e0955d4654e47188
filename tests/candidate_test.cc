// Flat candidates (core/candidate.h): grow and merge keep diameter, height,
// non-root leaves, coverage and the edge hash incrementally, and these
// tests hold every stored fact against the value recomputed from the
// materialized Jtt. Dedup identity is (root, undirected edge set), hashed
// and then confirmed exactly.
#include "core/candidate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "util/random.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

// Every stored fact of `c`, recomputed here from its Jtt.
void ExpectFactsMatchTree(const Candidate& c, const Query& query,
                          const InvertedIndex& index) {
  SCOPED_TRACE("candidate rooted at " + std::to_string(c.root));
  const Jtt tree = MaterializeJtt(c);
  ASSERT_TRUE(ValidateJtt(tree).ok());
  EXPECT_EQ(tree.root(), c.root);
  EXPECT_EQ(tree.size(), c.size);
  EXPECT_EQ(std::vector<NodeId>(c.nodes, c.nodes + c.size), tree.nodes());
  EXPECT_EQ(c.diameter, tree.Diameter());
  uint32_t height = 0;
  uint32_t leaves = 0;
  KeywordMask covered = 0;
  for (NodeId v : tree.nodes()) {
    height = std::max(
        height, static_cast<uint32_t>(tree.PathBetween(c.root, v).size() - 1));
    if (tree.size() > 1 && v != c.root && tree.DegreeOf(v) == 1) ++leaves;
    covered |= NodeKeywordMask(v, query, index);
  }
  EXPECT_EQ(c.height, height);
  EXPECT_EQ(c.non_root_leaves, leaves);
  EXPECT_EQ(c.covered, covered);
}

// The viability rule stated on the Jtt: non-root degree-1 nodes matchable
// to distinct keywords (single nodes are seeds, always viable).
bool JttViable(const Candidate& c, const Query& query,
               const InvertedIndex& index) {
  const Jtt tree = MaterializeJtt(c);
  if (tree.size() == 1) return true;
  std::vector<NodeId> leaves;
  for (NodeId v : tree.nodes()) {
    if (v != c.root && tree.DegreeOf(v) == 1) leaves.push_back(v);
  }
  return MatchableToDistinctKeywords(leaves, query, index);
}

class CandidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    RelationId e = schema.AddRelation("E");
    EdgeTypeId t = schema.AddEdgeType("t", e, e, 1.0);
    GraphBuilder b(schema);
    // 0:"alpha", 1:"hub", 2:"beta", 3:"gamma", 4:"alpha beta"; the hub
    // links to every other node.
    n_ = {b.AddNode(e, "alpha"), b.AddNode(e, "hub"), b.AddNode(e, "beta"),
          b.AddNode(e, "gamma"), b.AddNode(e, "alpha beta")};
    for (NodeId leaf : {n_[0], n_[2], n_[3], n_[4]}) {
      CIRANK_CHECK_OK(b.AddBidirectionalEdge(n_[1], leaf, t, t));
    }
    bundle_ = MakeScorerBundle(b.Finalize());
    SetQuery("alpha beta gamma");
  }

  void SetQuery(const std::string& text) {
    query_ = Query::MustParse(text);
    nodes_.emplace(*bundle_.scorer, query_);
    builder_.emplace(bundle_.graph, *nodes_);
  }

  // Builder results, copied into the arena so they survive the next build.
  Candidate Seed(NodeId v) { return Keep(builder_->Seed(v)); }
  Candidate Grow(const Candidate& c, NodeId v) {
    return Keep(builder_->Grow(c, v));
  }
  const Candidate* Merge(const Candidate& a, const Candidate& b,
                         bool strict = false) {
    const Candidate* merged = builder_->Merge(a, b, strict);
    if (merged == nullptr) return nullptr;
    kept_.push_back(Keep(*merged));
    return &kept_.back();
  }
  Candidate Keep(const Candidate& c) {
    ExpectFactsMatchTree(c, query_, *bundle_.index);
    EXPECT_TRUE(ValidateCandidate(c, *nodes_).ok());
    return PlaceCandidate(c, arena_);
  }

  ScorerBundle bundle_;
  std::vector<NodeId> n_;
  Query query_;
  std::optional<QueryNodeTable> nodes_;
  std::optional<CandidateBuilder> builder_;
  Arena arena_;
  std::deque<Candidate> kept_;
};

TEST_F(CandidateTest, NodeKeywordMasks) {
  const InvertedIndex& index = *bundle_.index;
  EXPECT_EQ(NodeKeywordMask(n_[0], query_, index), 0b001u);
  EXPECT_EQ(NodeKeywordMask(n_[2], query_, index), 0b010u);
  EXPECT_EQ(NodeKeywordMask(n_[4], query_, index), 0b011u);
  EXPECT_EQ(NodeKeywordMask(n_[1], query_, index), 0u);
  // The node table stores the same masks, and RwmpModel::Emission, for the
  // non-free nodes only.
  EXPECT_EQ(nodes_->non_free(),
            (std::vector<NodeId>{n_[0], n_[2], n_[3], n_[4]}));
  for (NodeId v : n_) {
    EXPECT_EQ(nodes_->mask(v), NodeKeywordMask(v, query_, index));
    EXPECT_EQ(nodes_->emission(v),
              bundle_.model->Emission(v, query_, index));
  }
  EXPECT_EQ(nodes_->all_keywords(), 0b111u);
}

TEST_F(CandidateTest, GrowAddsRootAndCoverage) {
  Candidate c = Seed(n_[0]);
  Candidate grown = Grow(c, n_[1]);
  EXPECT_EQ(grown.root, n_[1]);
  EXPECT_EQ(grown.size, 2u);
  EXPECT_EQ(grown.covered, 0b001u);
  EXPECT_EQ(grown.diameter, 1u);
  EXPECT_EQ(grown.height, 1u);
  EXPECT_EQ(grown.non_root_leaves, 1u);
  // Edges carry both directed weights of the graph.
  ASSERT_EQ(grown.tree_edges().size(), 1u);
  EXPECT_EQ(grown.edges[0].parent, n_[1]);
  EXPECT_EQ(grown.edges[0].child, n_[0]);
  EXPECT_EQ(grown.edges[0].w_down, bundle_.graph.edge_weight(n_[1], n_[0]));
  EXPECT_EQ(grown.edges[0].w_up, bundle_.graph.edge_weight(n_[0], n_[1]));

  Candidate again = Grow(grown, n_[2]);
  EXPECT_EQ(again.root, n_[2]);
  EXPECT_EQ(again.covered, 0b011u);
  EXPECT_EQ(again.diameter, 2u);
  EXPECT_EQ(again.height, 2u);
}

TEST_F(CandidateTest, GrowRejectsANodeAlreadyInTheTree) {
  Candidate grown = Grow(Seed(n_[0]), n_[1]);
  EXPECT_DEATH(builder_->Grow(grown, n_[0]), "already in the tree");
}

TEST_F(CandidateTest, MergeRequiresSameRoot) {
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Seed(n_[2]);
  EXPECT_EQ(Merge(a, b), nullptr);
}

TEST_F(CandidateTest, MergeCombinesSubtrees) {
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[2]), n_[1]);
  const Candidate* merged = Merge(a, b);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->root, n_[1]);
  EXPECT_EQ(merged->size, 3u);
  EXPECT_EQ(merged->covered, 0b011u);
  EXPECT_EQ(merged->diameter, 2u);
  EXPECT_EQ(merged->height, 1u);
  EXPECT_EQ(merged->non_root_leaves, 2u);
  EXPECT_TRUE(builder_->viable());
}

TEST_F(CandidateTest, MergeRejectsOverlap) {
  // Both subtrees contain n0 beyond the shared root.
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[0]), n_[1]);
  EXPECT_EQ(Merge(a, b), nullptr);
}

TEST_F(CandidateTest, StrictMergeNeedsCoverageGrowth) {
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[4]), n_[1]);
  // Relaxed: allowed. Strict: union == b's mask -> rejected.
  EXPECT_NE(Merge(a, b, /*strict=*/false), nullptr);
  EXPECT_EQ(Merge(a, b, /*strict=*/true), nullptr);
}

TEST_F(CandidateTest, CompletenessMask) {
  Candidate c = Seed(n_[4]);
  EXPECT_FALSE(c.IsComplete(0b111));
  EXPECT_TRUE(c.IsComplete(0b011));
}

TEST_F(CandidateTest, ViabilityPrunesUnmatchableLeaves) {
  // Seeds are viable.
  Candidate seed = Seed(n_[0]);
  EXPECT_TRUE(builder_->viable());

  // alpha -- hub (rooted hub): non-root leaf alpha matches -> viable.
  Grow(seed, n_[1]);
  EXPECT_TRUE(builder_->viable());

  // hub rooted at alpha: non-root leaf hub matches nothing -> not viable.
  Grow(Seed(n_[1]), n_[0]);
  EXPECT_FALSE(builder_->viable());

  // Leaves alpha and "alpha beta" are matchable (alpha, beta) -> viable.
  SetQuery("alpha beta");
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[4]), n_[1]);
  ASSERT_NE(Merge(a, b), nullptr);
  EXPECT_TRUE(builder_->viable());

  // Two leaves that both match only "alpha" can never be distinct.
  SetQuery("alpha gamma");
  Candidate c = Grow(Seed(n_[0]), n_[1]);
  Candidate d = Grow(Seed(n_[4]), n_[1]);
  ASSERT_NE(Merge(c, d), nullptr);
  EXPECT_FALSE(builder_->viable());
}

TEST_F(CandidateTest, ReducedMatchesTheJttRule) {
  // Path alpha -- hub -- beta, rooted at the hub: both degree-1 nodes match.
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[2]), n_[1]);
  const Candidate* path = Merge(a, b);
  ASSERT_NE(path, nullptr);
  EXPECT_TRUE(builder_->IsReduced(*path));
  EXPECT_EQ(builder_->IsReduced(*path),
            MaterializeJtt(*path).IsReduced(query_, *bundle_.index));
  // alpha -- hub rooted at the hub: the root has one child and matches
  // nothing, so the tree is not reduced.
  EXPECT_FALSE(builder_->IsReduced(a));
  EXPECT_FALSE(MaterializeJtt(a).IsReduced(query_, *bundle_.index));
}

TEST_F(CandidateTest, TwoDerivationsOfOneRootedTreeAreOneCandidate) {
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[2]), n_[1]);
  Candidate g = Grow(Seed(n_[3]), n_[1]);
  const Candidate* ab = Merge(a, b);
  ASSERT_NE(ab, nullptr);
  const Candidate* ab_g = Merge(*ab, g);
  const Candidate* ga = Merge(g, a);
  ASSERT_NE(ga, nullptr);
  const Candidate* ga_b = Merge(*ga, b);
  ASSERT_NE(ab_g, nullptr);
  ASSERT_NE(ga_b, nullptr);
  EXPECT_TRUE(SameCandidate(*ab_g, *ga_b));
  EXPECT_EQ(ab_g->Hash(), ga_b->Hash());
  // Different derivation orders, one edge set.
  EXPECT_NE(ab_g->edges[0].child, ga_b->edges[0].child);

  CandidateSet set;
  set.Insert(ab_g);
  EXPECT_EQ(set.Find(*ga_b), ab_g);

  // The path alpha -- hub -- beta rooted at the hub and rooted at beta is
  // one Jtt but two candidates: they offer different expansions.
  Candidate at_beta = Grow(a, n_[2]);
  EXPECT_EQ(MaterializeJtt(at_beta).CanonicalKey(),
            MaterializeJtt(*ab).CanonicalKey());
  EXPECT_FALSE(SameCandidate(at_beta, *ab));
  set.Insert(ab);
  EXPECT_EQ(set.Find(at_beta), nullptr);
  set.Insert(&at_beta);
  EXPECT_EQ(set.Find(at_beta), &at_beta);
  EXPECT_EQ(set.size(), 3u);
}

TEST_F(CandidateTest, HashCollisionsAreConfirmedExactly) {
  // Two different trees at one root, forced onto one hash value.
  Candidate a = Grow(Seed(n_[0]), n_[1]);
  Candidate b = Grow(Seed(n_[2]), n_[1]);
  b.edge_hash = a.edge_hash;
  ASSERT_EQ(a.Hash(), b.Hash());
  ASSERT_FALSE(SameCandidate(a, b));

  CandidateSet set;
  set.Insert(&a);
  EXPECT_EQ(set.Find(b), nullptr);  // a hash match alone is not a duplicate
  set.Insert(&b);
  EXPECT_EQ(set.Find(a), &a);
  EXPECT_EQ(set.Find(b), &b);
  EXPECT_EQ(set.size(), 2u);
}

// Random grow/merge chains over random graphs, as the search derives them
// (only viable candidates are expanded further): every stored fact and the
// viability and reduced flags match the Jtt recomputation, and the dedup
// set agrees with a (root, canonical key) string set.
TEST(CandidateChainTest, IncrementalFactsMatchTheMaterializedTree) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScorerBundle b = MakeScorerBundle(MakeRandomGraph(seed, 18));
    const Query query = Query::MustParse("kw0 kw1 kw2");
    QueryNodeTable nodes(*b.scorer, query);
    CandidateBuilder builder(b.graph, nodes);
    Arena arena;
    Rng rng(seed * 7919);

    std::vector<Candidate> pool;
    CandidateSet set;
    std::set<std::string> keys;
    auto consider = [&](const Candidate& c) {
      ExpectFactsMatchTree(c, query, *b.index);
      EXPECT_TRUE(ValidateCandidate(c, nodes).ok());
      EXPECT_EQ(builder.viable(), JttViable(c, query, *b.index));
      if (c.IsComplete(nodes.all_keywords())) {
        EXPECT_EQ(builder.IsReduced(c),
                  MaterializeJtt(c).IsReduced(query, *b.index));
      }
      if (!builder.viable() || c.diameter > 5) return;
      const std::string key = std::to_string(c.root) + "|" +
                              MaterializeJtt(c).CanonicalKey();
      const bool is_new = keys.insert(key).second;
      EXPECT_EQ(set.Find(c) == nullptr, is_new) << key;
      if (!is_new) return;
      pool.push_back(PlaceCandidate(c, arena));
      set.Insert(&pool.back());
    };
    pool.reserve(4000);  // stable addresses for the set
    for (NodeId v : nodes.non_free()) consider(builder.Seed(v));
    for (int step = 0; step < 3000 && pool.size() < 3900; ++step) {
      const Candidate& c = pool[rng.NextUint(pool.size())];
      if (rng.NextUint(2) == 0) {
        std::vector<NodeId> out;
        for (const Edge& e : b.graph.out_edges(c.root)) {
          if (!c.contains(e.to)) out.push_back(e.to);
        }
        if (out.empty()) continue;
        consider(builder.Grow(c, out[rng.NextUint(out.size())]));
      } else {
        std::vector<const Candidate*> co_rooted;
        for (const Candidate& d : pool) {
          if (d.root == c.root && &d != &c) co_rooted.push_back(&d);
        }
        if (co_rooted.empty()) continue;
        const Candidate& d = *co_rooted[rng.NextUint(co_rooted.size())];
        const Candidate* merged = builder.Merge(c, d, false);
        if (merged != nullptr) consider(*merged);
      }
    }
    EXPECT_EQ(set.size(), keys.size());
    EXPECT_GT(keys.size(), nodes.non_free().size());
  }
}

}  // namespace
}  // namespace cirank
