#include "graph/traversal.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace cirank {
namespace {

// Small fixed graph: chain 0-1-2-3 plus shortcut 0-3 (weights 1 each way).
class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    RelationId e = schema.AddRelation("E");
    EdgeTypeId t = schema.AddEdgeType("t", e, e, 1.0);
    GraphBuilder b(schema);
    for (int i = 0; i < 5; ++i) b.AddNode(e, "n" + std::to_string(i));
    auto add = [&](NodeId u, NodeId v) {
      ASSERT_TRUE(b.AddBidirectionalEdge(u, v, t, t).ok());
    };
    add(0, 1);
    add(1, 2);
    add(2, 3);
    add(0, 3);
    // Node 4 is isolated.
    graph_ = b.Finalize();
  }
  Graph graph_;
};

TEST_F(TraversalTest, BfsDistances) {
  std::vector<uint32_t> dist;
  BfsDistances(graph_, 0, 10, &dist);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 1u);  // via shortcut
  EXPECT_EQ(dist[4], kUnreachable);
}

TEST_F(TraversalTest, BfsRespectsCutoff) {
  std::vector<uint32_t> dist;
  BfsDistances(graph_, 0, 1, &dist);
  EXPECT_EQ(dist[2], kUnreachable);  // beyond cutoff
  EXPECT_EQ(dist[1], 1u);
}

TEST_F(TraversalTest, MaxProductPicksBestPath) {
  // Factors: node 1 keeps 0.9, nodes 2,3 keep 0.1.
  std::vector<double> factor = {0.5, 0.9, 0.1, 0.1, 0.5};
  std::vector<double> best;
  MaxProductReachability(graph_, 0, factor, kUnreachable, &best);
  EXPECT_DOUBLE_EQ(best[0], 1.0);
  // Direct edges: no interior nodes.
  EXPECT_DOUBLE_EQ(best[1], 1.0);
  EXPECT_DOUBLE_EQ(best[3], 1.0);
  // To node 2: via 1 (0.9) beats via 3 (0.1).
  EXPECT_DOUBLE_EQ(best[2], 0.9);
  EXPECT_DOUBLE_EQ(best[4], 0.0);  // unreachable
}

TEST_F(TraversalTest, ConnectedComponents) {
  EXPECT_EQ(CountConnectedComponents(graph_), 2u);  // main + isolated node
}

TEST(TraversalRandomTest, MaxProductIsMonotoneUnderMoreEdges) {
  // Adding edges can only improve (or keep) the best product.
  Graph g1 = testing_util::MakeRandomGraph(5, 30, 2.0);
  Graph g2 = testing_util::MakeRandomGraph(5, 30, 5.0);
  std::vector<double> factor(30, 0.5);
  std::vector<double> b1, b2;
  MaxProductReachability(g1, 0, factor, kUnreachable, &b1);
  MaxProductReachability(g2, 0, factor, kUnreachable, &b2);
  // Not directly comparable graphs (different edges), so just check ranges.
  for (double v : b1) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (double v : b2) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

}  // namespace
}  // namespace cirank
