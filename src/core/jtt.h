// Joined tuple trees (JTTs): the answer form of Definition 3. A JTT is a
// subtree of the data graph whose leaves are keyword-matching nodes (and
// whose root matches a keyword when it has only one child).
#ifndef CIRANK_CORE_JTT_H_
#define CIRANK_CORE_JTT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "text/inverted_index.h"
#include "util/status.h"

namespace cirank {

// True when `nodes` can be matched to *distinct* query keywords they
// contain (bipartite matching). This is the core of Definition 3's "leaves
// come from R" condition and of the search's candidate-viability pruning.
bool MatchableToDistinctKeywords(const std::vector<NodeId>& nodes,
                                 const Query& query,
                                 const InvertedIndex& index);

// An undirected tree over graph nodes, stored as a rooted edge list with a
// cached index-based adjacency (trees are tiny and immutable, and the
// search scores millions of them, so tree operations avoid heap-heavy
// containers). Two JTTs with the same node/edge sets are the same answer
// regardless of the root used while assembling them; CanonicalKey()
// reflects that.
class Jtt {
 public:
  Jtt() = default;

  // Single-node tree.
  explicit Jtt(NodeId single) : root_(single), nodes_{single}, adjacency_{{}} {}

  // Builds a tree from a root plus (parent, child) edges. Fails when the
  // edges do not form a tree rooted at `root` or reference duplicate nodes.
  [[nodiscard]] static Result<Jtt> Create(NodeId root,
                            std::vector<std::pair<NodeId, NodeId>> edges);

  NodeId root() const { return root_; }
  const std::vector<NodeId>& nodes() const { return nodes_; }  // sorted
  const std::vector<std::pair<NodeId, NodeId>>& edges() const {
    return edges_;
  }

  size_t size() const { return nodes_.size(); }
  bool contains(NodeId v) const;

  // Position of v in nodes(), or nodes().size() when absent. O(log n).
  size_t IndexOf(NodeId v) const;

  // Indices (into nodes()) of the tree neighbors of the node at `index`.
  const std::vector<uint32_t>& NeighborIndices(size_t index) const {
    return adjacency_[index];
  }

  // Undirected neighbors of v within the tree (by node id).
  std::vector<NodeId> TreeNeighbors(NodeId v) const;

  // Tree degree of v (0 when v is not in the tree).
  size_t DegreeOf(NodeId v) const;

  // Longest path length (in edges) between any two tree nodes.
  uint32_t Diameter() const;

  // Unique nodes on the undirected tree path from `a` to `b`, inclusive.
  std::vector<NodeId> PathBetween(NodeId a, NodeId b) const;

  // True when every edge exists in `graph` (in both directions, as the FK
  // modeling guarantees).
  bool EdgesExistIn(const Graph& graph) const;

  // Definition 3 check: the degree-<=1 nodes are matchable to distinct
  // query keywords.
  bool IsReduced(const Query& query, const InvertedIndex& index) const;

  // True when the tree nodes jointly cover every query keyword.
  bool CoversAllKeywords(const Query& query, const InvertedIndex& index) const;

  // Root-independent identity: sorted node list plus sorted undirected
  // edge list.
  std::string CanonicalKey() const;

  // Canonical representative of this tree's undirected identity: rooted at
  // the smallest node id, edges emitted in BFS order with neighbors visited
  // in ascending id. Two Jtts with equal CanonicalKey() canonicalize to
  // byte-identical objects, so downstream floating-point work (scoring,
  // message propagation) is independent of the derivation order that built
  // the tree — the search and the shard merge rely on this for exactness.
  Jtt Canonicalized() const;

  // Human-readable rendering using node text, e.g. for example programs.
  std::string ToString(const Graph& graph) const;

 private:
  friend Status ValidateJtt(const Jtt& tree);
  friend struct JttTestPeer;  // test-only corruption hook

  // BFS distances (in tree edges) from the node at `start_index`.
  void DistancesFrom(size_t start_index, std::vector<uint32_t>* dist) const;

  NodeId root_ = kInvalidNode;
  std::vector<NodeId> nodes_;                     // sorted, unique
  std::vector<std::pair<NodeId, NodeId>> edges_;  // (parent, child)
  std::vector<std::vector<uint32_t>> adjacency_;  // parallel to nodes_
};

// Structural audit of a Jtt: sorted/unique node list, root membership,
// |edges| == |nodes| - 1, edge endpoints in the node set, adjacency mirroring
// the edge list, and every node reachable from the root (which, with the
// edge count, certifies acyclicity). Jtt::Create re-checks this in debug
// builds; tests drive the failure paths through JttTestPeer.
[[nodiscard]] Status ValidateJtt(const Jtt& tree);

// Full Definition-3 audit: structure plus answer-shape conditions — the tree
// covers every query keyword and its non-free nodes (undirected degree <= 1)
// are matchable to distinct keywords (IsReduced).
[[nodiscard]] Status ValidateJtt(const Jtt& tree, const Query& query,
                                 const InvertedIndex& index);

}  // namespace cirank

#endif  // CIRANK_CORE_JTT_H_
