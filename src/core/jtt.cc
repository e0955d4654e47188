#include "core/jtt.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "util/check.h"

namespace cirank {

Result<Jtt> Jtt::Create(NodeId root,
                        std::vector<std::pair<NodeId, NodeId>> edges) {
  Jtt tree;
  tree.root_ = root;
  tree.nodes_.reserve(edges.size() + 1);
  tree.nodes_.push_back(root);
  for (const auto& [parent, child] : edges) {
    tree.nodes_.push_back(parent);
    tree.nodes_.push_back(child);
  }
  std::sort(tree.nodes_.begin(), tree.nodes_.end());
  tree.nodes_.erase(std::unique(tree.nodes_.begin(), tree.nodes_.end()),
                    tree.nodes_.end());
  if (tree.nodes_.size() != edges.size() + 1) {
    return Status::InvalidArgument(
        "edge list does not form a tree (wrong node count)");
  }
  tree.edges_ = std::move(edges);

  tree.adjacency_.assign(tree.nodes_.size(), {});
  for (const auto& [parent, child] : tree.edges_) {
    const size_t pi = tree.IndexOf(parent);
    const size_t ci = tree.IndexOf(child);
    tree.adjacency_[pi].push_back(static_cast<uint32_t>(ci));
    tree.adjacency_[ci].push_back(static_cast<uint32_t>(pi));
  }

  // Connectivity check: a BFS over the undirected adjacency must reach all
  // nodes; together with |edges| == |nodes| - 1 this certifies a tree.
  std::vector<uint32_t> dist;
  tree.DistancesFrom(tree.IndexOf(root), &dist);
  for (uint32_t d : dist) {
    if (d == static_cast<uint32_t>(-1)) {
      return Status::InvalidArgument(
          "edge list does not form a tree rooted at the given root");
    }
  }
#if CIRANK_DCHECK_IS_ON()
  {
    Status audit = ValidateJtt(tree);
    CIRANK_DCHECK(audit.ok())
        << "Jtt::Create produced an invalid tree: " << audit.ToString();
  }
#endif
  return tree;
}

Status ValidateJtt(const Jtt& tree) {
  if (tree.root_ == kInvalidNode) {
    return Status::FailedPrecondition("default-constructed (empty) JTT");
  }
  const std::vector<NodeId>& nodes = tree.nodes_;
  if (nodes.empty()) {
    return Status::Internal("JTT has a root but no node list");
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i - 1] >= nodes[i]) {
      return Status::Internal("JTT node list not sorted/unique");
    }
  }
  const size_t root_index = tree.IndexOf(tree.root_);
  if (root_index == nodes.size()) {
    return Status::Internal("JTT root is not among its nodes");
  }
  if (tree.edges_.size() + 1 != nodes.size()) {
    return Status::Internal("JTT edge count is not |nodes| - 1");
  }
  if (tree.adjacency_.size() != nodes.size()) {
    return Status::Internal("JTT adjacency not parallel to node list");
  }

  // The adjacency must mirror the edge list exactly: count undirected edge
  // stubs per node, then compare.
  std::vector<uint32_t> expected_degree(nodes.size(), 0);
  for (const auto& [parent, child] : tree.edges_) {
    const size_t pi = tree.IndexOf(parent);
    const size_t ci = tree.IndexOf(child);
    if (pi == nodes.size() || ci == nodes.size()) {
      return Status::Internal("JTT edge references a node outside the tree");
    }
    if (pi == ci) return Status::Internal("JTT edge is a self-loop");
    ++expected_degree[pi];
    ++expected_degree[ci];
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (tree.adjacency_[i].size() != expected_degree[i]) {
      return Status::Internal("JTT adjacency disagrees with the edge list");
    }
    for (uint32_t nb : tree.adjacency_[i]) {
      if (nb >= nodes.size()) {
        return Status::Internal("JTT adjacency index out of range");
      }
    }
  }

  // Root reachability: BFS over the adjacency must reach every node. With
  // |edges| == |nodes| - 1 this also certifies acyclicity.
  std::vector<uint32_t> dist;
  tree.DistancesFrom(root_index, &dist);
  for (uint32_t d : dist) {
    if (d == static_cast<uint32_t>(-1)) {
      return Status::Internal(
          "JTT is disconnected (node unreachable from the root)");
    }
  }
  return Status::OK();
}

Status ValidateJtt(const Jtt& tree, const Query& query,
                   const InvertedIndex& index) {
  CIRANK_RETURN_IF_ERROR(ValidateJtt(tree));
  if (!tree.CoversAllKeywords(query, index)) {
    return Status::FailedPrecondition(
        "JTT does not cover every query keyword");
  }
  if (!tree.IsReduced(query, index)) {
    return Status::FailedPrecondition(
        "JTT non-free-node cover violated (Definition 3): some degree-<=1 "
        "node cannot be matched to a distinct keyword");
  }
  return Status::OK();
}

bool Jtt::contains(NodeId v) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), v);
}

size_t Jtt::IndexOf(NodeId v) const {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), v);
  if (it == nodes_.end() || *it != v) return nodes_.size();
  return static_cast<size_t>(it - nodes_.begin());
}

std::vector<NodeId> Jtt::TreeNeighbors(NodeId v) const {
  std::vector<NodeId> out;
  const size_t i = IndexOf(v);
  if (i == nodes_.size()) return out;
  out.reserve(adjacency_[i].size());
  for (uint32_t nb : adjacency_[i]) out.push_back(nodes_[nb]);
  return out;
}

size_t Jtt::DegreeOf(NodeId v) const {
  const size_t i = IndexOf(v);
  return i == nodes_.size() ? 0 : adjacency_[i].size();
}

void Jtt::DistancesFrom(size_t start_index,
                        std::vector<uint32_t>* dist) const {
  dist->assign(nodes_.size(), static_cast<uint32_t>(-1));
  (*dist)[start_index] = 0;
  // Simple array-based frontier; trees are tiny.
  std::vector<uint32_t> frontier{static_cast<uint32_t>(start_index)};
  std::vector<uint32_t> next;
  uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (uint32_t u : frontier) {
      for (uint32_t nb : adjacency_[u]) {
        if ((*dist)[nb] == static_cast<uint32_t>(-1)) {
          (*dist)[nb] = level;
          next.push_back(nb);
        }
      }
    }
    frontier.swap(next);
  }
}

uint32_t Jtt::Diameter() const {
  if (nodes_.size() <= 1) return 0;
  // Standard double-BFS on trees: farthest node from any start, then
  // farthest from there.
  std::vector<uint32_t> dist;
  DistancesFrom(0, &dist);
  size_t far = 0;
  for (size_t i = 1; i < dist.size(); ++i) {
    if (dist[i] > dist[far]) far = i;
  }
  DistancesFrom(far, &dist);
  uint32_t best = 0;
  for (uint32_t d : dist) best = std::max(best, d);
  return best;
}

std::vector<NodeId> Jtt::PathBetween(NodeId a, NodeId b) const {
  std::vector<NodeId> path;
  const size_t ai = IndexOf(a);
  const size_t bi = IndexOf(b);
  if (ai == nodes_.size() || bi == nodes_.size()) return path;

  // BFS from a recording predecessors.
  std::vector<uint32_t> pred(nodes_.size(), static_cast<uint32_t>(-1));
  pred[ai] = static_cast<uint32_t>(ai);
  std::vector<uint32_t> frontier{static_cast<uint32_t>(ai)};
  std::vector<uint32_t> next;
  while (!frontier.empty() && pred[bi] == static_cast<uint32_t>(-1)) {
    next.clear();
    for (uint32_t u : frontier) {
      for (uint32_t nb : adjacency_[u]) {
        if (pred[nb] == static_cast<uint32_t>(-1)) {
          pred[nb] = u;
          next.push_back(nb);
        }
      }
    }
    frontier.swap(next);
  }
  if (pred[bi] == static_cast<uint32_t>(-1)) return path;
  for (uint32_t v = static_cast<uint32_t>(bi);; v = pred[v]) {
    path.push_back(nodes_[v]);
    if (v == ai) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool Jtt::EdgesExistIn(const Graph& graph) const {
  for (const auto& [parent, child] : edges_) {
    if (!graph.has_edge(parent, child) || !graph.has_edge(child, parent)) {
      return false;
    }
  }
  return true;
}

namespace {

// Augmenting-path step of bipartite matching: tries to match required node
// `i` to some keyword it contains, displacing earlier matches if needed.
bool TryMatch(size_t i, const std::vector<std::vector<size_t>>& contains,
              std::vector<int>& keyword_owner, std::vector<bool>& visited) {
  for (size_t k : contains[i]) {
    if (visited[k]) continue;
    visited[k] = true;
    if (keyword_owner[k] < 0 ||
        TryMatch(static_cast<size_t>(keyword_owner[k]), contains,
                 keyword_owner, visited)) {
      keyword_owner[k] = static_cast<int>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

bool MatchableToDistinctKeywords(const std::vector<NodeId>& nodes,
                                 const Query& query,
                                 const InvertedIndex& index) {
  if (nodes.size() > query.size()) return false;

  std::vector<std::vector<size_t>> contains(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t k = 0; k < query.keywords.size(); ++k) {
      if (index.TermFrequency(nodes[i], query.keywords[k]) > 0) {
        contains[i].push_back(k);
      }
    }
    if (contains[i].empty()) return false;  // matches nothing
  }

  std::vector<int> keyword_owner(query.size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::vector<bool> visited(query.size(), false);
    if (!TryMatch(i, contains, keyword_owner, visited)) return false;
  }
  return true;
}

bool Jtt::IsReduced(const Query& query, const InvertedIndex& index) const {
  // Definition 3: there must exist a designated node per keyword (the set R)
  // such that every undirected degree-<=1 node -- the rooted-tree leaves,
  // plus the root when it has a single child -- belongs to R. Equivalently,
  // the required nodes must be matchable to *distinct* keywords they
  // contain.
  std::vector<NodeId> required;
  if (nodes_.size() == 1) {
    required.push_back(root_);
  } else {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (adjacency_[i].size() == 1) required.push_back(nodes_[i]);
    }
  }
  return MatchableToDistinctKeywords(required, query, index);
}

bool Jtt::CoversAllKeywords(const Query& query,
                            const InvertedIndex& index) const {
  for (const std::string& k : query.keywords) {
    bool covered = false;
    for (NodeId v : nodes_) {
      if (index.TermFrequency(v, k) > 0) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

std::string Jtt::CanonicalKey() const {
  std::vector<std::pair<NodeId, NodeId>> undirected;
  undirected.reserve(edges_.size());
  for (const auto& [parent, child] : edges_) {
    undirected.emplace_back(std::min(parent, child),
                            std::max(parent, child));
  }
  std::sort(undirected.begin(), undirected.end());

  std::string out;
  out.reserve(nodes_.size() * 8 + undirected.size() * 16 + 2);
  char buf[16];
  auto append_num = [&](NodeId v) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    out.append(buf, end);
  };
  for (NodeId v : nodes_) {
    append_num(v);
    out.push_back(',');
  }
  out.push_back('|');
  for (const auto& [a, b] : undirected) {
    append_num(a);
    out.push_back('-');
    append_num(b);
    out.push_back(';');
  }
  return out;
}

Jtt Jtt::Canonicalized() const {
  if (root_ == kInvalidNode) return Jtt();
  if (nodes_.size() <= 1) return Jtt(root_);
  const NodeId canon_root = nodes_.front();  // smallest id; nodes_ is sorted
  // BFS from the canonical root, visiting neighbors in ascending node id
  // (adjacency indices point into the sorted node list, so index order is
  // id order). The emitted edge order is therefore a pure function of the
  // undirected node/edge sets.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(edges_.size());
  std::vector<char> visited(nodes_.size(), 0);
  std::vector<size_t> bfs;
  bfs.reserve(nodes_.size());
  visited[0] = 1;
  bfs.push_back(0);
  for (size_t qi = 0; qi < bfs.size(); ++qi) {
    const size_t u = bfs[qi];
    std::vector<uint32_t> nbs = adjacency_[u];
    std::sort(nbs.begin(), nbs.end());
    for (uint32_t v : nbs) {
      if (visited[v]) continue;
      visited[v] = 1;
      edges.emplace_back(nodes_[u], nodes_[v]);
      bfs.push_back(v);
    }
  }
  Result<Jtt> canon = Jtt::Create(canon_root, std::move(edges));
  CIRANK_CHECK(canon.ok()) << "Canonicalized() of a valid tree failed: "
                           << canon.status().ToString();
  return std::move(canon).value();
}

std::string Jtt::ToString(const Graph& graph) const {
  std::ostringstream out;
  out << "JTT(root=" << graph.text_of(root_);
  for (const auto& [parent, child] : edges_) {
    out << "; " << graph.text_of(parent) << " -- " << graph.text_of(child);
  }
  out << ")";
  return out.str();
}

}  // namespace cirank
