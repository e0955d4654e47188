#include "baselines/banks.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <utility>

#include "core/topk.h"
#include "util/check.h"

namespace cirank {

BanksScorer::BanksScorer(const Graph& graph, std::vector<double> importance)
    : graph_(&graph), importance_(std::move(importance)) {
  double max_imp = 0.0;
  for (double p : importance_) max_imp = std::max(max_imp, p);
  if (max_imp > 0.0) {
    for (double& p : importance_) p /= max_imp;
  }
}

double BanksScorer::NodeScore(const Jtt& tree, const Query& query,
                              const InvertedIndex& index) const {
  (void)query;
  (void)index;
  // Average importance of the root and the leaves; intermediate nodes are
  // deliberately ignored (that is BANKS' design).
  double total = importance_[tree.root()];
  size_t count = 1;
  for (NodeId v : tree.nodes()) {
    if (v == tree.root()) continue;
    if (tree.TreeNeighbors(v).size() == 1) {
      total += importance_[v];
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

double BanksScorer::EdgeScore(const Jtt& tree) const {
  double cost_sum = 0.0;
  for (const auto& [parent, child] : tree.edges()) {
    const double w_fwd = graph_->edge_weight(parent, child);
    const double w_bwd = graph_->edge_weight(child, parent);
    const double mean = (w_fwd + w_bwd) / 2.0;
    cost_sum += mean > 0.0 ? 1.0 / mean : 10.0;
  }
  return 1.0 / (1.0 + cost_sum);
}

double BanksScorer::Score(const Jtt& tree, const Query& query,
                          const InvertedIndex& index) const {
  return NodeScore(tree, query, index) * EdgeScore(tree);
}

std::vector<RankedAnswer> AssembleAnswers(const InvertedIndex& index,
                                          const Ranker& ranker,
                                          const Query& query,
                                          const NextHopLabels& next_hop, int k,
                                          uint32_t max_diameter,
                                          ExecutionContext* ctx) {
  TopKAnswers answers(static_cast<size_t>(k));
  const size_t num_nodes = next_hop.empty() ? 0 : next_hop.front().size();
  for (NodeId root = 0; root < num_nodes; ++root) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    const bool reached_by_all = std::all_of(
        next_hop.begin(), next_hop.end(),
        [root](const std::vector<NodeId>& hops) {
          return hops[root] != kInvalidNode;
        });
    if (!reached_by_all) continue;

    std::set<std::pair<NodeId, NodeId>> undirected;
    std::set<NodeId> nodes{root};
    for (const std::vector<NodeId>& hops : next_hop) {
      for (NodeId v = root, n; (n = hops[v]) != v; v = n) {
        CIRANK_DCHECK(n != kInvalidNode) << "next hop leaves the labels";
        undirected.insert({std::min(v, n), std::max(v, n)});
        nodes.insert(n);
      }
    }
    if (undirected.size() + 1 != nodes.size()) continue;  // paths collided

    std::vector<std::pair<NodeId, NodeId>> edges;
    std::set<NodeId> placed{root};
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const auto& [a, b] : undirected) {
        NodeId other = kInvalidNode;
        if (a == u && !placed.count(b)) other = b;
        if (b == u && !placed.count(a)) other = a;
        if (other == kInvalidNode) continue;
        edges.emplace_back(u, other);
        placed.insert(other);
        stack.push_back(other);
      }
    }
    Result<Jtt> tree = Jtt::Create(root, std::move(edges));
    if (!tree.ok() || tree->Diameter() > max_diameter ||
        !tree->CoversAllKeywords(query, index)) {
      continue;
    }
    // A tree that exhausts the budget is still offered; the next root's
    // ShouldStop ends the assembly.
    if (ctx != nullptr) (void)ctx->ChargeCandidates();
    const double score = ranker.ScoreAnswer(*tree, query);
    if (answers.Offer(std::move(tree).value(), score) && ctx != nullptr) {
      ++ctx->stats().answers_found;
    }
  }
  return answers.Take();
}

Result<std::vector<RankedAnswer>> BanksSearch(
    const Graph& graph, const InvertedIndex& index, const Ranker& ranker,
    const Query& query, const BanksSearchOptions& options,
    ExecutionContext* ctx) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");

  // Per keyword: multi-source Dijkstra backwards along in-edges (an answer
  // path runs root -> keyword node, so we walk keyword node -> root against
  // edge direction). Costs are reciprocal mean edge weights; each settled
  // node's next hop leads toward the keyword node.
  const size_t m = query.size();
  std::vector<std::vector<double>> best_cost(
      m, std::vector<double>(graph.num_nodes(),
                             std::numeric_limits<double>::infinity()));
  NextHopLabels next_hop(m,
                         std::vector<NodeId>(graph.num_nodes(), kInvalidNode));

  auto edge_cost = [&](NodeId a, NodeId b) {
    const double w = (graph.edge_weight(a, b) + graph.edge_weight(b, a)) / 2.0;
    return w > 0.0 ? 1.0 / w : 10.0;
  };

  int64_t iterations = 0;
  for (size_t ki = 0; ki < m; ++ki) {
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
    for (NodeId v : index.MatchingNodes(query.keywords[ki])) {
      best_cost[ki][v] = 0.0;
      next_hop[ki][v] = v;
      heap.push({0.0, v});
    }
    std::vector<uint32_t> hop_count(graph.num_nodes(),
                                    std::numeric_limits<uint32_t>::max());
    for (NodeId v : index.MatchingNodes(query.keywords[ki])) hop_count[v] = 0;
    while (!heap.empty()) {
      if (ctx != nullptr && ctx->ShouldStop()) break;
      auto [cost, v] = heap.top();
      heap.pop();
      if (cost > best_cost[ki][v]) continue;
      if (++iterations > options.max_iterations) break;
      if (hop_count[v] >= options.max_diameter) continue;
      for (const Edge& e : graph.in_edges(v)) {
        const NodeId u = e.to;  // predecessor in graph direction
        const double c = cost + edge_cost(u, v);
        if (c < best_cost[ki][u]) {
          best_cost[ki][u] = c;
          next_hop[ki][u] = v;
          hop_count[u] = hop_count[v] + 1;
          heap.push({c, u});
        }
      }
    }
  }

  return AssembleAnswers(index, ranker, query, next_hop, options.k,
                         options.max_diameter, ctx);
}

}  // namespace cirank
