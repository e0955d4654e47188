#include "graph/traversal.h"

#include <queue>

#include "util/check.h"

namespace cirank {

void BfsDistances(const Graph& graph, NodeId source, uint32_t max_dist,
                  std::vector<uint32_t>* dist) {
  dist->assign(graph.num_nodes(), kUnreachable);
  (*dist)[source] = 0;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    uint32_t du = (*dist)[u];
    if (du >= max_dist) continue;
    for (const Edge& e : graph.out_edges(u)) {
      if ((*dist)[e.to] == kUnreachable) {
        (*dist)[e.to] = du + 1;
        frontier.push(e.to);
      }
    }
  }
}

void MaxProductReachability(const Graph& graph, NodeId source,
                            const std::vector<double>& node_factor,
                            uint32_t max_hops, std::vector<double>* best) {
  CIRANK_DCHECK(node_factor.size() == graph.num_nodes());
  best->assign(graph.num_nodes(), 0.0);
  std::vector<uint32_t> hops(graph.num_nodes(), kUnreachable);

  // Max-heap on the accumulated product. Factors are in (0,1] so the product
  // is non-increasing along a path and Dijkstra's greedy argument applies.
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry> heap;
  (*best)[source] = 1.0;
  hops[source] = 0;
  heap.push({1.0, source});

  while (!heap.empty()) {
    auto [value, u] = heap.top();
    heap.pop();
    if (value < (*best)[u]) continue;  // stale entry
    if (hops[u] >= max_hops) continue;
    // Leaving u costs u's dampening factor, except at the source.
    double leave = (u == source) ? value : value * node_factor[u];
    for (const Edge& e : graph.out_edges(u)) {
      if (leave > (*best)[e.to]) {
        (*best)[e.to] = leave;
        hops[e.to] = hops[u] + 1;
        heap.push({leave, e.to});
      }
    }
  }
}

size_t CountConnectedComponents(const Graph& graph) {
  const size_t n = graph.num_nodes();
  std::vector<bool> seen(n, false);
  size_t components = 0;
  std::vector<NodeId> stack;
  for (NodeId start = 0; start < n; ++start) {
    if (seen[start]) continue;
    ++components;
    seen[start] = true;
    stack.push_back(start);
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (const Edge& e : graph.out_edges(u)) {
        if (!seen[e.to]) {
          seen[e.to] = true;
          stack.push_back(e.to);
        }
      }
      for (const Edge& e : graph.in_edges(u)) {
        if (!seen[e.to]) {
          seen[e.to] = true;
          stack.push_back(e.to);
        }
      }
    }
  }
  return components;
}

}  // namespace cirank
