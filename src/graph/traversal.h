// Graph traversal primitives shared by the search algorithms and index
// builders: bounded BFS for hop distances and a max-product Dijkstra used to
// compute best-case message transmission factors (the "minimal loss" LS of
// Sec. V).
#ifndef CIRANK_GRAPH_TRAVERSAL_H_
#define CIRANK_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.h"

namespace cirank {

inline constexpr uint32_t kUnreachable =
    std::numeric_limits<uint32_t>::max();

// Fills `dist` (resized to num_nodes) with BFS hop distances from `source`
// along out-edges, exploring at most `max_dist` hops; unreached nodes get
// kUnreachable.
void BfsDistances(const Graph& graph, NodeId source, uint32_t max_dist,
                  std::vector<uint32_t>* dist);

// Max-product Dijkstra: best[v] = max over directed paths source -> v of the
// product of `node_factor[u]` over *interior* nodes u of the path (source and
// v excluded). `node_factor` values must lie in (0, 1]. best[source] = 1.
// Unreachable nodes get 0. `max_hops` bounds path length in edges.
void MaxProductReachability(const Graph& graph, NodeId source,
                            const std::vector<double>& node_factor,
                            uint32_t max_hops, std::vector<double>* best);

// Number of weakly-connected components treating every edge as undirected
// (the schema adds both directions, so out-edges alone suffice when the
// builder was used correctly; we still union both directions defensively).
size_t CountConnectedComponents(const Graph& graph);

}  // namespace cirank

#endif  // CIRANK_GRAPH_TRAVERSAL_H_
