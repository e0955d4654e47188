#include "baselines/bidirectional.h"

#include <limits>
#include <queue>

namespace cirank {

namespace {

// Per-(keyword, node) reach record during activation spreading; the next
// hop toward the cluster is kept in the NextHopLabels beside it.
struct Reach {
  double activation = 0.0;
  uint32_t hops = std::numeric_limits<uint32_t>::max();
};

}  // namespace

Result<std::vector<RankedAnswer>> BidirectionalSearch(
    const Graph& graph, const InvertedIndex& index, const Ranker& ranker,
    const Query& query, const BidirectionalSearchOptions& options,
    ExecutionContext* ctx) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");
  if (options.activation_decay <= 0.0 || options.activation_decay >= 1.0) {
    return Status::InvalidArgument("activation_decay must be in (0, 1)");
  }

  const size_t m = query.size();
  std::vector<std::vector<Reach>> reach(m,
                                        std::vector<Reach>(graph.num_nodes()));
  NextHopLabels next_hop(m,
                         std::vector<NodeId>(graph.num_nodes(), kInvalidNode));

  // One shared frontier prioritized by activation (the "bidirectional"
  // element: clusters reached from important matches spread first).
  struct Entry {
    double activation;
    uint32_t cluster;
    NodeId node;
    bool operator<(const Entry& other) const {
      return activation < other.activation;
    }
  };
  std::priority_queue<Entry> frontier;

  for (size_t ki = 0; ki < m; ++ki) {
    const std::vector<NodeId> matches =
        index.MatchingNodes(query.keywords[ki]);
    if (matches.empty()) return std::vector<RankedAnswer>{};
    // Initial activation splits the cluster's unit mass over its origins.
    const double a0 = 1.0 / static_cast<double>(matches.size());
    for (NodeId v : matches) {
      reach[ki][v] = Reach{a0, 0};
      next_hop[ki][v] = v;
      frontier.push(Entry{a0, static_cast<uint32_t>(ki), v});
    }
  }

  const uint32_t radius = options.max_diameter;
  int64_t iterations = 0;
  while (!frontier.empty() && iterations < options.max_iterations) {
    if (ctx != nullptr && ctx->ShouldStop()) break;
    ++iterations;
    Entry e = frontier.top();
    frontier.pop();
    const Reach& cur = reach[e.cluster][e.node];
    if (e.activation < cur.activation) continue;  // stale
    if (cur.hops >= radius) continue;
    // Spread backward along in-edges: an answer path runs root -> keyword
    // node, so reachability grows against edge direction.
    for (const Edge& in : graph.in_edges(e.node)) {
      const NodeId u = in.to;
      const double spread = e.activation * options.activation_decay;
      Reach& r = reach[e.cluster][u];
      if (spread > r.activation) {
        r = Reach{spread, cur.hops + 1};
        next_hop[e.cluster][u] = e.node;
        frontier.push(Entry{spread, e.cluster, u});
      }
    }
  }

  return AssembleAnswers(index, ranker, query, next_hop, options.k,
                         options.max_diameter, ctx);
}

}  // namespace cirank
