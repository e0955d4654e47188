#include "index/naive_index.h"

namespace cirank {

namespace {
// Distances are stored in one byte, and max_distance + 1 must fit.
constexpr uint32_t kMaxHorizon = 254;
}  // namespace

Result<NaiveIndex> NaiveIndex::Build(const Graph& graph,
                                     const NaiveIndexOptions& options) {
  const size_t n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > options.max_nodes) {
    return Status::FailedPrecondition(
        "graph too large for the naive all-pairs index; use StarIndex");
  }
  if (options.max_distance > kMaxHorizon) {
    return Status::InvalidArgument("max_distance must be < 255");
  }

  NaiveIndex index;
  index.n_ = n;
  // A pair beyond the horizon is at least one hop past it.
  index.dist_.assign(n * n, static_cast<uint8_t>(options.max_distance + 1));
  std::vector<uint32_t> dist;
  for (NodeId s = 0; s < n; ++s) {
    BfsDistances(graph, s, options.max_distance, &dist);
    for (size_t v = 0; v < n; ++v) {
      if (dist[v] != kUnreachable) {
        index.dist_[s * n + v] = static_cast<uint8_t>(dist[v]);
      }
    }
  }
  return index;
}

uint32_t NaiveIndex::DistanceLowerBound(NodeId from, NodeId to) const {
  return dist_[from * n_ + to];
}

}  // namespace cirank
