#include "index/star_index.h"

#include <algorithm>

namespace cirank {

namespace {
// Distances are stored in one byte, and max_distance + 1 must fit.
constexpr uint32_t kMaxHorizon = 254;
// Degree product beyond which the exact Case-3 double loop is skipped in
// favor of a cheap bound.
constexpr size_t kCase3DegreeCap = 4096;
}  // namespace

Result<StarIndex> StarIndex::Build(const Graph& graph,
                                   const StarIndexOptions& options) {
  if (graph.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  if (options.max_distance > kMaxHorizon) {
    return Status::InvalidArgument("max_distance must be < 255");
  }

  StarIndex index;
  index.graph_ = &graph;
  index.star_tables_ = graph.schema().FindStarTables();

  std::vector<bool> is_star_table(graph.schema().num_relations(), false);
  for (RelationId r : index.star_tables_) {
    is_star_table[static_cast<size_t>(r)] = true;
  }

  index.star_ordinal_.assign(graph.num_nodes(), -1);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (is_star_table[static_cast<size_t>(graph.relation_of(v))]) {
      index.star_ordinal_[v] = static_cast<int32_t>(index.star_nodes_.size());
      index.star_nodes_.push_back(v);
    }
  }
  index.s_ = index.star_nodes_.size();
  if (index.s_ > options.max_star_nodes) {
    return Status::FailedPrecondition(
        "too many star nodes for the pairwise star index");
  }

  // A pair beyond the horizon is at least one hop past it.
  index.dist_.assign(index.s_ * index.s_,
                     static_cast<uint8_t>(options.max_distance + 1));
  std::vector<uint32_t> dist;
  for (size_t i = 0; i < index.s_; ++i) {
    BfsDistances(graph, index.star_nodes_[i], options.max_distance, &dist);
    for (size_t j = 0; j < index.s_; ++j) {
      const uint32_t d = dist[index.star_nodes_[j]];
      if (d != kUnreachable) {
        index.dist_[i * index.s_ + j] = static_cast<uint8_t>(d);
      }
    }
  }
  return index;
}

Result<StarIndex> StarIndex::Build(const Graph& graph,
                                   const RwmpModel& /*model*/,
                                   const StarIndexOptions& options) {
  return Build(graph, options);
}

uint32_t StarIndex::StarDistance(int32_t from_ord, int32_t to_ord) const {
  return dist_[static_cast<size_t>(from_ord) * s_ +
               static_cast<size_t>(to_ord)];
}

uint32_t StarIndex::DistanceLowerBound(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const int32_t fo = star_ordinal_[from];
  const int32_t to_ord = star_ordinal_[to];

  if (fo >= 0 && to_ord >= 0) return StarDistance(fo, to_ord);  // Case 1

  if (fo >= 0) {
    // Case 2a: star -> non-star. Every neighbor of a non-star node is a
    // star node (vertex-cover property), and any path must enter `to`
    // through one of them, so the composition is exact.
    uint32_t best = kUnreachable;
    for (const Edge& e : graph_->out_edges(to)) {
      const int32_t h = star_ordinal_[e.to];
      if (h < 0) continue;
      best = std::min(best, StarDistance(fo, h) + 1);
    }
    return best;
  }

  if (to_ord >= 0) {
    // Case 2b: non-star -> star; the first hop lands on a star node.
    uint32_t best = kUnreachable;
    for (const Edge& e : graph_->out_edges(from)) {
      const int32_t h = star_ordinal_[e.to];
      if (h < 0) continue;
      best = std::min(best, StarDistance(h, to_ord) + 1);
    }
    return best;
  }

  // Case 3: both non-star. Two distinct non-star nodes are never adjacent,
  // so the path passes star neighbors on both sides.
  const auto from_edges = graph_->out_edges(from);
  const auto to_edges = graph_->out_edges(to);
  if (from_edges.size() * to_edges.size() > kCase3DegreeCap) {
    return 2;  // cheap but valid lower bound
  }
  uint32_t best = kUnreachable;
  for (const Edge& ef : from_edges) {
    const int32_t h = star_ordinal_[ef.to];
    if (h < 0) continue;
    for (const Edge& et : to_edges) {
      const int32_t h2 = star_ordinal_[et.to];
      if (h2 < 0) continue;
      best = std::min(best, StarDistance(h, h2) + 2);
    }
  }
  return best;
}

}  // namespace cirank
