#include "index/star_index.h"

#include <algorithm>

namespace cirank {

namespace {
constexpr uint8_t kFar = 255;
// Degree product beyond which the exact Case-3 double loop is skipped in
// favor of a cheap bound.
constexpr size_t kCase3DegreeCap = 4096;
}  // namespace

Result<StarIndex> StarIndex::Build(const Graph& graph, const RwmpModel& model,
                                   const StarIndexOptions& options) {
  if (graph.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  if (options.max_distance >= kFar) {
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

  index.dist_.assign(index.s_ * index.s_, kFar);
  if (options.exact_transmission) {
    index.trans_.assign(index.s_ * index.s_, 0.0f);
    index.dampening_ = model.dampening_vector();
  }

  std::vector<uint32_t> dist;
  std::vector<double> trans;
  for (size_t i = 0; i < index.s_; ++i) {
    const NodeId s = index.star_nodes_[i];
    BfsDistances(graph, s, options.max_distance, &dist);
    for (size_t j = 0; j < index.s_; ++j) {
      const uint32_t d = dist[index.star_nodes_[j]];
      if (d != kUnreachable) {
        index.dist_[i * index.s_ + j] = static_cast<uint8_t>(d);
      }
    }
    if (options.exact_transmission) {
      MaxProductReachability(graph, s, model.dampening_vector(), kUnreachable,
                             &trans);
      for (size_t j = 0; j < index.s_; ++j) {
        index.trans_[i * index.s_ + j] =
            static_cast<float>(trans[index.star_nodes_[j]]);
      }
    }
  }
  return index;
}

uint32_t StarIndex::StarDistance(int32_t from_ord, int32_t to_ord) const {
  const uint8_t d = dist_[static_cast<size_t>(from_ord) * s_ +
                          static_cast<size_t>(to_ord)];
  return d == kFar ? kUnreachable : d;
}

double StarIndex::StarTransmission(int32_t from_ord, int32_t to_ord) const {
  if (from_ord == to_ord) return 1.0;
  // Nudge up to stay admissible after the double->float narrowing.
  return std::min(
      1.0, static_cast<double>(trans_[static_cast<size_t>(from_ord) * s_ +
                                      static_cast<size_t>(to_ord)]) *
               (1.0 + 1e-6));
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
      const uint32_t d = StarDistance(fo, h);
      if (d != kUnreachable) best = std::min(best, d + 1);
    }
    return best;
  }

  if (to_ord >= 0) {
    // Case 2b: non-star -> star; the first hop lands on a star node.
    uint32_t best = kUnreachable;
    for (const Edge& e : graph_->out_edges(from)) {
      const int32_t h = star_ordinal_[e.to];
      if (h < 0) continue;
      const uint32_t d = StarDistance(h, to_ord);
      if (d != kUnreachable) best = std::min(best, d + 1);
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
      const uint32_t d = StarDistance(h, h2);
      if (d != kUnreachable) best = std::min(best, d + 2);
    }
  }
  return best;
}

double StarIndex::TransmissionBound(NodeId from, NodeId to) const {
  // Outside exact mode only distances are stored; the search applies the
  // closed form over them (star_index.h).
  if (trans_.empty() || from == to) return 1.0;
  if (graph_->has_edge(from, to)) return 1.0;  // direct edge has no interior

  const int32_t fo = star_ordinal_[from];
  const int32_t to_ord = star_ordinal_[to];

  auto damp = [&](NodeId v) { return dampening_[v]; };

  if (fo >= 0 && to_ord >= 0) return StarTransmission(fo, to_ord);

  if (fo >= 0) {
    // star -> non-star: the path's last interior node is a star neighbor h
    // of `to`; product <= trans(from, h) * d(h).
    double best = 0.0;
    for (const Edge& e : graph_->out_edges(to)) {
      const int32_t h = star_ordinal_[e.to];
      if (h < 0) continue;
      best = std::max(best, StarTransmission(fo, h) * damp(e.to));
    }
    return best;
  }

  if (to_ord >= 0) {
    double best = 0.0;
    for (const Edge& e : graph_->out_edges(from)) {
      const int32_t h = star_ordinal_[e.to];
      if (h < 0) continue;
      best = std::max(best, damp(e.to) * StarTransmission(h, to_ord));
    }
    return best;
  }

  const auto from_edges = graph_->out_edges(from);
  const auto to_edges = graph_->out_edges(to);
  if (from_edges.size() * to_edges.size() > kCase3DegreeCap) {
    return 1.0;  // the search's closed form over the distance applies
  }
  double best = 0.0;
  for (const Edge& ef : from_edges) {
    const int32_t h = star_ordinal_[ef.to];
    if (h < 0) continue;
    for (const Edge& et : to_edges) {
      const int32_t h2 = star_ordinal_[et.to];
      if (h2 < 0) continue;
      // A shared star neighbor is a single interior node, not two.
      const double product =
          (h == h2) ? damp(ef.to)
                    : damp(ef.to) * StarTransmission(h, h2) * damp(et.to);
      best = std::max(best, product);
    }
  }
  return best;
}

}  // namespace cirank
