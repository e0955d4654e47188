#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cirank {

namespace {

// Flows come back in tree-node order, so positional lookup suffices.
double FlowAt(const std::vector<Flow>& flows, const Jtt& tree, NodeId v) {
  const size_t i = tree.IndexOf(v);
  return i == flows.size() ? 0.0 : flows[i].count;
}

}  // namespace

UpperBoundCalculator::UpperBoundCalculator(const TreeScorer& scorer,
                                           const Query& query,
                                           uint32_t max_diameter,
                                           const PairwiseBoundProvider* bounds)
    : scorer_(&scorer),
      query_(&query),
      max_diameter_(max_diameter),
      bounds_(bounds),
      max_dampening_(scorer.model().max_dampening()) {
  CIRANK_DCHECK(query.size() <= 31);
  all_mask_ = query.empty()
                  ? 0
                  : (KeywordMask{1} << query.size()) - 1;

  const RwmpModel& model = scorer.model();
  const InvertedIndex& index = scorer.index();
  keyword_sources_.resize(query.size());
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    for (NodeId v : index.MatchingNodes(query.keywords[i])) {
      const double e = model.Emission(v, query, index);
      if (e > 0.0) keyword_sources_[i].push_back(SourceInfo{v, e});
    }
  }
}

double UpperBoundCalculator::IndexTransmissionBound(NodeId from,
                                                    NodeId to) const {
  if (bounds_ == nullptr) return 1.0;
  const uint32_t ds = bounds_->DistanceLowerBound(from, to);
  if (ds > max_diameter_) return 0.0;  // kUnreachable included
  return ds <= 1 ? 1.0 : std::pow(max_dampening_, static_cast<double>(ds - 1));
}

double UpperBoundCalculator::NeighborDampening(NodeId r) const {
  auto it = neighbor_damp_cache_.find(r);
  if (it != neighbor_damp_cache_.end()) return it->second;
  const RwmpModel& model = scorer_->model();
  double best = 0.0;
  for (const Edge& e : model.graph().out_edges(r)) {
    best = std::max(best, model.dampening(e.to));
  }
  neighbor_damp_cache_[r] = best;
  return best;
}

double UpperBoundCalculator::AttachBound(size_t keyword_idx, NodeId r) const {
  const auto key = std::make_pair(keyword_idx, r);
  auto it = attach_cache_.find(key);
  if (it != attach_cache_.end()) return it->second;

  const Graph& graph = scorer_->model().graph();
  const double nb_damp = NeighborDampening(r);
  double best = 0.0;
  for (const SourceInfo& src : keyword_sources_[keyword_idx]) {
    if (src.node == r) {
      // The root itself matches the keyword; no transmission needed (its
      // messages are "received" at emission strength).
      best = std::max(best, src.emission);
      continue;
    }
    // A non-adjacent source must route through at least one interior node,
    // whose dampening is at most the best neighbor of r (paper's refined
    // complete estimate); an index bound tightens this further.
    const double transmission =
        std::min(graph.has_edge(src.node, r) ? 1.0 : nb_damp,
                 IndexTransmissionBound(src.node, r));
    best = std::max(best, src.emission * transmission);
  }
  attach_cache_[key] = best;
  return best;
}

double UpperBoundCalculator::OutsideBound(NodeId r) const {
  auto it = outside_cache_.find(r);
  if (it != outside_cache_.end()) return it->second;

  const RwmpModel& model = scorer_->model();
  const Graph& graph = model.graph();
  const double nb_damp = NeighborDampening(r);
  double best = 0.0;
  for (const auto& sources : keyword_sources_) {
    for (const SourceInfo& src : sources) {
      if (src.node == r) continue;
      const double transmission =
          std::min(graph.has_edge(r, src.node) ? 1.0 : nb_damp,
                   IndexTransmissionBound(r, src.node));
      best = std::max(best, transmission * model.dampening(src.node));
    }
  }
  outside_cache_[r] = best;
  return best;
}

double UpperBoundCalculator::UpperBound(const Candidate& c) const {
  ++calls_;
  const RwmpModel& model = scorer_->model();
  const InvertedIndex& index = scorer_->index();
  const NodeId r = c.root();

  // In-tree sources and their flows.
  std::vector<SourceInfo> in_tree;
  for (NodeId v : c.tree.nodes()) {
    const double e = model.Emission(v, *query_, index);
    if (e > 0.0) in_tree.push_back(SourceInfo{v, e});
  }
  if (in_tree.empty()) return 0.0;

  std::vector<std::vector<Flow>> flows(in_tree.size());
  for (size_t i = 0; i < in_tree.size(); ++i) {
    flows[i] =
        scorer_->Propagate(c.tree, in_tree[i].node, in_tree[i].emission);
  }

  // Transmission from a unit arrival at the root to every tree node
  // (includes the root's own dampening).
  std::vector<Flow> tau_raw = scorer_->Propagate(c.tree, r, 1.0);
  const double d_root = model.dampening(r);
  auto tau = [&](NodeId d) { return d_root * FlowAt(tau_raw, c.tree, d); };

  // Factor with which each in-tree source's messages leave the root.
  auto leave_root = [&](size_t i) {
    return in_tree[i].node == r ? in_tree[i].emission
                                : FlowAt(flows[i], c.tree, r);
  };

  const bool complete = c.IsComplete(all_mask_);

  // Bounds on the attachment strength of each missing keyword.
  std::vector<size_t> missing;
  std::vector<double> attach;
  for (size_t k = 0; k < query_->size(); ++k) {
    if (c.covered & (KeywordMask{1} << k)) continue;
    const double a = AttachBound(k, r);
    if (a <= 0.0) return 0.0;  // this keyword can never be supplied
    missing.push_back(k);
    attach.push_back(a);
  }

  double best_node_bound = 0.0;
  for (size_t j = 0; j < in_tree.size(); ++j) {
    double bound = std::numeric_limits<double>::infinity();
    // Flows from the other in-tree sources can only shrink as the tree
    // grows, and a min over more message types can only drop.
    for (size_t i = 0; i < in_tree.size(); ++i) {
      if (i == j) continue;
      bound = std::min(bound, FlowAt(flows[i], c.tree, in_tree[j].node));
    }
    const double tau_j = tau(in_tree[j].node);
    for (double a : attach) {
      bound = std::min(bound, a * tau_j);
    }
    if (complete && in_tree.size() == 1) {
      // The candidate alone scores its emission; extensions add sources
      // whose flows are bounded by the best attachment over any keyword.
      double any_attach = 0.0;
      for (size_t k = 0; k < query_->size(); ++k) {
        any_attach = std::max(any_attach, AttachBound(k, r));
      }
      bound = std::max(in_tree[j].emission, any_attach * tau_j);
    }
    best_node_bound = std::max(best_node_bound, bound);
  }

  // Potential estimate: the best score an appended outside non-free node
  // could attain. It receives every in-tree source's messages, so its min
  // flow is bounded by the weakest source's strength at the root.
  double weakest_leave = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < in_tree.size(); ++i) {
    weakest_leave = std::min(weakest_leave, leave_root(i));
  }
  const double pe = weakest_leave * OutsideBound(r);

  return std::max(best_node_bound, pe);
}

}  // namespace cirank
