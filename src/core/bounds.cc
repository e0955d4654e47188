#include "core/bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cirank {

UpperBoundCalculator::UpperBoundCalculator(const TreeScorer& scorer,
                                           const QueryNodeTable& nodes,
                                           uint32_t max_diameter,
                                           const PairwiseBoundProvider* bounds)
    : scorer_(&scorer),
      nodes_(&nodes),
      max_diameter_(max_diameter),
      bounds_(bounds),
      max_dampening_(scorer.model().max_dampening()) {}

double UpperBoundCalculator::IndexTransmissionBound(NodeId from,
                                                    NodeId to) const {
  if (bounds_ == nullptr) return 1.0;
  const uint32_t ds = bounds_->DistanceLowerBound(from, to);
  if (ds > max_diameter_) return 0.0;  // kUnreachable included
  return ds <= 1 ? 1.0 : std::pow(max_dampening_, static_cast<double>(ds - 1));
}

double* UpperBoundCalculator::RootMemo(NodeId r) const {
  bool inserted = false;
  uint32_t& offset = memo_index_.FindOrInsert(r, &inserted);
  if (inserted) {
    offset = static_cast<uint32_t>(memo_.size());
    memo_.resize(memo_.size() + 2 + nodes_->num_keywords(), kUnset);
  }
  return &memo_[offset];
}

double UpperBoundCalculator::NeighborDampening(NodeId r, double* memo) const {
  if (memo[0] != kUnset) return memo[0];
  const RwmpModel& model = scorer_->model();
  double best = 0.0;
  for (const Edge& e : model.graph().out_edges(r)) {
    best = std::max(best, model.dampening(e.to));
  }
  memo[0] = best;
  return best;
}

double UpperBoundCalculator::AttachBound(size_t keyword_idx, NodeId r,
                                         double* memo) const {
  double& cached = memo[2 + keyword_idx];
  if (cached != kUnset) return cached;

  const Graph& graph = scorer_->model().graph();
  const double nb_damp = NeighborDampening(r, memo);
  double best = 0.0;
  for (const QueryNodeTable::Source& src : nodes_->sources(keyword_idx)) {
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
  cached = best;
  return best;
}

double UpperBoundCalculator::OutsideBound(NodeId r, double* memo) const {
  if (memo[1] != kUnset) return memo[1];

  const RwmpModel& model = scorer_->model();
  const Graph& graph = model.graph();
  const double nb_damp = NeighborDampening(r, memo);
  double best = 0.0;
  for (size_t k = 0; k < nodes_->num_keywords(); ++k) {
    for (const QueryNodeTable::Source& src : nodes_->sources(k)) {
      if (src.node == r) continue;
      const double transmission =
          std::min(graph.has_edge(r, src.node) ? 1.0 : nb_damp,
                   IndexTransmissionBound(r, src.node));
      best = std::max(best, transmission * model.dampening(src.node));
    }
  }
  memo[1] = best;
  return best;
}

void UpperBoundCalculator::Propagate(uint32_t source, double emission,
                                     double* post) const {
  std::fill(post, post + out_weight_.size(), 0.0);
  post[source] = emission;
  // Iterative DFS carrying the arrival (pre-dampening) count.
  stack_.clear();
  if (out_weight_[source] > 0.0) {
    for (uint32_t a = arc_begin_[source]; a < arc_begin_[source + 1]; ++a) {
      stack_.push_back(StackItem{arcs_[a].to, source,
                                 emission * (arcs_[a].weight /
                                             out_weight_[source])});
    }
  }
  while (!stack_.empty()) {
    const StackItem item = stack_.back();
    stack_.pop_back();
    // Dampening applies at every node the message passes through or reaches.
    const double f = item.arrival * damp_[item.node];
    post[item.node] = f;
    const double w_total = out_weight_[item.node];
    if (w_total <= 0.0) continue;
    for (uint32_t a = arc_begin_[item.node]; a < arc_begin_[item.node + 1];
         ++a) {
      if (arcs_[a].to == item.from) continue;  // back-flow is discarded
      stack_.push_back(
          StackItem{arcs_[a].to, item.node, f * (arcs_[a].weight / w_total)});
    }
  }
}

double UpperBoundCalculator::UpperBound(const Candidate& c) const {
  ++calls_;
  const RwmpModel& model = scorer_->model();
  const NodeId r = c.root;
  const uint32_t n = c.size;

  // In-tree sources, in node-id order.
  sources_.clear();
  emissions_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const double e = nodes_->emission(c.nodes[i]);
    if (e > 0.0) {
      sources_.push_back(i);
      emissions_.push_back(e);
    }
  }
  if (sources_.empty()) return 0.0;

  // Bounds on the attachment strength of each missing keyword.
  double* memo = RootMemo(r);
  attach_.clear();
  for (size_t k = 0; k < nodes_->num_keywords(); ++k) {
    if (c.covered & (KeywordMask{1} << k)) continue;
    const double a = AttachBound(k, r, memo);
    if (a <= 0.0) return 0.0;  // this keyword can never be supplied
    attach_.push_back(a);
  }

  // The local tree. Arcs and out-weight sums follow the derivation-edge
  // order, the order in which Jtt::Create builds adjacency.
  auto local = [&](NodeId v) {
    return static_cast<uint32_t>(std::lower_bound(c.nodes, c.nodes + n, v) -
                                 c.nodes);
  };
  arc_begin_.assign(n + 1, 0);
  out_weight_.assign(n, 0.0);
  damp_.resize(n);
  for (uint32_t i = 0; i < n; ++i) damp_[i] = model.dampening(c.nodes[i]);
  for (const CandidateEdge& e : c.tree_edges()) {
    ++arc_begin_[local(e.parent) + 1];
    ++arc_begin_[local(e.child) + 1];
  }
  for (uint32_t i = 0; i < n; ++i) arc_begin_[i + 1] += arc_begin_[i];
  arcs_.resize(2 * (n - 1));
  arc_fill_.assign(arc_begin_.begin(), arc_begin_.end() - 1);
  for (const CandidateEdge& e : c.tree_edges()) {
    const uint32_t p = local(e.parent);
    const uint32_t ch = local(e.child);
    arcs_[arc_fill_[p]++] = Arc{ch, e.w_down};
    arcs_[arc_fill_[ch]++] = Arc{p, e.w_up};
    out_weight_[p] += e.w_down;
    out_weight_[ch] += e.w_up;
  }

  // flows_ row i: source i's flow at every node; the last row is the
  // transmission from a unit arrival at the root (tau, before the root's
  // own dampening).
  const size_t num_sources = sources_.size();
  flows_.resize((num_sources + 1) * n);
  for (size_t i = 0; i < num_sources; ++i) {
    Propagate(sources_[i], emissions_[i], &flows_[i * n]);
  }
  const uint32_t root_local = local(r);
  const double* tau_raw = &flows_[num_sources * n];
  Propagate(root_local, 1.0, &flows_[num_sources * n]);
  const double d_root = model.dampening(r);
  auto tau = [&](uint32_t d) { return d_root * tau_raw[d]; };
  auto flow = [&](size_t i, uint32_t d) { return flows_[i * n + d]; };

  // Factor with which each in-tree source's messages leave the root.
  auto leave_root = [&](size_t i) {
    return sources_[i] == root_local ? emissions_[i] : flow(i, root_local);
  };

  const bool complete = c.IsComplete(nodes_->all_keywords());

  double best_node_bound = 0.0;
  for (size_t j = 0; j < num_sources; ++j) {
    double bound = std::numeric_limits<double>::infinity();
    // Flows from the other in-tree sources can only shrink as the tree
    // grows, and a min over more message types can only drop.
    for (size_t i = 0; i < num_sources; ++i) {
      if (i == j) continue;
      bound = std::min(bound, flow(i, sources_[j]));
    }
    const double tau_j = tau(sources_[j]);
    for (double a : attach_) {
      bound = std::min(bound, a * tau_j);
    }
    if (complete && num_sources == 1) {
      // The candidate alone scores its emission; extensions add sources
      // whose flows are bounded by the best attachment over any keyword.
      double any_attach = 0.0;
      for (size_t k = 0; k < nodes_->num_keywords(); ++k) {
        any_attach = std::max(any_attach, AttachBound(k, r, memo));
      }
      bound = std::max(emissions_[j], any_attach * tau_j);
    }
    best_node_bound = std::max(best_node_bound, bound);
  }

  // Potential estimate: the best score an appended outside non-free node
  // could attain. It receives every in-tree source's messages, so its min
  // flow is bounded by the weakest source's strength at the root.
  double weakest_leave = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < num_sources; ++i) {
    weakest_leave = std::min(weakest_leave, leave_root(i));
  }
  const double pe = weakest_leave * OutsideBound(r, memo);

  return std::max(best_node_bound, pe);
}

}  // namespace cirank
