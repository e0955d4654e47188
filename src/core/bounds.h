// Upper bounds for branch-and-bound candidates (Sec. IV-B). The bound
// combines the paper's complete estimate (best achievable score once the
// missing keywords are supplied through the root) and potential estimate
// (best contribution of additional non-free nodes appended to a complete
// tree), constructed so that ub(C) >= score(T) for every answer tree T
// derivable from C (Lemma 1):
//   * growing a tree adds edges only at the current root, so split fractions
//     at non-root nodes are final and flows between existing nodes can only
//     shrink;
//   * a node's score is a min over message types, so adding sources can only
//     lower it;
//   * outside sources must route through the root, so their flows are
//     bounded by emission x transmission-bound x in-tree transmission.
#ifndef CIRANK_CORE_BOUNDS_H_
#define CIRANK_CORE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "core/candidate.h"
#include "core/node_map.h"
#include "core/scorer.h"
#include "graph/traversal.h"

namespace cirank {

// Pairwise pre-computed bounds (Sec. V). A provider answers one question,
// a lower bound on the hop distance DS between two nodes, which the graph
// alone determines. The paper's indexes also store the per-pair minimal
// loss LS, but that depends on the RWMP model and goes stale at every
// feedback rebuild; UpperBoundCalculator derives the transmission bound
// from DS under the model being searched instead. The default
// implementation knows nothing; the index module provides tighter bounds
// (naive and star indexes).
class PairwiseBoundProvider {
 public:
  virtual ~PairwiseBoundProvider() = default;

  // Lower bound on the hop distance from `from` to `to`; 0 when unknown and
  // kUnreachable when provably unreachable.
  virtual uint32_t DistanceLowerBound(NodeId from, NodeId to) const {
    (void)from;
    (void)to;
    return 0;
  }
};

// Computes ub(C) = max(ce(C), pe(C)) for candidates of one query. Holds
// per-query scratch buffers and a per-root memo; not thread-safe.
class UpperBoundCalculator {
 public:
  // `bounds` may be null (no index). `scorer` and `nodes` are kept by
  // reference and must outlive the calculator, so temporaries are
  // rejected. `max_diameter` is the answer-tree diameter limit D.
  UpperBoundCalculator(const TreeScorer& scorer, const QueryNodeTable& nodes,
                       uint32_t max_diameter,
                       const PairwiseBoundProvider* bounds);
  UpperBoundCalculator(TreeScorer&&, const QueryNodeTable&, uint32_t,
                       const PairwiseBoundProvider*) = delete;
  UpperBoundCalculator(const TreeScorer&, QueryNodeTable&&, uint32_t,
                       const PairwiseBoundProvider*) = delete;

  // Upper bound on the score of any answer tree derivable from `c`.
  // Returns 0 when some missing keyword provably cannot be supplied. The
  // in-tree flows are computed exactly as TreeScorer::Propagate computes
  // them on the candidate's Jtt (same operations in the same order), from
  // the weights the candidate carries.
  double UpperBound(const Candidate& c) const;

  // The index's bound on the max-product transmission from -> to as pruning
  // applies it: d_max^(DS - 1) under the scorer's model, DS being the
  // provider's distance lower bound (a path of L >= DS hops has L - 1
  // interior nodes, each keeping at most d_max). 0 beyond the diameter
  // limit; 1 without a provider.
  double IndexTransmissionBound(NodeId from, NodeId to) const;

  KeywordMask all_keywords_mask() const { return nodes_->all_keywords(); }

  // Number of UpperBound() evaluations so far (StageStats::bound_calls).
  int64_t calls() const { return calls_; }

 private:
  // Per-root values, which do not depend on the rest of the candidate:
  // [0] the max dampening over r's graph out-neighbors, [1] OutsideBound,
  // [2 + k] AttachBound for keyword k. kUnset until first computed. The
  // pointer stays valid until a new root is memoized.
  static constexpr double kUnset = -1.0;
  double* RootMemo(NodeId r) const;
  double NeighborDampening(NodeId r, double* memo) const;

  // Max over x in En(k) of emission(x) * (bound on transmission x -> r).
  double AttachBound(size_t keyword_idx, NodeId r, double* memo) const;

  // Max over x in En(Q) of (bound on transmission r -> x) * dampening(x).
  double OutsideBound(NodeId r, double* memo) const;

  // Post-dampening flow at every local node of emission units leaving
  // local node `source`: TreeScorer::Propagate over the local tree.
  void Propagate(uint32_t source, double emission, double* post) const;

  const TreeScorer* scorer_;
  const QueryNodeTable* nodes_;
  uint32_t max_diameter_;
  const PairwiseBoundProvider* bounds_;  // nullable
  double max_dampening_;                 // of the scorer's model

  mutable NodeMap<uint32_t> memo_index_;  // root -> offset into memo_
  mutable std::vector<double> memo_;
  mutable int64_t calls_ = 0;

  // The current candidate as a local tree over indices into its sorted
  // node array: adjacency in derivation-edge order with the directed
  // weight, summed out-weights and dampening per node.
  struct Arc {
    uint32_t to;
    double weight;
  };
  struct StackItem {
    uint32_t node;
    uint32_t from;
    double arrival;
  };
  mutable std::vector<uint32_t> arc_begin_;  // CSR offsets, n + 1
  mutable std::vector<uint32_t> arc_fill_;
  mutable std::vector<Arc> arcs_;
  mutable std::vector<double> out_weight_;
  mutable std::vector<double> damp_;
  mutable std::vector<uint32_t> sources_;  // local indices, ascending
  mutable std::vector<double> emissions_;
  mutable std::vector<double> flows_;  // sources_.size() + 1 rows of size n
  mutable std::vector<StackItem> stack_;
  mutable std::vector<double> attach_;
};

}  // namespace cirank

#endif  // CIRANK_CORE_BOUNDS_H_
