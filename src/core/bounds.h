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
#include <map>
#include <utility>
#include <vector>

#include "core/candidate.h"
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
// per-query caches; not thread-safe.
class UpperBoundCalculator {
 public:
  // `bounds` may be null (no index); all references must outlive the
  // calculator. `max_diameter` is the answer-tree diameter limit D.
  UpperBoundCalculator(const TreeScorer& scorer, const Query& query,
                       uint32_t max_diameter,
                       const PairwiseBoundProvider* bounds);

  // Upper bound on the score of any answer tree derivable from `c`.
  // Returns 0 when some missing keyword provably cannot be supplied.
  double UpperBound(const Candidate& c) const;

  // The index's bound on the max-product transmission from -> to as pruning
  // applies it: d_max^(DS - 1) under the scorer's model, DS being the
  // provider's distance lower bound (a path of L >= DS hops has L - 1
  // interior nodes, each keeping at most d_max). 0 beyond the diameter
  // limit; 1 without a provider.
  double IndexTransmissionBound(NodeId from, NodeId to) const;

  KeywordMask all_keywords_mask() const { return all_mask_; }

  // Number of UpperBound() evaluations so far (StageStats::bound_calls).
  int64_t calls() const { return calls_; }

 private:
  struct SourceInfo {
    NodeId node;
    double emission;
  };

  // Max over graph out-neighbors b of r of dampening(b); cached per root.
  double NeighborDampening(NodeId r) const;

  // Max over x in En(k) of emission(x) * (bound on transmission x -> r).
  double AttachBound(size_t keyword_idx, NodeId r) const;

  // Max over x in En(Q) of (bound on transmission r -> x) * dampening(x).
  double OutsideBound(NodeId r) const;

  const TreeScorer* scorer_;
  const Query* query_;
  uint32_t max_diameter_;
  const PairwiseBoundProvider* bounds_;  // nullable
  double max_dampening_;                 // of the scorer's model
  KeywordMask all_mask_ = 0;

  // En(k) with emissions, per keyword index.
  std::vector<std::vector<SourceInfo>> keyword_sources_;

  // Per-root values: they do not depend on the rest of the candidate.
  mutable std::map<NodeId, double> neighbor_damp_cache_;
  mutable std::map<std::pair<size_t, NodeId>, double> attach_cache_;
  mutable std::map<NodeId, double> outside_cache_;
  mutable int64_t calls_ = 0;
};

}  // namespace cirank

#endif  // CIRANK_CORE_BOUNDS_H_
