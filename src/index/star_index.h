// The star index of Sec. V-B. Only "star nodes" -- tuples of the star
// tables, whose removal disconnects the database -- are indexed pairwise;
// lookups involving non-star nodes are composed from the star neighbors of
// those nodes (Cases 2 and 3 of the paper). Because star tables form a
// vertex cover of the schema graph, every neighbor of a non-star node is a
// star node, which makes the composition exact up to the +-1 hop slack the
// paper describes. All estimates stay on the optimistic side (distances are
// lower bounds, transmissions upper bounds), so branch-and-bound pruning
// remains admissible at reduced pruning power -- the size/power trade-off
// discussed in the paper.
#ifndef CIRANK_INDEX_STAR_INDEX_H_
#define CIRANK_INDEX_STAR_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/rwmp.h"
#include "graph/traversal.h"

namespace cirank {

struct StarIndexOptions {
  // Distances larger than this are recorded as unreachable. Must be >= the
  // search diameter limit D and < 255.
  uint32_t max_distance = 12;
  // Refuse to build beyond this many star nodes (quadratic memory).
  size_t max_star_nodes = 20000;
  // When true, run an exact max-product Dijkstra per star node to store
  // per-pair transmission bounds for `model` (slow, small graphs only).
  // When false, the index stores distances only and TransmissionBound is
  // the trivial 1.0: the search derives the closed form d_max^(DS - 1)
  // from DistanceLowerBound itself, with d_max the largest dampening of
  // the model it is searching (UpperBoundCalculator, core/bounds.h), so the
  // bound stays admissible after a feedback rebuild.
  bool exact_transmission = false;
};

class StarIndex : public PairwiseBoundProvider {
 public:
  [[nodiscard]] static Result<StarIndex> Build(const Graph& graph, const RwmpModel& model,
                                 const StarIndexOptions& options = {});

  double TransmissionBound(NodeId from, NodeId to) const override;
  uint32_t DistanceLowerBound(NodeId from, NodeId to) const override;

  bool IsStarNode(NodeId v) const { return star_ordinal_[v] >= 0; }
  size_t num_star_nodes() const { return star_nodes_.size(); }
  const std::vector<RelationId>& star_tables() const { return star_tables_; }

  size_t MemoryBytes() const {
    return dist_.size() * sizeof(uint8_t) + trans_.size() * sizeof(float) +
           star_ordinal_.size() * sizeof(int32_t);
  }

 private:
  StarIndex() = default;

  // Star-to-star lookups (Case 1).
  uint32_t StarDistance(int32_t from_ord, int32_t to_ord) const;
  double StarTransmission(int32_t from_ord, int32_t to_ord) const;

  const Graph* graph_ = nullptr;
  std::vector<RelationId> star_tables_;
  std::vector<int32_t> star_ordinal_;  // -1 for non-star nodes
  std::vector<NodeId> star_nodes_;
  size_t s_ = 0;                  // number of star nodes
  std::vector<uint8_t> dist_;     // row-major s*s; 255 = unreachable/far
  std::vector<float> trans_;      // row-major s*s; empty unless exact mode
  std::vector<double> dampening_; // per-node copy; only kept in exact mode
};

}  // namespace cirank

#endif  // CIRANK_INDEX_STAR_INDEX_H_
