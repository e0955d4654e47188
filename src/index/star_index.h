// The star index of Sec. V-B. Only "star nodes" -- tuples of the star
// tables, whose removal disconnects the database -- are indexed pairwise;
// lookups involving non-star nodes are composed from the star neighbors of
// those nodes (Cases 2 and 3 of the paper). Because star tables form a
// vertex cover of the schema graph, every neighbor of a non-star node is a
// star node, which makes the composition exact up to the +-1 hop slack the
// paper describes. The index stores distances only: the paper's per-pair
// loss LS depends on the RWMP model, which a feedback rebuild replaces, so
// the search derives its transmission bound d_max^(DS - 1) from these
// distances under the model it runs on (UpperBoundCalculator,
// core/bounds.h). Every estimate is a lower bound, so branch-and-bound
// pruning stays admissible at reduced pruning power -- the size/power
// trade-off discussed in the paper.
#ifndef CIRANK_INDEX_STAR_INDEX_H_
#define CIRANK_INDEX_STAR_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "core/rwmp.h"
#include "graph/traversal.h"

namespace cirank {

struct StarIndexOptions {
  // Distances are recorded exactly up to this many hops; a pair further
  // apart gets the lower bound max_distance + 1. A horizon below the search
  // diameter limit D costs pruning power, not correctness. Must be < 255.
  uint32_t max_distance = 12;
  // Refuse to build beyond this many star nodes (quadratic memory).
  size_t max_star_nodes = 20000;
};

class StarIndex : public PairwiseBoundProvider {
 public:
  // One bounded BFS per star node; reads the graph only.
  [[nodiscard]] static Result<StarIndex> Build(
      const Graph& graph, const StarIndexOptions& options = {});
  // Ignores `model` and forwards to the graph-only overload. Kept only for
  // perfbench/run_traced.cc, which cannot change outside a benchmark change;
  // the next benchmark change deletes it. Nothing else may call it.
  [[nodiscard]] static Result<StarIndex> Build(
      const Graph& graph, const RwmpModel& model,
      const StarIndexOptions& options = {});

  uint32_t DistanceLowerBound(NodeId from, NodeId to) const override;

  bool IsStarNode(NodeId v) const { return star_ordinal_[v] >= 0; }
  size_t num_star_nodes() const { return star_nodes_.size(); }
  const std::vector<RelationId>& star_tables() const { return star_tables_; }

  size_t MemoryBytes() const {
    return dist_.size() * sizeof(uint8_t) +
           star_ordinal_.size() * sizeof(int32_t);
  }

 private:
  StarIndex() = default;

  // Star-to-star lookup (Case 1).
  uint32_t StarDistance(int32_t from_ord, int32_t to_ord) const;

  const Graph* graph_ = nullptr;
  std::vector<RelationId> star_tables_;
  std::vector<int32_t> star_ordinal_;  // -1 for non-star nodes
  std::vector<NodeId> star_nodes_;
  size_t s_ = 0;                  // number of star nodes
  std::vector<uint8_t> dist_;  // row-major s*s; max_distance + 1 = beyond
};

}  // namespace cirank

#endif  // CIRANK_INDEX_STAR_INDEX_H_
