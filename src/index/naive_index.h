// The naive index of Sec. V-A: materialized all-pairs shortest distances
// DS(u, v). The paper also stores the best-case message transmission
// LS(u, v), but that depends on the RWMP model, which a feedback rebuild
// replaces; the search derives its transmission bound from DS under the
// model it runs on (UpperBoundCalculator, core/bounds.h). O(|V|^2) space,
// so it is gated to small graphs -- exactly the limitation that motivates
// the star index.
#ifndef CIRANK_INDEX_NAIVE_INDEX_H_
#define CIRANK_INDEX_NAIVE_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/bounds.h"
#include "graph/traversal.h"

namespace cirank {

struct NaiveIndexOptions {
  // Refuse to build beyond this many nodes (quadratic memory).
  size_t max_nodes = 6000;
  // Distances are recorded exactly up to this many hops; a pair further
  // apart gets the lower bound max_distance + 1. A horizon below the search
  // diameter limit D costs pruning power, not correctness. Must be < 255.
  uint32_t max_distance = 16;
};

class NaiveIndex : public PairwiseBoundProvider {
 public:
  // Runs one bounded BFS per node; reads the graph only.
  [[nodiscard]] static Result<NaiveIndex> Build(
      const Graph& graph, const NaiveIndexOptions& options = {});

  uint32_t DistanceLowerBound(NodeId from, NodeId to) const override;

  // Approximate memory footprint in bytes, for reporting.
  size_t MemoryBytes() const { return dist_.size() * sizeof(uint8_t); }

 private:
  NaiveIndex() = default;

  size_t n_ = 0;
  std::vector<uint8_t> dist_;  // row-major n*n; max_distance + 1 = beyond
};

}  // namespace cirank

#endif  // CIRANK_INDEX_NAIVE_INDEX_H_
