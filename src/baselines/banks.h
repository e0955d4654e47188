// BANKS baseline (Bhalotia et al., ICDE'02), as characterized in
// Sec. II-B.2 of the CI-Rank paper: the answer-tree score combines
//   * a node score: the average (normalized) importance of the ROOT and the
//     LEAF nodes only -- intermediate free nodes are ignored, which is the
//     deficiency the Bloom/Wood/Mortensen example exposes; and
//   * an edge score: 1 / (1 + sum of edge costs), where an edge's cost is
//     the reciprocal of the mean of its two directed graph weights (strong
//     foreign-key connections are cheap).
// The combined score is their product. The module also implements BANKS'
// backward expanding search so the baseline can run standalone, and the
// answer assembly it shares with bidirectional search.
#ifndef CIRANK_BASELINES_BANKS_H_
#define CIRANK_BASELINES_BANKS_H_

#include <vector>

#include "core/bnb_search.h"
#include "core/jtt.h"
#include "core/ranker.h"
#include "text/inverted_index.h"

namespace cirank {

class BanksScorer {
 public:
  // `importance` is any positive per-node importance vector (we feed it the
  // same PageRank scores CI-Rank uses, so BANKS is not handicapped on
  // information -- only on how it uses it).
  BanksScorer(const Graph& graph, std::vector<double> importance);

  double Score(const Jtt& tree, const Query& query,
               const InvertedIndex& index) const;

  double NodeScore(const Jtt& tree, const Query& query,
                   const InvertedIndex& index) const;
  double EdgeScore(const Jtt& tree) const;

 private:
  const Graph* graph_;
  std::vector<double> importance_;  // normalized to max = 1
};

// Indexed [keyword][node]: the next hop on the node's path toward a node
// matching the keyword, the node itself when it matches, or kInvalidNode
// when the keyword's expansion never reached it. Following next hops from
// a reached node must end at a match.
using NextHopLabels = std::vector<std::vector<NodeId>>;

// The answer assembly BANKS and bidirectional search share; each keeps its
// own expansion, which leaves the next-hop labels. Every node that all
// keywords reached is a root. Its per-keyword paths are joined into one
// tree (a root whose paths collide yields none), oriented depth-first from
// the root and kept when it fits `max_diameter` and covers every keyword.
// Each kept tree is charged to a non-null `ctx`, whose stop ends the
// assembly early, and is scored by `ranker` into a TopKAnswers of size `k`
// (> 0), whose list is returned; each distinct tree counts into the
// context's answers_found.
[[nodiscard]] std::vector<RankedAnswer> AssembleAnswers(
    const InvertedIndex& index, const Ranker& ranker, const Query& query,
    const NextHopLabels& next_hop, int k, uint32_t max_diameter,
    ExecutionContext* ctx);

struct BanksSearchOptions {
  int k = 10;
  uint32_t max_diameter = 4;
  // Iteration budget for the backward expanding search.
  int64_t max_iterations = 200000;
};

// BANKS' backward expanding search: Dijkstra-style expansion from every
// keyword-matching node toward common roots; each discovered root yields an
// answer tree assembled from the per-keyword best paths (AssembleAnswers).
// The search only *enumerates* — assembled trees are scored by `ranker`
// (the "banks" ranker for the classic baseline, but any Ranker works). A
// non-null `ctx` applies the execution pipeline's deadline/budget guard,
// charging each assembled tree: when it fires the search stops and returns
// the answers assembled so far.
[[nodiscard]] Result<std::vector<RankedAnswer>> BanksSearch(
    const Graph& graph, const InvertedIndex& index, const Ranker& ranker,
    const Query& query, const BanksSearchOptions& options,
    ExecutionContext* ctx = nullptr);

}  // namespace cirank

#endif  // CIRANK_BASELINES_BANKS_H_
