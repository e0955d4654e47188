// Bidirectional expanding search (Kacholia et al., VLDB'05), the second
// graph-based baseline the CI-Rank paper critiques in Sec. I/II-B: like
// BANKS it scores only the root and the keyword-matching leaves, but its
// search spreads *activation* -- keyword clusters emit activation that
// decays as it spreads, and the frontier is prioritized by activation so
// hubs near important keyword matches are explored first. Nodes reached by
// all keyword clusters become answer roots; answers are assembled from the
// per-cluster best paths and scored with the BANKS scoring function (the
// two systems share the root+leaf scoring scheme in the paper's analysis).
#ifndef CIRANK_BASELINES_BIDIRECTIONAL_H_
#define CIRANK_BASELINES_BIDIRECTIONAL_H_

#include "baselines/banks.h"
#include "core/bnb_search.h"
#include "text/inverted_index.h"

namespace cirank {

struct BidirectionalSearchOptions {
  int k = 10;
  uint32_t max_diameter = 4;
  // Multiplicative activation decay per hop (mu in the original paper).
  double activation_decay = 0.5;
  // Frontier pops before the search gives up.
  int64_t max_iterations = 500000;
};

// The search only *enumerates* — trees assembled from the per-cluster next
// hops (AssembleAnswers, baselines/banks.h) are scored by `ranker` (the
// "banks" ranker for the classic baseline). A non-null `ctx` applies the
// execution pipeline's deadline/budget guard, charging each assembled tree:
// when it fires the search stops and returns the answers assembled so far.
[[nodiscard]] Result<std::vector<RankedAnswer>> BidirectionalSearch(
    const Graph& graph, const InvertedIndex& index, const Ranker& ranker,
    const Query& query, const BidirectionalSearchOptions& options = {},
    ExecutionContext* ctx = nullptr);

}  // namespace cirank

#endif  // CIRANK_BASELINES_BIDIRECTIONAL_H_
