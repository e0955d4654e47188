// Baseline answer generators:
//  * NaiveSearch -- the paper's naive algorithm (Sec. IV-A): breadth-first
//    expansion from every non-free node to radius ceil(D/2), followed by
//    root-centric combination of shortest paths into answer trees.
//  * ExhaustiveSearch -- complete enumeration of all answer trees up to a
//    node-count limit. Exponential; used as ground truth in property tests
//    (Theorem 1: branch-and-bound must match it) and on micro graphs.
#ifndef CIRANK_CORE_NAIVE_SEARCH_H_
#define CIRANK_CORE_NAIVE_SEARCH_H_

#include <memory>
#include <string>

#include "core/bnb_search.h"
#include "core/execution.h"
#include "core/scorer.h"

namespace cirank {

struct EnumerateOptions {
  uint32_t max_diameter = 4;
  // Caps on combinatorial explosion: maximum keyword-source combinations
  // examined per root, and maximum shortest-path variants per source.
  int64_t max_combinations_per_root = 4096;
  int64_t max_paths_per_source = 16;
  // Stop after this many distinct answers (0 = unlimited).
  int64_t max_answers = 0;
};

// Scoring-free answer enumeration via the naive algorithm's BFS + path
// combination. Used both by NaiveSearch and as the *neutral* candidate pool
// generator for the effectiveness experiments (every ranking system scores
// the same pool, so no system's own search biases the comparison).
[[nodiscard]] Result<std::vector<Jtt>> EnumerateAnswers(const Graph& graph,
                                          const InvertedIndex& index,
                                          const Query& query,
                                          const EnumerateOptions& options);

struct NaiveSearchOptions {
  int k = 10;
  uint32_t max_diameter = 4;
  int64_t max_combinations_per_root = 4096;
  int64_t max_paths_per_source = 16;
};

// Factory for the "naive" executor (registered in ExecutorRegistry::Global):
// Prepare enumerates the answer pool, Expand scores it under the
// deadline/budget guard, Emit ranks. Enumeration caps take their defaults
// from NaiveSearchOptions; k and max_diameter come from
// ExecutorEnv::options. Fails on empty queries, queries with more than
// Query::kMaxKeywords keywords, or non-positive k.
[[nodiscard]] Result<std::unique_ptr<SearchExecutor>> MakeNaiveExecutor(
    const ExecutorEnv& env);

// The naive executor named after `ranker` and pinned to it: it scores the
// neutral pool with that registered ranker whatever SearchOptions::ranker
// says. The "spark" and "discover2" baseline executors are this executor.
[[nodiscard]] Result<std::unique_ptr<SearchExecutor>> MakePinnedRankerExecutor(
    const ExecutorEnv& env, const std::string& ranker);

// DEPRECATED for application code: prefer CiRankEngine::Search with
// SearchOverrides().WithExecutor("naive") — the ExecutorRegistry path adds
// the deadline/budget guard, caching, metrics, and tracing. Kept for the
// soundness tests and baseline benches that need the raw algorithm.
[[nodiscard]] Result<std::vector<RankedAnswer>> NaiveSearch(const TreeScorer& scorer,
                                              const Query& query,
                                              const NaiveSearchOptions& options,
                                              SearchStats* stats = nullptr);

struct ExhaustiveSearchOptions {
  int k = 10;
  uint32_t max_diameter = 4;
  // Hard limit on answer-tree size in nodes; the enumeration is exponential
  // in this limit.
  size_t max_nodes = 8;
};

[[nodiscard]] Result<std::vector<RankedAnswer>> ExhaustiveSearch(
    const TreeScorer& scorer, const Query& query,
    const ExhaustiveSearchOptions& options);

}  // namespace cirank

#endif  // CIRANK_CORE_NAIVE_SEARCH_H_
