// Branch-and-bound top-k search (Algorithm 1 of Sec. IV-B). Candidate trees
// are expanded by tree growing and tree merging, prioritized by their upper
// bounds; the search stops once the best remaining upper bound cannot beat
// the current k-th answer (Theorem 1 guarantees optimality).
//
// The implementation is the "bnb" SearchExecutor of the unified execution
// pipeline (core/execution.h): candidates live in the per-query arena, the
// deadline/candidate-budget guard can truncate the search, and per-stage
// counters land in StageStats. BranchAndBoundSearch below is the classic
// one-call entry point, now a thin wrapper over that executor.
#ifndef CIRANK_CORE_BNB_SEARCH_H_
#define CIRANK_CORE_BNB_SEARCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bounds.h"
#include "core/candidate.h"
#include "core/execution.h"
#include "core/scorer.h"

namespace cirank {

// Factory for the "bnb" executor (registered in ExecutorRegistry::Global).
// Fails on empty queries, queries with more than Query::kMaxKeywords
// keywords, or non-positive k.
[[nodiscard]] Result<std::unique_ptr<SearchExecutor>> MakeBnbExecutor(
    const ExecutorEnv& env);

// Runs Algorithm 1. Returns answers sorted by descending score, ties broken
// by ascending canonical tree key. Candidates are pruned only when their
// upper bound is strictly below the current k-th score, which makes the
// result a canonical function of (scorer, query, options) — independent of
// expansion order — whenever the expansion budget is not hit: every answer
// tying with the k-th score is found, so the (score, canonical key) order
// is total over the candidates for the last slots. Fails on empty queries,
// queries with more than 31 keywords, or non-positive k.
//
// DEPRECATED for application code: call CiRankEngine::Search with
// SearchOptions/SearchOverrides (executor = "bnb") instead — the engine
// routes through ExecutorRegistry and adds caching, metrics, and tracing
// that this direct entry point bypasses. Kept for differential tests and
// library-internal use.
[[nodiscard]] Result<std::vector<RankedAnswer>> BranchAndBoundSearch(
    const TreeScorer& scorer, const Query& query, const SearchOptions& options,
    SearchStats* stats = nullptr);

}  // namespace cirank

#endif  // CIRANK_CORE_BNB_SEARCH_H_
