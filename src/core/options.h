// The one home of the public search-configuration surface (DESIGN.md §11):
//
//   SearchOptions      — the fully resolved per-query configuration every
//                        executor consumes.
//   SearchOverrides    — sparse per-call overrides merged over an engine's
//                        default SearchOptions by MergeOverrides(); only
//                        fields the caller explicitly set replace defaults.
//   QueryCacheOptions  — sizing of a ResultCache (the engine's query-result
//                        cache, the sharded facade's merged-result cache).
//   BatchSearchOptions — SearchBatch knobs; embeds a SearchOverrides so the
//                        batch path shares the single merge function
//                        instead of duplicating merge logic.
//
// SearchOverrides supports both plain field-initializer style
// (`SearchOverrides o; o.k = 5;`) and a fluent builder
// (`SearchOverrides().WithK(5).WithExecutor("naive")`); the two are
// interchangeable and the builder is pure sugar over the optional fields.
#ifndef CIRANK_CORE_OPTIONS_H_
#define CIRANK_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace cirank {

class PairwiseBoundProvider;  // core/bounds.h
class ShardHooks;             // core/shard_hooks.h

struct SearchOptions {
  // Number of answers to return.
  int k = 10;
  // Answer-tree diameter limit D (Sec. IV, "we put a limit D on the diameter
  // of answer trees").
  uint32_t max_diameter = 4;
  // Safety valve: maximum number of candidates dequeued before the search
  // gives up optimality and returns the best answers found. 0 = unlimited.
  int64_t max_expansions = 0;
  // Optional pairwise bound provider from the index module; null disables
  // index-assisted bounds.
  const PairwiseBoundProvider* bounds = nullptr;
  // Use the paper's literal merge rule ("the result covers more keywords
  // than either input"). Off by default: the strict rule can make some
  // valid answers unreachable; the default relies on candidate-viability
  // pruning instead (see candidate.h), which preserves Theorem 1.
  bool strict_merge_rule = false;

  // --- Execution-pipeline knobs (DESIGN.md §10) ---------------------------
  // Executor the engine routes the query through; must name an entry of
  // ExecutorRegistry ("bnb", "naive", or a registered baseline). Direct
  // calls to BranchAndBoundSearch etc. ignore this field.
  std::string executor = "bnb";
  // Wall-clock deadline for the whole query; 0 = none. On expiry the
  // executor stops expanding and emits the best-so-far partial top-k with
  // SearchStats::truncated set and stop_status() == DeadlineExceeded.
  double deadline_ms = 0.0;
  // Cap on candidates *generated* (admitted) across the query; 0 =
  // unlimited. Like the deadline, exhaustion truncates instead of failing.
  int64_t candidate_budget = 0;

  // --- Ranking knobs (DESIGN.md §15) --------------------------------------
  // Ranker the executors score answers with; must name an entry of
  // RankerRegistry ("rwmp", "rwmp_x_text", "spark", ...). The branch-and-
  // bound executors also prune on the ranker's UpperBound, so the default
  // "rwmp" keeps the pre-refactor Theorem-1 search byte-identical.
  std::string ranker = "rwmp";
  // Optional presentation reordering of the selected top-k: a comma-
  // separated "key [asc|desc]" list over root attributes (core/order_by.h),
  // e.g. "score desc, external_key asc". Empty = pipeline order (score
  // descending, canonical-key ascending). Applied by ExecuteSearch; direct
  // calls to BranchAndBoundSearch etc. ignore it.
  std::string order_by;
  // Mixing weights of the "rwmp_x_text" composite ranker:
  //   score = composite_rwmp_weight * rwmp + composite_text_weight * bm25.
  // Other rankers ignore them. Weights (1.0, 0.0) are bit-exactly the pure
  // "rwmp" ranker.
  double composite_rwmp_weight = 1.0;
  double composite_text_weight = 0.5;

  // --- Sharded serving (DESIGN.md §16) ------------------------------------
  // Scatter-gather hooks installed by shard::ShardedEngine for the per-shard
  // sub-searches: scope membership, answer publication, and the shared
  // global pruning threshold. Null (the default, and the only value external
  // callers should ever set) means unsharded — executors must behave
  // byte-identically to the pre-shard code path. Carried here rather than on
  // ExecutorEnv so it reaches executors through the one options-resolution
  // path, like `bounds` above. Not exposed on SearchOverrides: the hooks are
  // per-sub-search plumbing, not a caller-facing knob.
  const ShardHooks* shard_hooks = nullptr;
};

// Per-call overrides that are merged over the engine's default
// SearchOptions: only fields the caller explicitly sets replace the
// defaults. This is the explicit answer to the footgun where passing a
// default-constructed SearchOptions silently replaced every engine default
// (k back to 10, diameter back to 4, index bounds dropped).
struct SearchOverrides {
  std::optional<int> k;
  std::optional<uint32_t> max_diameter;
  std::optional<int64_t> max_expansions;
  std::optional<bool> strict_merge_rule;
  // Execution-pipeline knobs (core/execution.h): which registered
  // SearchExecutor serves the query ("bnb", "naive", or any name added via
  // ExecutorRegistry) and the per-query deadline / candidate-budget guard.
  std::optional<std::string> executor;
  std::optional<double> deadline_ms;
  std::optional<int64_t> candidate_budget;
  // Ranking knobs (core/ranker.h, core/order_by.h): which registered Ranker
  // scores answers, the optional multi-key presentation order, and the
  // composite ranker's mixing weights.
  std::optional<std::string> ranker;
  std::optional<std::string> order_by;
  std::optional<double> composite_rwmp_weight;
  std::optional<double> composite_text_weight;
  // Non-null replaces the engine default's bound provider.
  const PairwiseBoundProvider* bounds = nullptr;

  // --- Fluent builder -----------------------------------------------------
  // Each setter returns *this so calls chain:
  //   engine.Search(q, SearchOverrides().WithK(3).WithDeadlineMs(50));
  SearchOverrides& WithK(int value) {
    k = value;
    return *this;
  }
  SearchOverrides& WithMaxDiameter(uint32_t value) {
    max_diameter = value;
    return *this;
  }
  SearchOverrides& WithMaxExpansions(int64_t value) {
    max_expansions = value;
    return *this;
  }
  SearchOverrides& WithStrictMergeRule(bool value) {
    strict_merge_rule = value;
    return *this;
  }
  SearchOverrides& WithExecutor(std::string value) {
    executor = std::move(value);
    return *this;
  }
  SearchOverrides& WithDeadlineMs(double value) {
    deadline_ms = value;
    return *this;
  }
  SearchOverrides& WithCandidateBudget(int64_t value) {
    candidate_budget = value;
    return *this;
  }
  SearchOverrides& WithRanker(std::string value) {
    ranker = std::move(value);
    return *this;
  }
  SearchOverrides& WithOrderBy(std::string value) {
    order_by = std::move(value);
    return *this;
  }
  SearchOverrides& WithCompositeWeights(double rwmp_weight,
                                        double text_weight) {
    composite_rwmp_weight = rwmp_weight;
    composite_text_weight = text_weight;
    return *this;
  }
  SearchOverrides& WithBounds(const PairwiseBoundProvider* value) {
    bounds = value;
    return *this;
  }
};

// The single overrides-merge function. Every entry point that accepts a
// SearchOverrides — Search, SearchBatch, EffectiveOptions — resolves it
// through here, so the PR-2 footgun (an entry point silently substituting
// struct defaults for engine defaults) cannot reappear in one path only.
SearchOptions MergeOverrides(const SearchOptions& base,
                             const SearchOverrides& overrides);

struct QueryCacheOptions {
  // Total cached query results, spread over ResultCache::kLruShards LRU
  // shards (core/result_cache.h); 0 disables the cache.
  size_t capacity = 1024;
};

struct BatchSearchOptions {
  // Worker threads the batch is spread over (one query per task); values
  // < 1 are clamped to 1.
  int num_threads = 1;
  // Consult and fill the engine's query-result cache (no-op when the
  // engine was built with cache capacity 0).
  bool use_cache = true;
  // Merged over the engine's default SearchOptions for every query (via
  // MergeOverrides — the batch path owns no merge logic of its own).
  SearchOverrides overrides;
};

}  // namespace cirank

#endif  // CIRANK_CORE_OPTIONS_H_
