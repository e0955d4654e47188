// Sharded scatter-gather serving over one CiRankEngine (DESIGN.md §16).
//
// A shard here is a *search scope*, not a physical subgraph: PageRank — and
// through it every RWMP score — is a global property of the whole graph, so
// per-shard engines over partitioned subgraphs would change scores and
// break the byte-identity gate. Instead ShardPlan assigns every node an
// owner shard (shard/partitioner.h) and gives each shard a scope ball: all
// nodes within undirected hop distance ≤ R of its owned nodes, where R is
// the engine's default answer-tree diameter limit D. Every answer tree of
// diameter ≤ D is "homed" at the shard owning its minimum node; the whole
// tree lies inside that shard's ball, so a branch-and-bound sub-search over
// each scope (core/shard_hooks.h) collectively enumerates every answer the
// single-graph search does — possibly with duplicates where balls overlap.
//
// The gather side merges the per-shard top-k lists through the same
// TopKAnswers accumulator the executors use (dedup by canonical key, order
// by score desc / canonical key asc, truncate to k), which makes the merged
// result byte-identical to the single-graph engine, tie-breaks included.
// While shards run, a shared GatherState (shard/gather.h) lets a shard stop
// early once its best remaining upper bound falls strictly below the global
// k-th published score — exactness argument in gather.h and DESIGN.md §16.
//
// Queries whose (overridden) max_diameter exceeds the built scope radius
// fall back to full scope on every shard: N× redundant work, still exact.
// Executors that ignore ShardHooks (naive, the baselines) get the
// same fallback behavior implicitly — each shard does full-graph work and
// the dedup merge keeps the result exact.
#ifndef CIRANK_SHARD_SHARDED_ENGINE_H_
#define CIRANK_SHARD_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/result_cache.h"
#include "obs/request_context.h"
#include "shard/partitioner.h"

namespace cirank {
namespace shard {

struct ShardPlanOptions {
  uint32_t num_shards = 1;
  // Partitioner name for MakePartitioner ("hash", "star").
  std::string partitioner = "hash";
  // Scope-ball radius; must be ≥ the largest answer-tree diameter queries
  // will use (ShardedEngine passes the engine's default max_diameter).
  uint32_t scope_radius = 4;
};

// Per-shard size accounting, surfaced through /debug/shardz.
struct ShardInfo {
  size_t owned_nodes = 0;  // nodes this shard homes answers for
  size_t scope_nodes = 0;  // nodes inside the scope ball
  size_t scope_edges = 0;  // directed edges with both endpoints in scope
};

// The immutable partition + scope masks for one graph.
class ShardPlan {
 public:
  [[nodiscard]] static Result<ShardPlan> Build(const Graph& graph,
                                               const ShardPlanOptions& options);

  uint32_t num_shards() const { return num_shards_; }
  const std::string& partitioner_name() const { return partitioner_name_; }
  uint32_t scope_radius() const { return scope_radius_; }

  // Owner shard of node v.
  uint32_t owner(NodeId v) const { return owner_[v]; }
  const std::vector<uint32_t>& owners() const { return owner_; }

  // The 0/1 scope mask of shard `s` (size num_nodes).
  const std::vector<uint8_t>& scope(uint32_t s) const { return scopes_[s]; }
  const ShardInfo& info(uint32_t s) const { return info_[s]; }

 private:
  ShardPlan() = default;

  uint32_t num_shards_ = 1;
  std::string partitioner_name_;
  uint32_t scope_radius_ = 0;
  std::vector<uint32_t> owner_;
  std::vector<std::vector<uint8_t>> scopes_;
  std::vector<ShardInfo> info_;
};

struct ShardedEngineOptions {
  uint32_t num_shards = 1;
  std::string partitioner = "hash";
  // Worker threads per query fanning the shards out; 0 = one per shard.
  // Clamped to [1, num_shards].
  int default_parallelism = 0;
  // Sizing of the sharded engine's own merged-result cache. The underlying
  // engine's cache is bypassed (per-shard sub-searches use explicit
  // options), so this is the cache `/search` uses in sharded and unsharded
  // serving alike.
  QueryCacheOptions cache;
};

// Aggregate of one sharded query's per-shard stats, alongside the merged
// SearchStats the Search calls fill.
struct ShardedSearchStats {
  std::vector<SearchStats> per_shard;  // size num_shards
  int early_stopped_shards = 0;        // stopped on the global threshold
};

// The sharded facade over one engine. Attach() builds the plan; Search
// mirrors CiRankEngine's signatures and ServingSearch is what cirankd
// serves `/search` through. Thread-safe, rebuilds included: each query pins
// one engine snapshot for its lookup and every sub-search, and merged lists
// are keyed by its epoch, so a rebuild through either object retires them.
class ShardedEngine {
 public:
  // `engine` must outlive the ShardedEngine. Non-const: feedback forwarding
  // mutates it.
  [[nodiscard]] static Result<ShardedEngine> Attach(
      CiRankEngine* engine, const ShardedEngineOptions& options = {});

  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ~ShardedEngine();

  // Scatter-gather top-k with the engine's default options; byte-identical
  // to engine->Search(query). Served from the merged-result cache when the
  // caller passes no stats sink (ResultCache::Path::kDirect).
  [[nodiscard]] Result<std::vector<RankedAnswer>> Search(
      const Query& query, SearchStats* stats = nullptr) const;

  // With per-call overrides merged over the engine defaults. A non-null
  // `shard_stats` bypasses the cache: per-shard counters need a fresh run.
  [[nodiscard]] Result<std::vector<RankedAnswer>> Search(
      const Query& query, const SearchOverrides& overrides,
      SearchStats* stats = nullptr, ShardedSearchStats* shard_stats = nullptr,
      int shard_parallelism = 0) const;

  // Serving-path entry point (cirankd): like Search but a stats-requesting
  // call may still be served from the merged-result cache (the hit fills
  // only the from_cache marker plus the executor and ranker names —
  // ResultCache::Path::kServing), and the request's trace id is threaded
  // into every per-shard sub-search so shard spans correlate in
  // /debug/requestz. It never affects ranking — results are byte-identical
  // with or without it. `shard_parallelism` > 0 overrides the configured
  // per-query fan-out width; it never affects results, only scheduling.
  [[nodiscard]] Result<std::vector<RankedAnswer>> ServingSearch(
      const Query& query, const SearchOverrides& overrides, SearchStats* stats,
      const obs::RequestContext* request = nullptr,
      int shard_parallelism = 0) const;

  // --- Feedback forwarding -----------------------------------------------
  // Same contracts as CiRankEngine; additionally flush this object's
  // merged-result cache.
  [[nodiscard]] Status RecordFeedback(const std::vector<NodeId>& matched_nodes,
                                      const std::vector<NodeId>& connector_nodes,
                                      double weight = 1.0);
  [[nodiscard]] Status RecordClick(NodeId v, double weight = 1.0);
  [[nodiscard]] Status RebuildFromFeedback(const FeedbackOptions& options = {});

  const CiRankEngine& engine() const;
  const ShardPlan& plan() const;
  const ShardedEngineOptions& options() const;
  uint32_t num_shards() const;
  // Merged-result cache counters (this object's cache, not the engine's).
  QueryCacheStats cache_stats() const;

 private:
  struct Impl;
  ShardedEngine();

  // Pin → lookup → ScatterGather → store (core/result_cache.h).
  Result<std::vector<RankedAnswer>> CachedScatterGather(
      const Query& query, const SearchOptions& merged, ResultCache::Path path,
      SearchStats* stats, ShardedSearchStats* shard_stats,
      int shard_parallelism, uint64_t trace_id) const;

  // Every sub-search, the one-shard passthrough included, runs on `pinned`.
  Result<std::vector<RankedAnswer>> ScatterGather(
      const CiRankEngine::PinnedModel& pinned, const Query& query,
      const SearchOptions& merged, SearchStats* stats,
      ShardedSearchStats* shard_stats, int shard_parallelism,
      uint64_t trace_id) const;

  std::unique_ptr<Impl> impl_;
};

}  // namespace shard
}  // namespace cirank

#endif  // CIRANK_SHARD_SHARDED_ENGINE_H_
