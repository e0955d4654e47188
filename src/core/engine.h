// CiRankEngine: the public entry point of the library. Owns the derived
// state for one data graph (inverted index, PageRank importance, RWMP
// model) and serves top-k keyword queries — single, batched across a
// thread pool, and memoized through a ResultCache (core/result_cache.h)
// that user feedback invalidates.
//
// Typical use:
//   Graph graph = ...;                       // build via GraphBuilder
//   auto engine = CiRankEngine::Builder(graph).Build();
//   auto answers = engine->Search(Query::MustParse("papakonstantinou ullman"));
//   auto batch = engine->SearchBatch(queries, {.num_threads = 8});
//
// Thread-safety: after Build, every method may be called concurrently from
// any number of threads, RebuildFromFeedback included: a search pins the
// immutable snapshot of the state feedback changes (RWMP model, scorer,
// epoch) and runs on it to the end, while a rebuild publishes the next one
// and cached results are keyed by epoch (DESIGN.md §9).
#ifndef CIRANK_CORE_ENGINE_H_
#define CIRANK_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bnb_search.h"
#include "core/feedback.h"
#include "core/naive_search.h"
#include "core/options.h"
#include "core/result_cache.h"
#include "core/rwmp.h"
#include "core/scorer.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rw/pagerank.h"
#include "text/inverted_index.h"

namespace cirank {

// SearchOptions, SearchOverrides (with its fluent WithK()/WithExecutor()/
// WithDeadlineMs() builder), QueryCacheOptions, and BatchSearchOptions all
// live in core/options.h and are re-exported through this include.

struct CiRankOptions {
  RwmpParams rwmp;          // alpha and g (Eq. 2)
  PageRankOptions pagerank;  // teleport constant etc. (Eq. 1)
  SearchOptions search;      // defaults for Search() calls
  QueryCacheOptions cache;   // query-result cache sizing

  // --- Observability (DESIGN.md §11) --------------------------------------
  // Metrics sink for the serving-path instrumentation (queries, cache
  // hits/misses, truncations, stage latencies, build times). nullptr
  // selects the process-wide obs::MetricsRegistry::Default(); set
  // `metrics_enabled = false` to turn recording off entirely — the
  // differential test proves that changes no search result byte-for-byte.
  obs::MetricsRegistry* metrics = nullptr;
  bool metrics_enabled = true;
  // Optional trace-span sink: when non-null every query records a parent
  // span plus one span per Prepare/Expand/Emit stage, exportable as Chrome
  // trace_event JSON (obs/trace.h). Null (the default) disables tracing.
  obs::TraceCollector* trace = nullptr;
};

class CiRankEngine {
  // The state feedback changes, immutable once published. Never copied: the
  // scorer points at the model.
  struct Snapshot {
    Snapshot(RwmpModel m, const InvertedIndex& index)
        : model(std::move(m)), scorer(model, index) {}
    Snapshot(const Snapshot&) = delete;
    const RwmpModel model;
    const TreeScorer scorer;
    uint64_t epoch = 0;  // assigned at publish time
  };

 public:
  class Builder;  // fluent construction surface; definition below

  // One published model snapshot, pinned: the model and scorer it searches
  // stay unchanged while the handle lives, whatever rebuilds publish. Cheap
  // to copy; must not outlive the engine. shard::ShardedEngine runs every
  // sub-search of a query on one, so a merged list never mixes two models.
  class PinnedModel {
   public:
    // Grows with every publish; result caches key entries by it.
    uint64_t epoch() const { return snapshot_->epoch; }

    // Top-k search on this snapshot with explicit per-call options
    // replacing every engine default (never cached: the caller owns the
    // exact configuration). `trace_id` optionally stamps the query's spans
    // with a request correlation id (DESIGN.md §14). Never affects ranking.
    [[nodiscard]] Result<std::vector<RankedAnswer>> Search(
        const Query& query, const SearchOptions& options,
        SearchStats* stats = nullptr, uint64_t trace_id = 0) const;

   private:
    friend class CiRankEngine;
    PinnedModel(const CiRankEngine* e, std::shared_ptr<const Snapshot> s)
        : engine_(e), snapshot_(std::move(s)) {}
    const CiRankEngine* engine_;
    std::shared_ptr<const Snapshot> snapshot_;
  };

  CiRankEngine(CiRankEngine&&) noexcept;
  CiRankEngine& operator=(CiRankEngine&&) noexcept;
  ~CiRankEngine();

  // Top-k search with the engine's default options. Served from the query
  // cache when possible (callers needing SearchStats bypass the cache, as
  // a memoized result has no stats to report).
  [[nodiscard]] Result<std::vector<RankedAnswer>> Search(const Query& query,
                                           SearchStats* stats = nullptr) const;

  // Pin().Search(...): explicit options on the current model snapshot.
  [[nodiscard]] Result<std::vector<RankedAnswer>> Search(const Query& query,
                                           const SearchOptions& options,
                                           SearchStats* stats = nullptr,
                                           uint64_t trace_id = 0) const;

  // Top-k search with per-call overrides merged over the engine defaults.
  [[nodiscard]] Result<std::vector<RankedAnswer>> Search(const Query& query,
                                           const SearchOverrides& overrides,
                                           SearchStats* stats = nullptr) const;

  // The engine's view of MergeOverrides (core/options.h): the overrides
  // applied over this engine's default SearchOptions. Exposed for callers
  // that want to inspect the effective configuration.
  [[nodiscard]] SearchOptions EffectiveOptions(
      const SearchOverrides& overrides) const;

  // Serves a batch of queries across `options.num_threads` pool workers,
  // consulting the query cache per query. Entry i of the returned vector
  // is query i's result; per-query failures (e.g. an empty query) do not
  // affect the other entries. When `stats` is non-null it is resized to
  // queries.size() and entry i receives query i's SearchStats; entries
  // served from the cache carry `from_cache = true` (a memoized result has
  // no fresh counters) instead of silently zeroed numbers.
  [[nodiscard]] std::vector<Result<std::vector<RankedAnswer>>> SearchBatch(
      const std::vector<Query>& queries,
      const BatchSearchOptions& options = {},
      std::vector<SearchStats>* stats = nullptr) const;

  // --- User feedback (Sec. VI-A) -------------------------------------
  // Records a clicked/selected answer into the engine's feedback model and
  // invalidates the query-result cache. Thread-safe; concurrent with
  // searches.
  [[nodiscard]] Status RecordFeedback(const std::vector<NodeId>& matched_nodes,
                        const std::vector<NodeId>& connector_nodes,
                        double weight = 1.0);
  [[nodiscard]] Status RecordClick(NodeId v, double weight = 1.0);

  // Recomputes PageRank with the feedback-personalized teleport vector and
  // publishes the new RWMP model and scorer, built on the side, as the next
  // snapshot. Safe under live traffic: searches in flight finish on the
  // snapshot they pinned, and once this returns no list cached from an
  // older epoch is served. Also flushes the query cache.
  [[nodiscard]] Status RebuildFromFeedback(const FeedbackOptions& options = {});

  // Accumulated click mass of `v` (thread-safe snapshot).
  double FeedbackClicks(NodeId v) const;

  QueryCacheStats cache_stats() const;

  // Pins the current snapshot: one shared_ptr copy under a leaf lock.
  PinnedModel Pin() const;

  // ScoreTree scores one externally assembled answer tree (e.g. for
  // re-ranking or the example programs); it, model() and scorer() read the
  // current snapshot. A returned reference stays valid until the next
  // rebuild publishes (the engine holds the current snapshot until then).
  TreeScore ScoreTree(const Jtt& tree, const Query& query) const {
    return Pin().snapshot_->scorer.Score(tree, query);
  }
  const RwmpModel& model() const { return Pin().snapshot_->model; }
  const TreeScorer& scorer() const { return Pin().snapshot_->scorer; }
  const Graph& graph() const { return *graph_; }
  const InvertedIndex& index() const { return *index_; }
  const CiRankOptions& options() const { return options_; }
  // The resolved metrics sink this engine records into; nullptr when the
  // engine was built with metrics_enabled = false.
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Serving;  // snapshot, cache + feedback state (engine.cc)

  CiRankEngine();

  // Builds the index, runs PageRank, and derives the RWMP model. `graph`
  // must outlive the engine. Reached only through Builder::Build().
  [[nodiscard]] static Result<CiRankEngine> Build(const Graph& graph,
                                                  const CiRankOptions& options);

  // Pin → lookup → ExecuteUncached → store over fully resolved options;
  // `path` selects the result-cache contract (core/result_cache.h).
  Result<std::vector<RankedAnswer>> CachedSearch(const Query& query,
                                                 const SearchOptions& options,
                                                 ResultCache::Path path,
                                                 SearchStats* stats) const;

  // The single fresh-execution path: dispatches through the executor
  // registry, wires the engine's metrics/trace sinks into the pipeline
  // (which counts truncations), and folds the latency and error counters.
  // Does NOT count cirank_engine_queries_total — the public entry points
  // own that.
  Result<std::vector<RankedAnswer>> ExecuteUncached(
      const PinnedModel& pinned, const Query& query,
      const SearchOptions& options, SearchStats* stats,
      uint64_t trace_id = 0) const;

  const Graph* graph_ = nullptr;
  CiRankOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;  // resolved; null = disabled
  // unique_ptr members keep internal cross-pointers stable under moves.
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<Serving> serving_;
};

// The one way to construct an engine (shard::EngineBuilder layers datasets,
// the star index, and sharding on top). Mirrors the SearchOverrides
// fluent-builder style from core/options.h: every setter returns *this,
// unset knobs keep the CiRankOptions defaults, and Build() funnels into the
// engine's private validated factory, which only this nested class can call.
//
//   auto engine = CiRankEngine::Builder(graph)
//                     .WithSearchDefaults(defaults)
//                     .WithCache({.capacity = 512})
//                     .Build();
class CiRankEngine::Builder {
 public:
  // `graph` must outlive the built engine.
  explicit Builder(const Graph& graph) : graph_(&graph) {}

  // Wholesale replacement of every knob (for callers that already hold a
  // CiRankOptions); the field setters below refine it.
  Builder& WithOptions(const CiRankOptions& options) {
    options_ = options;
    return *this;
  }
  // Default SearchOptions for every Search() call on the built engine.
  Builder& WithSearchDefaults(const SearchOptions& search) {
    options_.search = search;
    return *this;
  }
  Builder& WithCache(const QueryCacheOptions& cache) {
    options_.cache = cache;
    return *this;
  }
  // Pairwise bound provider wired into the default SearchOptions (the star
  // index); the provider must outlive the engine.
  Builder& WithBounds(const PairwiseBoundProvider* bounds) {
    options_.search.bounds = bounds;
    return *this;
  }
  Builder& WithMetrics(obs::MetricsRegistry* metrics) {
    options_.metrics = metrics;
    return *this;
  }
  Builder& WithMetricsEnabled(bool enabled) {
    options_.metrics_enabled = enabled;
    return *this;
  }
  Builder& WithTrace(obs::TraceCollector* trace) {
    options_.trace = trace;
    return *this;
  }

  const CiRankOptions& options() const { return options_; }

  [[nodiscard]] Result<CiRankEngine> Build() const {
    return CiRankEngine::Build(*graph_, options_);
  }

 private:
  const Graph* graph_;
  CiRankOptions options_;
};

}  // namespace cirank

#endif  // CIRANK_CORE_ENGINE_H_
