#include "shard/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "core/order_by.h"
#include "core/topk.h"
#include "shard/gather.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cirank {
namespace shard {

namespace {

constexpr ResultCache::MetricNames kMergedCacheMetrics = {
    "cirank_shard_cache_hits_total",
    "cirank_shard_cache_misses_total",
    "cirank_shard_cache_invalidations_total",
    "cirank_shard_cache_entries",
    /*lru_shards=*/nullptr};

}  // namespace

// ---------------------------------------------------------------------------
// ShardPlan

Result<ShardPlan> ShardPlan::Build(const Graph& graph,
                                   const ShardPlanOptions& options) {
  CIRANK_ASSIGN_OR_RETURN(std::unique_ptr<GraphPartitioner> partitioner,
                          MakePartitioner(options.partitioner));
  ShardPlan plan;
  plan.num_shards_ = options.num_shards;
  plan.partitioner_name_ = std::string(partitioner->name());
  plan.scope_radius_ = options.scope_radius;
  CIRANK_ASSIGN_OR_RETURN(plan.owner_,
                          partitioner->Partition(graph, options.num_shards));

  const size_t num_nodes = graph.num_nodes();
  const uint32_t n = options.num_shards;
  plan.scopes_.assign(n, {});
  plan.info_.assign(n, ShardInfo{});
  for (uint32_t s = 0; s < n; ++s) {
    std::vector<uint8_t>& scope = plan.scopes_[s];
    scope.assign(num_nodes, 0);
    ShardInfo& info = plan.info_[s];
    // Multi-source BFS ball: every node within undirected hop distance ≤ R
    // of a node this shard owns. An answer tree of diameter ≤ R homed at
    // its minimum node (owned here) lies entirely inside the ball, so the
    // scoped sub-search can enumerate it in full.
    std::vector<NodeId> frontier;
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (plan.owner_[v] == s) {
        scope[v] = 1;
        frontier.push_back(v);
        ++info.owned_nodes;
      }
    }
    for (uint32_t depth = 0; depth < options.scope_radius && !frontier.empty();
         ++depth) {
      std::vector<NodeId> next;
      for (NodeId u : frontier) {
        for (const Edge& e : graph.out_edges(u)) {
          if (scope[e.to] == 0) {
            scope[e.to] = 1;
            next.push_back(e.to);
          }
        }
        // in_edges entries hold the source node in `to` (graph.h); the
        // schema adds both directions, but union defensively like
        // CountConnectedComponents does.
        for (const Edge& e : graph.in_edges(u)) {
          if (scope[e.to] == 0) {
            scope[e.to] = 1;
            next.push_back(e.to);
          }
        }
      }
      frontier = std::move(next);
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      if (scope[v] == 0) continue;
      ++info.scope_nodes;
      for (const Edge& e : graph.out_edges(v)) {
        if (scope[e.to] != 0) ++info.scope_edges;
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// ShardedEngine

struct ShardedEngine::Impl {
  // Pre-resolved instrument handles, every family prefixed cirank_shard_
  // (the CI smoke greps the prefix). Null when metrics are disabled.
  struct Obs {
    obs::Counter* queries = nullptr;
    obs::Counter* fullscope_fallbacks = nullptr;
    obs::Histogram* query_seconds = nullptr;
    std::vector<obs::Counter*> searches;     // {shard="i"}
    std::vector<obs::Counter*> early_stops;  // {shard="i"}
  };

  Impl(CiRankEngine* e, ShardedEngineOptions o, ShardPlan p)
      : engine(e),
        options(std::move(o)),
        plan(std::move(p)),
        cache(options.cache, engine->metrics(), kMergedCacheMetrics) {}

  void BindObs(obs::MetricsRegistry* m) {
    if (m == nullptr) return;
    obs.queries = &m->GetCounter(
        "cirank_shard_queries_total",
        "Logical queries served by the sharded engine (hits + fresh)");
    obs.fullscope_fallbacks = &m->GetCounter(
        "cirank_shard_fullscope_fallback_total",
        "Queries whose diameter exceeded the scope radius, searched at full "
        "scope on every shard (exact, redundant)");
    obs.query_seconds = &m->GetHistogram(
        "cirank_shard_query_seconds",
        "End-to-end latency of fresh scatter-gather queries, seconds");
    m->GetGauge("cirank_shard_count", "Configured shard count")
        .Set(static_cast<double>(plan.num_shards()));
    for (uint32_t s = 0; s < plan.num_shards(); ++s) {
      const std::string label = "{shard=\"" + std::to_string(s) + "\"}";
      obs.searches.push_back(&m->GetCounter(
          "cirank_shard_searches_total" + label,
          "Per-shard sub-searches executed, by shard"));
      obs.early_stops.push_back(&m->GetCounter(
          "cirank_shard_early_stops_total" + label,
          "Sub-searches stopped early by the global cross-shard threshold, "
          "by shard"));
      m->GetGauge("cirank_shard_owned_nodes" + label,
                  "Nodes homed at this shard")
          .Set(static_cast<double>(plan.info(s).owned_nodes));
      m->GetGauge("cirank_shard_scope_nodes" + label,
                  "Nodes inside this shard's scope ball")
          .Set(static_cast<double>(plan.info(s).scope_nodes));
    }
  }

  CiRankEngine* engine;
  ShardedEngineOptions options;
  ShardPlan plan;
  ResultCache cache;
  Obs obs;
};

ShardedEngine::ShardedEngine() = default;
ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;
ShardedEngine::~ShardedEngine() = default;

Result<ShardedEngine> ShardedEngine::Attach(
    CiRankEngine* engine, const ShardedEngineOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("ShardedEngine::Attach: engine is null");
  }
  ShardPlanOptions plan_options;
  plan_options.num_shards = options.num_shards;
  plan_options.partitioner = options.partitioner;
  // The scope radius must cover the largest answer-tree diameter served;
  // queries overriding max_diameter above it fall back to full scope.
  plan_options.scope_radius = engine->options().search.max_diameter;
  CIRANK_ASSIGN_OR_RETURN(ShardPlan plan,
                          ShardPlan::Build(engine->graph(), plan_options));
  ShardedEngine sharded;
  sharded.impl_ = std::make_unique<Impl>(engine, options, std::move(plan));
  sharded.impl_->BindObs(engine->metrics());
  return sharded;
}

Result<std::vector<RankedAnswer>> ShardedEngine::Search(
    const Query& query, SearchStats* stats) const {
  return CachedScatterGather(query, impl_->engine->options().search,
                             ResultCache::Path::kDirect, stats,
                             /*shard_stats=*/nullptr, /*shard_parallelism=*/0,
                             /*trace_id=*/0);
}

Result<std::vector<RankedAnswer>> ShardedEngine::Search(
    const Query& query, const SearchOverrides& overrides, SearchStats* stats,
    ShardedSearchStats* shard_stats, int shard_parallelism) const {
  return CachedScatterGather(
      query, impl_->engine->EffectiveOptions(overrides),
      shard_stats != nullptr ? ResultCache::Path::kBypass
                             : ResultCache::Path::kDirect,
      stats, shard_stats, shard_parallelism, /*trace_id=*/0);
}

Result<std::vector<RankedAnswer>> ShardedEngine::ServingSearch(
    const Query& query, const SearchOverrides& overrides, SearchStats* stats,
    const obs::RequestContext* request, int shard_parallelism) const {
  return CachedScatterGather(query, impl_->engine->EffectiveOptions(overrides),
                             ResultCache::Path::kServing, stats,
                             /*shard_stats=*/nullptr, shard_parallelism,
                             request != nullptr ? request->trace_id : 0);
}

Result<std::vector<RankedAnswer>> ShardedEngine::CachedScatterGather(
    const Query& query, const SearchOptions& merged, ResultCache::Path path,
    SearchStats* stats, ShardedSearchStats* shard_stats, int shard_parallelism,
    uint64_t trace_id) const {
  Impl& im = *impl_;
  if (im.obs.queries != nullptr) im.obs.queries->Increment();
  const CiRankEngine::PinnedModel pinned = im.engine->Pin();
  ResultCache::Probe probe =
      im.cache.Lookup(query, merged, pinned.epoch(), path, stats);
  if (probe.hit != nullptr) return *probe.hit;
  Timer timer;
  auto result = ScatterGather(pinned, query, merged, stats, shard_stats,
                              shard_parallelism, trace_id);
  if (im.obs.query_seconds != nullptr) {
    im.obs.query_seconds->Observe(timer.ElapsedSeconds());
  }
  if (result.ok()) im.cache.Store(std::move(probe), *result);
  return result;
}

Result<std::vector<RankedAnswer>> ShardedEngine::ScatterGather(
    const CiRankEngine::PinnedModel& pinned, const Query& query,
    const SearchOptions& merged, SearchStats* stats,
    ShardedSearchStats* shard_stats, int shard_parallelism,
    uint64_t trace_id) const {
  Impl& im = *impl_;
  const uint32_t n = im.plan.num_shards();

  // One shard is literally the single-engine path: no hooks, no merge.
  // Every hook-side branch is `shard_ != nullptr`-guarded, so this arm and
  // the general arm below agree byte-for-byte — the differential test pins
  // both against the raw engine.
  if (n == 1) {
    SearchStats local;
    SearchStats* st = stats != nullptr ? stats : &local;
    auto result = pinned.Search(query, merged, st, trace_id);
    if (im.obs.searches.size() == 1 && im.obs.searches[0] != nullptr) {
      im.obs.searches[0]->Increment();
    }
    if (shard_stats != nullptr) {
      shard_stats->per_shard.assign(1, *st);
      shard_stats->early_stopped_shards = 0;
    }
    return result;
  }

  // Fail fast on a bad order_by before spawning any shard work; the spec is
  // stripped from the per-shard options (selection is presentation-blind)
  // and applied once to the merged top-k, exactly like ExecuteSearch.
  CIRANK_ASSIGN_OR_RETURN(std::vector<OrderKey> order_keys,
                          ParseOrderBy(merged.order_by));

  // Oversized query diameter: the scope balls were built for the engine's
  // default D, so scoped search would miss trees spanning farther. Fall
  // back to full scope on every shard — N× redundant enumeration, still
  // exact through the dedup merge.
  const bool full_scope = merged.max_diameter > im.plan.scope_radius();
  if (full_scope && im.obs.fullscope_fallbacks != nullptr) {
    im.obs.fullscope_fallbacks->Increment();
  }

  GatherState gather(static_cast<size_t>(std::max(1, merged.k)));
  std::vector<ShardScopeHooks> hooks;
  hooks.reserve(n);
  std::vector<SearchOptions> shard_options(n, merged);
  for (uint32_t s = 0; s < n; ++s) {
    hooks.emplace_back(full_scope ? nullptr : &im.plan.scope(s), &gather);
    shard_options[s].order_by.clear();
    shard_options[s].shard_hooks = &hooks[s];
  }

  std::vector<Result<std::vector<RankedAnswer>>> results(
      n, Result<std::vector<RankedAnswer>>(
             Status::Internal("shard result not filled")));
  std::vector<SearchStats> per_shard(n);
  int width = shard_parallelism > 0 ? shard_parallelism
              : im.options.default_parallelism > 0
                  ? im.options.default_parallelism
                  : static_cast<int>(n);
  width = std::clamp(width, 1, static_cast<int>(n));
  {
    // Per-query pool, the SearchBatch idiom: shards run concurrently and
    // share one GatherState, so a late shard starts with the thresholds the
    // early shards already established.
    ThreadPool pool(width);
    pool.ParallelFor(n, [&](size_t s) {
      results[s] =
          pinned.Search(query, shard_options[s], &per_shard[s], trace_id);
    });
  }

  int early_stopped = 0;
  for (uint32_t s = 0; s < n; ++s) {
    if (!results[s].ok()) return results[s].status();
    if (s < im.obs.searches.size() && im.obs.searches[s] != nullptr) {
      im.obs.searches[s]->Increment();
    }
    if (per_shard[s].shard_early_stopped) {
      ++early_stopped;
      if (s < im.obs.early_stops.size() && im.obs.early_stops[s] != nullptr) {
        im.obs.early_stops[s]->Increment();
      }
    }
  }

  // Gather: the same accumulator the executors use — dedup by canonical
  // key, order by (score desc, canonical key asc), truncate to k — so the
  // merged list is byte-identical to the single-graph result, tie-breaks
  // included. Shard order is irrelevant: duplicates carry identical trees
  // and bit-identical scores (one pinned scorer/model).
  TopKAnswers merged_topk(static_cast<size_t>(std::max(1, merged.k)));
  for (uint32_t s = 0; s < n; ++s) {
    for (RankedAnswer& a : results[s].value()) {
      merged_topk.Offer(std::move(a.tree), a.score);
    }
  }
  std::vector<RankedAnswer> answers = merged_topk.Take();
  if (!order_keys.empty()) {
    ApplyOrderBy(order_keys, im.engine->graph(), &answers);
  }

  if (stats != nullptr) {
    *stats = SearchStats{};
    for (const SearchStats& st : per_shard) {
      stats->popped += st.popped;
      stats->generated += st.generated;
      stats->answers_found += st.answers_found;
      stats->budget_exhausted |= st.budget_exhausted;
      stats->truncated |= st.truncated;
      stats->max_pruned_bound =
          std::max(stats->max_pruned_bound, st.max_pruned_bound);
      stats->shard_early_stopped |= st.shard_early_stopped;
      stats->stages.candidates_generated += st.stages.candidates_generated;
      stats->stages.candidates_pruned += st.stages.candidates_pruned;
      stats->stages.candidates_merged += st.stages.candidates_merged;
      stats->stages.bound_calls += st.stages.bound_calls;
      stats->stages.arena_bytes += st.stages.arena_bytes;
      // Shards run concurrently: the slowest stage bounds the wall clock.
      stats->stages.prepare_seconds =
          std::max(stats->stages.prepare_seconds, st.stages.prepare_seconds);
      stats->stages.expand_seconds =
          std::max(stats->stages.expand_seconds, st.stages.expand_seconds);
      stats->stages.emit_seconds =
          std::max(stats->stages.emit_seconds, st.stages.emit_seconds);
    }
    stats->executor = per_shard.empty() ? merged.executor
                                        : per_shard.front().executor;
    stats->ranker =
        per_shard.empty() ? merged.ranker : per_shard.front().ranker;
    // The merged result is proven optimal only when every shard either ran
    // dry or stopped on a proven threshold.
    stats->proven_optimal = true;
    for (const SearchStats& st : per_shard) {
      stats->proven_optimal &= st.proven_optimal;
    }
    if (stats->truncated) stats->proven_optimal = false;
  }
  if (shard_stats != nullptr) {
    shard_stats->per_shard = std::move(per_shard);
    shard_stats->early_stopped_shards = early_stopped;
  }
  return answers;
}

Status ShardedEngine::RecordFeedback(
    const std::vector<NodeId>& matched_nodes,
    const std::vector<NodeId>& connector_nodes, double weight) {
  CIRANK_RETURN_IF_ERROR(
      impl_->engine->RecordFeedback(matched_nodes, connector_nodes, weight));
  impl_->cache.Invalidate();
  return Status::OK();
}

Status ShardedEngine::RecordClick(NodeId v, double weight) {
  CIRANK_RETURN_IF_ERROR(impl_->engine->RecordClick(v, weight));
  impl_->cache.Invalidate();
  return Status::OK();
}

Status ShardedEngine::RebuildFromFeedback(const FeedbackOptions& options) {
  CIRANK_RETURN_IF_ERROR(impl_->engine->RebuildFromFeedback(options));
  impl_->cache.Invalidate();
  return Status::OK();
}

const CiRankEngine& ShardedEngine::engine() const { return *impl_->engine; }
const ShardPlan& ShardedEngine::plan() const { return impl_->plan; }
const ShardedEngineOptions& ShardedEngine::options() const {
  return impl_->options;
}
uint32_t ShardedEngine::num_shards() const { return impl_->plan.num_shards(); }

QueryCacheStats ShardedEngine::cache_stats() const {
  return impl_->cache.Stats();
}

}  // namespace shard
}  // namespace cirank
