#include "core/engine.h"

#include <utility>

#include "util/annotations.h"
#include "util/check.h"
#include "obs/log.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cirank {

namespace {

constexpr ResultCache::MetricNames kQueryCacheMetrics = {
    "cirank_engine_cache_hits_total",
    "cirank_engine_cache_misses_total",
    "cirank_engine_feedback_invalidations_total",
    "cirank_cache_entries",
    /*lru_shards=*/"cirank_cache_shard"};

}  // namespace

// Mutable serving-time state, split from the immutable graph and index so
// the engine can stay const-correct: Search() is const yet touches the
// cache, and feedback and rebuilds accumulate across calls.
struct CiRankEngine::Serving {
  Serving(size_t num_nodes, const QueryCacheOptions& cache_options,
          obs::MetricsRegistry* metrics)
      : cache(cache_options, metrics, kQueryCacheMetrics),
        feedback(num_nodes) {
    obs.Bind(metrics);
  }

  // Pre-resolved instrument handles: the name→instrument map probe happens
  // once at Build, leaving only relaxed atomic ops on the serving path.
  // All pointers are null when the engine was built with
  // metrics_enabled = false.
  struct Obs {
    obs::Counter* queries = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* truncated = nullptr;
    obs::Histogram* query_seconds = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* task_wait = nullptr;

    void Bind(obs::MetricsRegistry* m) {
      if (m == nullptr) return;
      queries = &m->GetCounter("cirank_engine_queries_total",
                               "Top-level queries served (cache hits + fresh)");
      errors = &m->GetCounter("cirank_engine_query_errors_total",
                              "Queries that returned a non-OK status");
      truncated = &m->GetCounter(
          "cirank_engine_truncated_total",
          "Queries whose result was cut short by a deadline/budget guard");
      query_seconds = &m->GetHistogram(
          "cirank_engine_query_seconds",
          "End-to-end latency of fresh (uncached) queries, seconds");
      queue_depth = &m->GetGauge(
          "cirank_threadpool_queue_depth",
          "Peak task-queue depth observed by the last SearchBatch pool");
      task_wait = &m->GetHistogram(
          "cirank_threadpool_task_wait_seconds",
          "Submit-to-dequeue wait of thread-pool tasks, seconds");
    }
  };

  ResultCache cache;

  // feedback_mu is the engine level — the top — of the declared lock
  // hierarchy (engine → cache-shard → pool): cache-shard and pool locks
  // may be acquired while it is held (they never are today), never the
  // reverse. mutable: FeedbackClicks reads through a const engine.
  mutable Mutex feedback_mu;
  FeedbackModel feedback CIRANK_GUARDED_BY(feedback_mu);

  Obs obs;

  // The epoch is assigned under the lock, so it only grows.
  void Publish(std::shared_ptr<Snapshot> next) {
    MutexLock lk(snapshot_mu);
    next->epoch = snapshot != nullptr ? snapshot->epoch + 1 : 0;
    snapshot = std::move(next);
  }

  // Leaf: nothing is acquired under it. mutable: Pin() is const.
  mutable Mutex snapshot_mu;
  std::shared_ptr<const Snapshot> snapshot CIRANK_GUARDED_BY(snapshot_mu);
};

CiRankEngine::CiRankEngine() = default;
CiRankEngine::CiRankEngine(CiRankEngine&&) noexcept = default;
CiRankEngine& CiRankEngine::operator=(CiRankEngine&&) noexcept = default;
CiRankEngine::~CiRankEngine() = default;

Result<CiRankEngine> CiRankEngine::Build(const Graph& graph,
                                         const CiRankOptions& options) {
  CIRANK_RETURN_IF_ERROR(options.rwmp.Validate());

  CiRankEngine engine;
  engine.graph_ = &graph;
  engine.options_ = options;
  engine.metrics_ =
      options.metrics_enabled
          ? (options.metrics != nullptr ? options.metrics
                                        : &obs::MetricsRegistry::Default())
          : nullptr;

  Timer total_timer;
  Timer stage_timer;
  engine.index_ = std::make_unique<InvertedIndex>(graph);
  const double index_seconds = stage_timer.ElapsedSeconds();

  stage_timer.Reset();
  CIRANK_ASSIGN_OR_RETURN(PageRankResult pr,
                          ComputePageRank(graph, options.pagerank));
  const double pagerank_seconds = stage_timer.ElapsedSeconds();
  CIRANK_ASSIGN_OR_RETURN(
      RwmpModel model,
      RwmpModel::Create(graph, std::move(pr.scores), options.rwmp));
  engine.serving_ = std::make_unique<Serving>(graph.num_nodes(), options.cache,
                                              engine.metrics_);
  engine.serving_->Publish(
      std::make_shared<Snapshot>(std::move(model), *engine.index_));

  if (engine.metrics_ != nullptr) {
    obs::MetricsRegistry& m = *engine.metrics_;
    m.GetGauge("cirank_build_index_seconds",
               "Wall time of the last inverted-index build")
        .Set(index_seconds);
    m.GetGauge("cirank_build_pagerank_seconds",
               "Wall time of the last PageRank computation")
        .Set(pagerank_seconds);
    m.GetGauge("cirank_build_total_seconds",
               "Wall time of the last full engine build (index + PageRank + "
               "RWMP model)")
        .Set(total_timer.ElapsedSeconds());
  }
  return engine;
}

SearchOptions CiRankEngine::EffectiveOptions(
    const SearchOverrides& overrides) const {
  return MergeOverrides(options_.search, overrides);
}

Result<std::vector<RankedAnswer>> CiRankEngine::Search(
    const Query& query, SearchStats* stats) const {
  return CachedSearch(query, options_.search, ResultCache::Path::kDirect,
                      stats);
}

Result<std::vector<RankedAnswer>> CiRankEngine::Search(
    const Query& query, const SearchOptions& options, SearchStats* stats,
    uint64_t trace_id) const {
  return Pin().Search(query, options, stats, trace_id);
}

CiRankEngine::PinnedModel CiRankEngine::Pin() const {
  MutexLock lk(serving_->snapshot_mu);
  return PinnedModel(this, serving_->snapshot);
}

Result<std::vector<RankedAnswer>> CiRankEngine::PinnedModel::Search(
    const Query& query, const SearchOptions& options, SearchStats* stats,
    uint64_t trace_id) const {
  const Serving::Obs& obs = engine_->serving_->obs;
  if (obs.queries != nullptr) obs.queries->Increment();
  return engine_->ExecuteUncached(*this, query, options, stats, trace_id);
}

Result<std::vector<RankedAnswer>> CiRankEngine::ExecuteUncached(
    const PinnedModel& pinned, const Query& query,
    const SearchOptions& options, SearchStats* stats, uint64_t trace_id) const {
  // Dispatch through the executor registry: options.executor picks the
  // SearchExecutor ("bnb" by default), and the execution pipeline applies
  // the deadline/budget guard and stage accounting uniformly.
  ExecutorEnv env{&pinned.snapshot_->scorer, &query, options, metrics_,
                  options_.trace, trace_id};
  // A local stats block keeps the truncation counter honest even when the
  // caller passed nullptr.
  SearchStats local;
  SearchStats* st = stats != nullptr ? stats : &local;
  Timer timer;
  auto result = ExecuteSearch(env, st);
  const double elapsed = timer.ElapsedSeconds();

  const Serving::Obs& obs = serving_->obs;
  if (obs.query_seconds != nullptr) obs.query_seconds->Observe(elapsed);
  if (!result.ok()) {
    if (obs.errors != nullptr) obs.errors->Increment();
  } else if (st->truncated && obs.truncated != nullptr) {
    obs.truncated->Increment();
  }
  return result;
}

Result<std::vector<RankedAnswer>> CiRankEngine::Search(
    const Query& query, const SearchOverrides& overrides,
    SearchStats* stats) const {
  return CachedSearch(query, EffectiveOptions(overrides),
                      ResultCache::Path::kDirect, stats);
}

Result<std::vector<RankedAnswer>> CiRankEngine::CachedSearch(
    const Query& query, const SearchOptions& options, ResultCache::Path path,
    SearchStats* stats) const {
  if (serving_->obs.queries != nullptr) serving_->obs.queries->Increment();
  const PinnedModel pinned = Pin();
  ResultCache::Probe probe =
      serving_->cache.Lookup(query, options, pinned.epoch(), path, stats);
  if (probe.hit != nullptr) return *probe.hit;
  CIRANK_ASSIGN_OR_RETURN(std::vector<RankedAnswer> answers,
                          ExecuteUncached(pinned, query, options, stats));
  serving_->cache.Store(std::move(probe), answers);
  return answers;
}

std::vector<Result<std::vector<RankedAnswer>>> CiRankEngine::SearchBatch(
    const std::vector<Query>& queries, const BatchSearchOptions& options,
    std::vector<SearchStats>* stats) const {
  const SearchOptions merged = EffectiveOptions(options.overrides);
  std::vector<Result<std::vector<RankedAnswer>>> results(
      queries.size(),
      Result<std::vector<RankedAnswer>>(
          Status::Internal("batch entry not filled")));
  if (stats != nullptr) stats->assign(queries.size(), SearchStats{});
  if (queries.empty()) return results;

  const uint64_t hits_before = serving_->cache.Stats().hits;
  Timer batch_timer;
  {
    ThreadPool pool(options.num_threads);
    if (serving_->obs.task_wait != nullptr) {
      obs::Histogram* task_wait = serving_->obs.task_wait;
      pool.SetTaskWaitObserver(
          [task_wait](double seconds) { task_wait->Observe(seconds); });
    }
    pool.ParallelFor(queries.size(), [&](size_t i) {
      results[i] = CachedSearch(queries[i], merged,
                                options.use_cache ? ResultCache::Path::kServing
                                                  : ResultCache::Path::kBypass,
                                stats != nullptr ? &(*stats)[i] : nullptr);
    });
    if (serving_->obs.queue_depth != nullptr) {
      serving_->obs.queue_depth->Set(
          static_cast<double>(pool.stats().peak_queue_depth));
    }
  }
  const uint64_t hits_after = serving_->cache.Stats().hits;

  if (metrics_ != nullptr) {
    size_t failed = 0;
    for (const auto& r : results) {
      if (!r.ok()) ++failed;
    }
    CIRANK_LOG(Info) << "SearchBatch: " << queries.size() << " queries, "
                     << (hits_after - hits_before)
                     << " cache hits, " << failed << " failed, "
                     << batch_timer.ElapsedSeconds() << " s wall ("
                     << options.num_threads << " threads)";
  }
  return results;
}

Status CiRankEngine::RecordFeedback(const std::vector<NodeId>& matched_nodes,
                                    const std::vector<NodeId>& connector_nodes,
                                    double weight) {
  {
    MutexLock lk(serving_->feedback_mu);
    CIRANK_RETURN_IF_ERROR(
        serving_->feedback.RecordAnswer(matched_nodes, connector_nodes,
                                        weight));
  }
  // Clicks shift what the engine *should* return (once rebuilt), so memoized
  // results are no longer trustworthy snapshots.
  serving_->cache.Invalidate();
  return Status::OK();
}

Status CiRankEngine::RecordClick(NodeId v, double weight) {
  {
    MutexLock lk(serving_->feedback_mu);
    CIRANK_RETURN_IF_ERROR(serving_->feedback.RecordClick(v, weight));
  }
  serving_->cache.Invalidate();
  return Status::OK();
}

double CiRankEngine::FeedbackClicks(NodeId v) const {
  MutexLock lk(serving_->feedback_mu);
  if (v >= serving_->feedback.num_nodes()) return 0.0;
  return serving_->feedback.clicks(v);
}

Status CiRankEngine::RebuildFromFeedback(const FeedbackOptions& options) {
  std::vector<double> teleport;
  {
    MutexLock lk(serving_->feedback_mu);
    CIRANK_ASSIGN_OR_RETURN(teleport,
                            serving_->feedback.TeleportVector(options));
  }
  PageRankOptions pr_options = options_.pagerank;
  pr_options.teleport_vector = std::move(teleport);
  Timer pagerank_timer;
  CIRANK_ASSIGN_OR_RETURN(PageRankResult pr,
                          ComputePageRank(*graph_, pr_options));
  if (metrics_ != nullptr) {
    metrics_
        ->GetGauge("cirank_build_pagerank_seconds",
                   "Wall time of the last PageRank computation")
        .Set(pagerank_timer.ElapsedSeconds());
  }
  CIRANK_ASSIGN_OR_RETURN(
      RwmpModel model,
      RwmpModel::Create(*graph_, std::move(pr.scores), options_.rwmp));
  serving_->Publish(std::make_shared<Snapshot>(std::move(model), *index_));
  serving_->cache.Invalidate();
  return Status::OK();
}

QueryCacheStats CiRankEngine::cache_stats() const {
  return serving_->cache.Stats();
}

}  // namespace cirank
