// The unified query-execution pipeline (DESIGN.md §10). Every search
// implementation — branch-and-bound, the naive algorithm, and the baseline
// rankers — implements one SearchExecutor interface (Prepare → Expand →
// Emit) and is driven by a per-query ExecutionContext that owns
//   (a) a monotonic Arena all candidate trees and scratch state are placed
//       into, freed wholesale when the query ends;
//   (b) a deadline + candidate-budget guard, so every executor returns its
//       best-so-far partial top-k (flagged `truncated` with a
//       DeadlineExceeded stop status) instead of running unbounded; and
//   (c) the query's SearchStats, its one account: executors count into
//       it while they run (popped, answers, the StageStats block of
//       candidates generated/pruned/merged and bound-calculator calls), the
//       budget reads its candidates_generated, and RunSearchPipeline
//       adds the executor name, truncation, stage wall times and arena
//       bytes before copying it out to the caller.
// CiRankEngine selects executors by name through ExecutorRegistry
// (SearchOverrides.executor), so one code path serves every algorithm.
// Executors only *enumerate*: answer scoring is delegated to the Ranker
// selected by SearchOptions::ranker (core/ranker.h), and ExecuteSearch
// applies the optional SearchOptions::order_by presentation reordering
// (core/order_by.h) to the emitted top-k.
#ifndef CIRANK_CORE_EXECUTION_H_
#define CIRANK_CORE_EXECUTION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/bounds.h"
#include "core/jtt.h"
#include "core/options.h"
#include "core/registry.h"
#include "core/scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/status.h"

namespace cirank {

// ---------------------------------------------------------------------------
// Search results (shared by every executor). The configuration structs —
// SearchOptions, SearchOverrides, BatchSearchOptions — live in
// core/options.h and are re-exported through this include.

struct RankedAnswer {
  Jtt tree;
  double score = 0.0;
};

// Per-stage observability block. Counters are exact totals; wall times are
// measured by the pipeline driver around each stage.
struct StageStats {
  // Admitted candidates, counted only by ExecutionContext::ChargeCandidates;
  // the candidate budget reads this count.
  int64_t candidates_generated = 0;
  int64_t candidates_pruned = 0;     // rejected: viability/diameter/bound
  int64_t candidates_merged = 0;     // admitted specifically via merge
  int64_t bound_calls = 0;           // Ranker::UpperBound calls
  size_t arena_bytes = 0;            // ExecutionContext arena bytes used
  double prepare_seconds = 0.0;
  double expand_seconds = 0.0;
  double emit_seconds = 0.0;
};

struct SearchStats {
  int64_t popped = 0;          // candidates dequeued and expanded
  int64_t answers_found = 0;   // distinct complete answers scored
  bool budget_exhausted = false;
  bool proven_optimal = false;
  // Largest upper bound ever discarded by the stopping rule (0 when nothing
  // was pruned). By Lemma 1 every answer derivable from a pruned candidate
  // scores at most this, so admissibility demands it stay strictly below
  // the k-th returned score; the property test asserts exactly that.
  double max_pruned_bound = 0.0;

  // --- Execution-pipeline fields (DESIGN.md §10) --------------------------
  // The deadline or candidate budget cut the search short; the answers are
  // the best found so far, not a proven top-k.
  bool truncated = false;
  // The result was served from a result cache (core/result_cache.h) on the
  // serving or batch path; besides the executor and ranker names every
  // field stays zero because no search ran.
  bool from_cache = false;
  // Name of the executor that served the query ("bnb", "naive", ...).
  std::string executor;
  // Name of the ranker that scored the answers ("rwmp", "rwmp_x_text", ...)
  // as reported by the executor.
  std::string ranker;
  // Sharded sub-searches only (DESIGN.md §16): the stopping rule fired
  // because of the *global* cross-shard threshold while the shard's own
  // local top-k would have kept expanding. The early-termination property
  // test keys off this flag: such a shard must never have discarded a bound
  // at or above the global k-th answer.
  bool shard_early_stopped = false;
  StageStats stages;
};

// ---------------------------------------------------------------------------
// Per-query execution context.

struct ExecutionLimits {
  // 0 = no deadline; one too far off for the clock to represent never
  // fires.
  double deadline_ms = 0.0;
  int64_t candidate_budget = 0;  // 0 = unlimited

  static ExecutionLimits FromOptions(const SearchOptions& options) {
    return ExecutionLimits{options.deadline_ms, options.candidate_budget};
  }
};

// Owns the arena, the deadline/budget guard, and the SearchStats for one
// query. Not thread-safe: a context is created, used and destroyed on the
// thread that runs the query (each shard sub-search builds its own).
class ExecutionContext {
 public:
  enum class StopReason { kNone, kDeadline, kCandidateBudget };

  explicit ExecutionContext(const ExecutionLimits& limits = {});

  Arena& arena() { return arena_; }

  // The one count of admitted candidates: adds `n` to
  // stats().stages.candidates_generated and checks the budget against it.
  // Returns false — and latches the stop flag — once the budget is
  // exhausted.
  bool ChargeCandidates(int64_t n = 1);

  // True when the executor must stop expanding and emit what it has. The
  // deadline clock is consulted at most once per kDeadlineCheckStride calls
  // so hot loops can call this per candidate.
  bool ShouldStop();

  // Stop state inspection (exact; no clock probes).
  bool stopped() const { return stop_reason_ != StopReason::kNone; }
  StopReason stop_reason() const { return stop_reason_; }
  // OK while running to completion; DeadlineExceeded / ResourceExhausted-
  // style status describing why the result is partial otherwise.
  Status stop_status() const;

  const ExecutionLimits& limits() const { return limits_; }

  // The query's counters: the executor writes them while it runs, and
  // RunSearchPipeline stamps the pipeline fields and copies them out.
  SearchStats& stats() { return stats_; }
  const SearchStats& stats() const { return stats_; }

  // Binds the observability sinks the pipeline driver records into; either
  // may be null (no recording — the default). Binding a trace collector
  // claims a fresh track so this query's spans land on their own row.
  // `trace_id` is the request correlation id (obs/request_context.h),
  // stamped on every span this query records; 0 = no request scope.
  void BindObservability(obs::MetricsRegistry* metrics,
                         obs::TraceCollector* trace, uint64_t trace_id = 0) {
    metrics_ = metrics;
    trace_ = trace;
    trace_id_ = trace_id;
    if (trace_ != nullptr) trace_track_ = trace_->NewTrack();
  }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::TraceCollector* trace() const { return trace_; }
  int64_t trace_track() const { return trace_track_; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  static constexpr int64_t kDeadlineCheckStride = 64;

  ExecutionLimits limits_;
  Arena arena_;
  std::chrono::steady_clock::time_point deadline_{};  // valid iff has_deadline_
  bool has_deadline_ = false;
  int64_t stop_probe_ = 0;
  StopReason stop_reason_ = StopReason::kNone;
  SearchStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceCollector* trace_ = nullptr;
  int64_t trace_track_ = 0;
  uint64_t trace_id_ = 0;
};

// ---------------------------------------------------------------------------
// The executor interface and pipeline driver.

// One query's execution, split into the three pipeline stages. Lifetime: an
// executor is created per query (via ExecutorRegistry) and driven once by
// RunSearchPipeline; the ExecutionContext outlives the executor, so arena-
// placed state may be referenced across stages.
class SearchExecutor {
 public:
  virtual ~SearchExecutor() = default;

  // Registry name of this executor ("bnb", "naive", ...).
  virtual std::string_view name() const = 0;

  // Builds per-query state: bound calculators, seeds, BFS tables. Errors
  // here (invalid query, bad options) fail the whole search.
  virtual Status Prepare(ExecutionContext& ctx) = 0;

  // The main loop. Implementations must poll ctx.ShouldStop() (and charge
  // admitted candidates via ctx.ChargeCandidates) so deadlines and budgets
  // truncate instead of running unbounded; returning with ctx.stopped() set
  // is not an error.
  virtual Status Expand(ExecutionContext& ctx) = 0;

  // Collects the (possibly partial) top-k. Must succeed even when Expand
  // was truncated.
  virtual Result<std::vector<RankedAnswer>> Emit(ExecutionContext& ctx) = 0;
};

// Everything a factory needs to build an executor for one query. The
// pointees must outlive the executor.
struct ExecutorEnv {
  const TreeScorer* scorer = nullptr;
  const Query* query = nullptr;
  SearchOptions options;
  // Observability sinks bound into the ExecutionContext by ExecuteSearch;
  // null disables recording. The pipeline driver is the single
  // instrumentation point, so every registered executor — core and
  // baseline — reports the same metric families and span shapes.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* trace = nullptr;
  // Request correlation id threaded down from the serving layer
  // (obs/request_context.h); 0 when the query has no request scope.
  uint64_t trace_id = 0;
};

// The argument checks every executor factory shares: a scorer and a
// non-empty query of at most Query::kMaxKeywords keywords, and k > 0.
[[nodiscard]] Status ValidateExecutorEnv(const ExecutorEnv& env);

// Name → factory map (core/registry.h). The global instance, used by
// CiRankEngine, comes pre-loaded with the core executors ("bnb" and
// "naive"); baselines register via RegisterBaselineExecutors()
// (baselines/baseline_executors.h) to keep the core library free of a
// dependency cycle.
using ExecutorRegistry = FactoryRegistry<SearchExecutor, ExecutorEnv>;
template <>
ExecutorRegistry& ExecutorRegistry::Global();
using ExecutorFactory = ExecutorRegistry::Factory;

// Drives one executor through Prepare → Expand → Emit, stamping the
// executor name, stage wall times, arena bytes and truncation into
// ctx.stats() and copying it to `stats` (when non-null) on success. A
// deadline/budget stop is surfaced as a *successful* result with
// stats->truncated set — callers needing the distinction inspect stats;
// the stop reason itself is ctx.stop_status().
[[nodiscard]] Result<std::vector<RankedAnswer>> RunSearchPipeline(
    SearchExecutor& executor, ExecutionContext& ctx, SearchStats* stats);

// Convenience wrapper used by the engine and tests: looks up
// `env.options.executor` in the global registry, builds the context from
// the options' limits, and runs the pipeline.
[[nodiscard]] Result<std::vector<RankedAnswer>> ExecuteSearch(
    const ExecutorEnv& env, SearchStats* stats = nullptr);

}  // namespace cirank

#endif  // CIRANK_CORE_EXECUTION_H_
