#include "core/execution.h"

#include <algorithm>
#include <utility>

#include "core/bnb_search.h"
#include "core/naive_search.h"
#include "core/order_by.h"
#include "util/check.h"
#include "util/timer.h"

namespace cirank {

// ---------------------------------------------------------------------------
// ExecutionContext

ExecutionContext::ExecutionContext(const ExecutionLimits& limits)
    : limits_(limits) {
  if (limits_.deadline_ms > 0.0) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double, std::milli> wanted(limits_.deadline_ms);
    // Saturate: a deadline the clock cannot represent never fires. Half the
    // headroom keeps the double comparison's rounding from letting an
    // overflowing cast through.
    has_deadline_ = wanted < (Clock::time_point::max() - now) / 2.0;
    if (has_deadline_) {
      deadline_ = now + std::chrono::duration_cast<Clock::duration>(wanted);
    }
  }
}

bool ExecutionContext::ChargeCandidates(int64_t n) {
  int64_t& generated = stats_.stages.candidates_generated;
  generated += n;
  if (limits_.candidate_budget > 0 && generated > limits_.candidate_budget) {
    if (!stopped()) stop_reason_ = StopReason::kCandidateBudget;
    return false;
  }
  return !stopped();
}

bool ExecutionContext::ShouldStop() {
  if (stopped()) return true;
  if (!has_deadline_) return false;
  // Probe the clock only every kDeadlineCheckStride calls: hot loops call
  // this per candidate and a steady_clock read per call would dominate tiny
  // queries. The first call always probes, so short deadlines are seen.
  if (stop_probe_++ % kDeadlineCheckStride != 0) return false;
  if (std::chrono::steady_clock::now() >= deadline_) {
    stop_reason_ = StopReason::kDeadline;
    return true;
  }
  return false;
}

Status ExecutionContext::stop_status() const {
  switch (stop_reason()) {
    case StopReason::kNone:
      return Status::OK();
    case StopReason::kDeadline:
      return Status::DeadlineExceeded(
          "query deadline of " + std::to_string(limits_.deadline_ms) +
          " ms expired; returning best-so-far partial top-k");
    case StopReason::kCandidateBudget:
      return Status::DeadlineExceeded(
          "candidate budget of " + std::to_string(limits_.candidate_budget) +
          " exhausted; returning best-so-far partial top-k");
  }
  return Status::Internal("unreachable stop reason");
}

// ---------------------------------------------------------------------------
// Executor factories

Status ValidateExecutorEnv(const ExecutorEnv& env) {
  if (env.scorer == nullptr || env.query == nullptr) {
    return Status::InvalidArgument("executor env missing scorer or query");
  }
  if (env.query->empty()) return Status::InvalidArgument("empty query");
  if (env.query->size() > Query::kMaxKeywords) {
    return Status::InvalidArgument("at most 31 keywords are supported");
  }
  if (env.options.k <= 0) return Status::InvalidArgument("k must be positive");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ExecutorRegistry

template <>
ExecutorRegistry& ExecutorRegistry::Global() {
  // The core executors are registered on first use; baselines add theirs
  // via RegisterBaselineExecutors() (explicit, to avoid a core→baselines
  // dependency cycle and static-initialization-order traps).
  static ExecutorRegistry* registry = [] {
    auto* r = new ExecutorRegistry("executor");
    CIRANK_CHECK_OK(r->Register("bnb", MakeBnbExecutor));
    CIRANK_CHECK_OK(r->Register("naive", MakeNaiveExecutor));
    return r;
  }();
  return *registry;
}

// ---------------------------------------------------------------------------
// Pipeline driver

namespace {

// Folds one finished pipeline run into the bound registry. Instrument
// lookup is by name (a short mutex-protected map probe, once per query);
// the increments themselves are relaxed atomics.
void RecordPipelineMetrics(obs::MetricsRegistry* m, const SearchStats& st) {
  if (m == nullptr) return;
  const StageStats& sg = st.stages;
  static constexpr char kStageHelp[] =
      "Wall time per execution-pipeline stage, seconds";
  m->GetHistogram("cirank_stage_seconds{stage=\"prepare\"}", kStageHelp)
      .Observe(sg.prepare_seconds);
  m->GetHistogram("cirank_stage_seconds{stage=\"expand\"}", kStageHelp)
      .Observe(sg.expand_seconds);
  m->GetHistogram("cirank_stage_seconds{stage=\"emit\"}", kStageHelp)
      .Observe(sg.emit_seconds);
  m->GetCounter("cirank_candidates_generated_total",
                "Candidates admitted by grow/merge/seed across queries")
      .Increment(sg.candidates_generated);
  m->GetCounter("cirank_candidates_pruned_total",
                "Candidates rejected by viability/diameter/bound checks")
      .Increment(sg.candidates_pruned);
  m->GetCounter("cirank_bound_calls_total",
                "UpperBoundCalculator::UpperBound invocations")
      .Increment(sg.bound_calls);
  m->GetCounter("cirank_executor_queries_total{executor=\"" + st.executor +
                    "\"}",
                "Queries served, by executor")
      .Increment();
  if (st.truncated) {
    m->GetCounter("cirank_executor_truncated_total",
                  "Queries cut short by the deadline/candidate-budget guard")
        .Increment();
  }
}

}  // namespace

Result<std::vector<RankedAnswer>> RunSearchPipeline(SearchExecutor& executor,
                                                    ExecutionContext& ctx,
                                                    SearchStats* stats) {
  SearchStats& st = ctx.stats();
  st.executor = std::string(executor.name());

  obs::TraceSpan query_span;
  if (ctx.trace() != nullptr) {
    query_span = obs::TraceSpan(ctx.trace(), "query:" + st.executor, "query",
                                ctx.trace_track(), ctx.trace_id());
  }
  auto stage_span = [&ctx](const char* name) {
    return ctx.trace() != nullptr
               ? obs::TraceSpan(ctx.trace(), name, "stage", ctx.trace_track(),
                                ctx.trace_id())
               : obs::TraceSpan();
  };

  Timer timer;
  {
    obs::TraceSpan span = stage_span("prepare");
    CIRANK_RETURN_IF_ERROR(executor.Prepare(ctx));
  }
  st.stages.prepare_seconds = timer.ElapsedSeconds();

  timer.Reset();
  Status expand_status;
  {
    obs::TraceSpan span = stage_span("expand");
    expand_status = executor.Expand(ctx);
  }
  st.stages.expand_seconds = timer.ElapsedSeconds();
  // A deadline/budget stop is a truncation, not a failure: Emit still runs
  // and the partial top-k is returned. Any other error is fatal.
  if (!expand_status.ok() && !expand_status.IsDeadlineExceeded()) {
    return expand_status;
  }

  timer.Reset();
  Result<std::vector<RankedAnswer>> emitted = [&] {
    obs::TraceSpan span = stage_span("emit");
    return executor.Emit(ctx);
  }();
  CIRANK_ASSIGN_OR_RETURN(std::vector<RankedAnswer> answers,
                          std::move(emitted));
  st.stages.emit_seconds = timer.ElapsedSeconds();

  st.stages.arena_bytes = ctx.arena().bytes_used();
  st.truncated = ctx.stopped();
  if (st.truncated) st.proven_optimal = false;
  RecordPipelineMetrics(ctx.metrics(), st);
  if (stats != nullptr) *stats = st;
  return answers;
}

Result<std::vector<RankedAnswer>> ExecuteSearch(const ExecutorEnv& env,
                                                SearchStats* stats) {
  // Parse order_by up front so a bad spec fails the query before any search
  // work runs (and before the serving layer caches anything).
  CIRANK_ASSIGN_OR_RETURN(std::vector<OrderKey> order_keys,
                          ParseOrderBy(env.options.order_by));
  CIRANK_ASSIGN_OR_RETURN(
      std::unique_ptr<SearchExecutor> executor,
      ExecutorRegistry::Global().Create(env.options.executor, env));
  ExecutionContext ctx(ExecutionLimits::FromOptions(env.options));
  ctx.BindObservability(env.metrics, env.trace, env.trace_id);
  CIRANK_ASSIGN_OR_RETURN(std::vector<RankedAnswer> answers,
                          RunSearchPipeline(*executor, ctx, stats));
  // Presentation pass: selection already happened under the ranker's score;
  // order_by only rearranges the k selected answers. Empty spec = answers
  // pass through byte-identical.
  if (!order_keys.empty() && env.scorer != nullptr) {
    ApplyOrderBy(order_keys, env.scorer->model().graph(), &answers);
  }
  return answers;
}

}  // namespace cirank
