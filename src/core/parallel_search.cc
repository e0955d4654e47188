#include "core/parallel_search.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/ranker.h"
#include "core/topk.h"
#include "util/annotations.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace cirank {

namespace {

// Everything the workers share. Container *structure* (indexing, push_back,
// queue ops, dedup and registry updates) and arena allocation are only
// touched under `mu` — the CIRANK_GUARDED_BY annotations make the `tsa`
// preset prove it. A candidate is placed into the arena and entered into
// the dedup set under the first lock of its admission, so any later
// duplicate compares against its arrays; its bound and chain bound are
// written under the second lock, which publishes it. Published entries are
// immutable, so workers read them through stable arena pointers outside
// the lock (the AdmittedCandidate* values escape the capability on
// purpose; the *vector* of slots does not).
struct SharedState {
  explicit SharedState(size_t k) : answers(k) {}

  // mutable: Emit/FillStats read the counters through a const executor
  // after the pool has joined, and still take the lock to satisfy the
  // capability model (uncontended by then).
  mutable Mutex mu;
  CondVar cv;
  std::priority_queue<std::pair<double, size_t>> queue
      CIRANK_GUARDED_BY(mu);  // (ub, slot idx)
  std::vector<AdmittedCandidate*> slots CIRANK_GUARDED_BY(mu);
  RootRegistry by_root CIRANK_GUARDED_BY(mu);
  CandidateSet seen CIRANK_GUARDED_BY(mu);
  TopKAnswers answers CIRANK_GUARDED_BY(mu);

  // Workers currently expanding a popped candidate.
  size_t in_flight CIRANK_GUARDED_BY(mu) = 0;
  bool budget_exhausted CIRANK_GUARDED_BY(mu) = false;
  int64_t popped CIRANK_GUARDED_BY(mu) = 0;
  int64_t generated CIRANK_GUARDED_BY(mu) = 0;
  int64_t merged CIRANK_GUARDED_BY(mu) = 0;
  int64_t answers_found CIRANK_GUARDED_BY(mu) = 0;
  // Theorem-1 audit value: the largest bound ever discarded by the
  // frontier-wide prune (SearchStats::max_pruned_bound).
  double max_pruned_bound CIRANK_GUARDED_BY(mu) = 0.0;
  // Viability/diameter rejections happen outside the lock, frontier prunes
  // inside it; one atomic serves both without widening the critical section.
  std::atomic<int64_t> pruned{0};
};

// Per-thread search context: owns a private Ranker (the rwmp ranker's
// bound-state memo is not thread-safe) and a private CandidateBuilder, and
// runs the pop/expand loop against the shared state under the query's
// ExecutionContext. The node table is shared read-only.
class Worker {
 public:
  Worker(SharedState* shared, ExecutionContext* ctx, const TreeScorer* scorer,
         const Query* query, const QueryNodeTable* nodes,
         const SearchOptions* options, std::unique_ptr<Ranker> ranker)
      : s_(shared),
        ctx_(ctx),
        query_(query),
        nodes_(nodes),
        options_(options),
        graph_(&scorer->model().graph()),
        builder_(*graph_, *nodes),
        ranker_(std::move(ranker)) {}

  int64_t bound_calls() const { return ranker_->bound_calls(); }

  CandidateBuilder& builder() { return builder_; }

  // Admits the builder's latest result into the shared state. The dedup
  // lookup and the arena placement run first (short lock) so exactly one
  // worker pays for the bound/score computation of any candidate; the
  // heavy work then runs unlocked, and a second lock publishes the result.
  // Returns the arena entry, or null when pruned or a duplicate.
  const AdmittedCandidate* TryAdmit(const Candidate& c, double ancestor_bound,
                                    bool from_merge) {
    if (c.diameter > options_->max_diameter || !builder_.viable()) {
      s_->pruned.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    AdmittedCandidate* entry;
    {
      MutexLock lk(s_->mu);
      if (s_->seen.Find(c) != nullptr) return nullptr;
      entry = ctx_->arena().New<AdmittedCandidate>(
          AdmittedCandidate{PlaceCandidate(c, ctx_->arena())});
      s_->seen.Insert(&entry->c);
      ++s_->generated;
      if (from_merge) ++s_->merged;
    }
    // Budget accounting: exhaustion latches the context's stop flag (all
    // workers observe it); the candidate just admitted still completes so
    // the partial state stays consistent.
    (void)ctx_->ChargeCandidates(1);
    CIRANK_DCHECK(ValidateCandidate(c, *nodes_).ok())
        << ValidateCandidate(c, *nodes_).ToString();

    const double ub = ranker_->UpperBound(c);
    const double chain_bound = std::min(ancestor_bound, ub);

    Jtt canon;
    double score = 0.0;
    bool complete = false;
    if (c.IsComplete(nodes_->all_keywords()) && builder_.IsReduced(c)) {
      complete = true;
      canon = MaterializeJtt(c).Canonicalized();
      score = ranker_->ScoreAnswer(canon, *query_);
      CIRANK_DCHECK(score <=
                    chain_bound + 1e-9 * std::max(1.0, std::abs(chain_bound)))
          << "Theorem 1 admissibility violated: emitted tree "
          << canon.CanonicalKey() << " scores " << score
          << " above its derivation-chain bound " << chain_bound;
    }

    MutexLock lk(s_->mu);
    if (complete && s_->answers.Offer(std::move(canon), score)) {
      ++s_->answers_found;
    }
    entry->c.upper_bound = ub;
    entry->chain_bound = chain_bound;
    s_->slots.push_back(entry);
    if (ub > 0.0) {
      s_->queue.push({ub, s_->slots.size() - 1});
      s_->cv.NotifyOne();  // work arrived; wake one idle worker
    }
    s_->by_root.Append(entry);
    return entry;
  }

  // Closure of Alg. 1's Smerge step over the newly admitted candidate, as
  // in the serial search: merge against the co-rooted registry prefix
  // present when each worklist item is popped, cascading over freshly
  // created merges.
  void MergeClosure(const AdmittedCandidate* start) {
    const uint32_t max_leaves = static_cast<uint32_t>(query_->size());
    std::vector<const AdmittedCandidate*> worklist{start};
    while (!worklist.empty()) {
      if (ctx_->stopped()) return;
      const AdmittedCandidate* me = worklist.back();
      worklist.pop_back();
      RootRegistry::Prefix partners = [&] {
        MutexLock lk(s_->mu);
        return s_->by_root.At(me->c.root);
      }();
      for (const AdmittedCandidate& other : partners) {
        if (&other == me) continue;
        if (me->c.non_root_leaves + other.c.non_root_leaves > max_leaves) {
          continue;
        }
        const Candidate* merged =
            builder_.Merge(me->c, other.c, options_->strict_merge_rule);
        if (merged == nullptr) continue;
        const double parents_bound =
            std::min(me->chain_bound, other.chain_bound);
        const AdmittedCandidate* admitted =
            TryAdmit(*merged, parents_bound, /*from_merge=*/true);
        if (admitted != nullptr) worklist.push_back(admitted);
      }
    }
  }

  // Grow step for one popped candidate (runs unlocked; `e` is a stable
  // arena pointer).
  void ExpandCandidate(const AdmittedCandidate* e) {
    neighbors_.clear();
    for (const Edge& edge : graph_->out_edges(e->c.root)) {
      if (!e->c.contains(edge.to)) neighbors_.push_back(edge.to);
    }
    for (NodeId nb : neighbors_) {
      if (ctx_->stopped()) return;
      const AdmittedCandidate* grown =
          TryAdmit(builder_.Grow(e->c, nb), e->chain_bound,
                   /*from_merge=*/false);
      if (grown != nullptr) MergeClosure(grown);
    }
  }

// The pop/expand loop. Termination: the queue is empty (or wholly
  // prunable/stopped, which empties it) AND no worker is mid-expansion —
  // only then can no new work appear. Workers otherwise sleep on the cv and
  // are woken by queue pushes or by the last in-flight expansion finishing.
  // Hand-over-hand locking (release around ExpandCandidate) is written with
  // explicit Lock/Unlock so the analysis can follow the lock state through
  // every branch.
  void Run() {
    s_->mu.Lock();
    for (;;) {
      if (s_->budget_exhausted || ctx_->stopped()) {
        s_->queue = {};
      } else if (ctx_->ShouldStop()) {
        // Deadline or candidate budget: drain the frontier so every worker
        // falls through to termination with the best-so-far answers.
        s_->queue = {};
        s_->cv.NotifyAll();
      } else if (options_->max_expansions > 0 &&
                 s_->popped >= options_->max_expansions &&
                 !s_->queue.empty()) {
        s_->budget_exhausted = true;
        s_->queue = {};
        s_->cv.NotifyAll();
      } else if (!s_->queue.empty() && s_->answers.Full() &&
                 s_->queue.top().first < s_->answers.MinScore()) {
        // The top of the max-heap cannot beat (or canonically displace a
        // tie with) the k-th answer, so nothing below it can either:
        // discard the whole frontier. The threshold only ever rises, so
        // this is final.
        s_->max_pruned_bound =
            std::max(s_->max_pruned_bound, s_->queue.top().first);
        s_->pruned.fetch_add(static_cast<int64_t>(s_->queue.size()),
                             std::memory_order_relaxed);
        s_->queue = {};
      }
      if (s_->queue.empty()) {
        if (s_->in_flight == 0) {
          s_->cv.NotifyAll();
          s_->mu.Unlock();
          return;
        }
        s_->cv.Wait(s_->mu);
        continue;
      }
      const auto [ub, idx] = s_->queue.top();
      s_->queue.pop();
      CIRANK_DCHECK(ub == s_->slots[idx]->c.upper_bound);
      ++s_->popped;
      ++s_->in_flight;
      const AdmittedCandidate* e = s_->slots[idx];
      s_->mu.Unlock();
      ExpandCandidate(e);
      s_->mu.Lock();
      --s_->in_flight;
      if (s_->in_flight == 0) s_->cv.NotifyAll();
    }
  }

 private:
  SharedState* s_;
  ExecutionContext* ctx_;
  const Query* query_;
  const QueryNodeTable* nodes_;
  const SearchOptions* options_;
  const Graph* graph_;
  CandidateBuilder builder_;
  std::unique_ptr<Ranker> ranker_;
  std::vector<NodeId> neighbors_;
};

// The "parallel" executor. Prepare builds one Worker per thread and seeds
// the shared frontier single-threaded; Expand runs the workers on a
// ThreadPool until the frontier is exhausted, pruned away, or the context
// stops the query; Emit takes the shared top-k and folds the per-worker
// counters into the stage stats.
class ParallelBnbExecutor final : public SearchExecutor {
 public:
  explicit ParallelBnbExecutor(const ExecutorEnv& env)
      : scorer_(*env.scorer),
        query_(*env.query),
        options_(env.options),
        shared_(static_cast<size_t>(env.options.k)) {}

  std::string_view name() const override { return "parallel"; }

  Status Prepare(ExecutionContext& ctx) override {
    ctx_ = &ctx;
    nodes_.emplace(scorer_, query_);
    workers_.reserve(static_cast<size_t>(options_.num_threads));
    for (int i = 0; i < options_.num_threads; ++i) {
      // One ranker per worker: ranker instances are not thread-safe (the
      // rwmp bound state memoizes), exactly like the calculators they
      // replaced. Scores stay byte-identical across workers because every
      // ranker is a pure function of the same immutable model.
      CIRANK_ASSIGN_OR_RETURN(
          std::unique_ptr<Ranker> ranker,
          RankerRegistry::Global().Create(
              options_.ranker,
              RankerEnv{&scorer_, &query_, options_, &*nodes_}));
      workers_.push_back(std::make_unique<Worker>(
          &shared_, &ctx, &scorer_, &query_, &*nodes_, &options_,
          std::move(ranker)));
    }

    // Seed with single-node candidates for every non-free node, exactly as
    // in the serial search. Seeds have distinct roots, so no merges can
    // trigger yet; running this before the pool starts keeps it
    // single-threaded.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Worker& seeder = *workers_[0];
    for (NodeId v : nodes_->non_free()) {
      seeder.TryAdmit(seeder.builder().Seed(v), kInf, /*from_merge=*/false);
      if (ctx.ShouldStop()) break;
    }
    return Status::OK();
  }

  Status Expand(ExecutionContext& ctx) override {
    {
      ThreadPool pool(options_.num_threads);
      for (auto& w : workers_) {
        Worker* worker = w.get();
        pool.Submit([worker] { worker->Run(); });
      }
      pool.WaitIdle();
    }
    return ctx.stopped() ? ctx.stop_status() : Status::OK();
  }

  // Emit/FillStats run after the pool has joined, so the lock below is
  // uncontended — it is taken anyway because the counters are capability-
  // guarded and the analysis (rightly) does not model "the threads are
  // gone" as a synchronization event.
  Result<std::vector<RankedAnswer>> Emit(ExecutionContext& ctx) override {
    StageStats& stages = ctx.stages();
    MutexLock lk(shared_.mu);
    stages.candidates_generated = shared_.generated;
    stages.candidates_merged = shared_.merged;
    stages.candidates_pruned =
        shared_.pruned.load(std::memory_order_relaxed);
    for (const auto& w : workers_) stages.bound_calls += w->bound_calls();
    return shared_.answers.Take();
  }

  void FillStats(SearchStats* stats) const override {
    stats->ranker = options_.ranker;
    MutexLock lk(shared_.mu);
    stats->popped = shared_.popped;
    stats->generated = shared_.generated;
    stats->answers_found = shared_.answers_found;
    stats->budget_exhausted = shared_.budget_exhausted;
    stats->proven_optimal = !shared_.budget_exhausted;
    stats->max_pruned_bound = shared_.max_pruned_bound;
  }

 private:
  const TreeScorer& scorer_;
  const Query& query_;
  const SearchOptions options_;
  ExecutionContext* ctx_ = nullptr;
  std::optional<QueryNodeTable> nodes_;
  SharedState shared_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace

Result<std::unique_ptr<SearchExecutor>> MakeParallelBnbExecutor(
    const ExecutorEnv& env) {
  CIRANK_RETURN_IF_ERROR(ValidateExecutorEnv(env));
  if (env.options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  std::unique_ptr<SearchExecutor> executor =
      std::make_unique<ParallelBnbExecutor>(env);
  return executor;
}

Result<std::vector<RankedAnswer>> ParallelBnbSearch(
    const TreeScorer& scorer, const Query& query, const SearchOptions& options,
    const ParallelSearchOptions& parallel, SearchStats* stats) {
  ExecutorEnv env{&scorer, &query, options};
  env.options.num_threads = parallel.num_threads;
  CIRANK_ASSIGN_OR_RETURN(std::unique_ptr<SearchExecutor> executor,
                          MakeParallelBnbExecutor(env));
  ExecutionContext ctx(ExecutionLimits::FromOptions(options));
  return RunSearchPipeline(*executor, ctx, stats);
}

}  // namespace cirank
