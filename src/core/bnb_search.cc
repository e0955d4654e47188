#include "core/bnb_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/ranker.h"
#include "core/shard_hooks.h"
#include "core/topk.h"
#include "util/check.h"

namespace cirank {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The "bnb" executor: Algorithm 1 decomposed into the pipeline stages.
// Prepare builds the query's node table and seeds single-node candidates
// for every non-free node; Expand runs the pop/grow/merge loop under the
// Theorem-1 stopping rule; Emit takes the accumulated top-k. Grow and merge
// results are built in the builder's scratch buffers; only admitted ones
// are placed into the per-query arena — stable addresses, one wholesale
// release at query end — and the frontier holds indices into `slots_`.
class BnbExecutor final : public SearchExecutor {
 public:
  explicit BnbExecutor(const ExecutorEnv& env)
      : scorer_(*env.scorer),
        query_(*env.query),
        options_(env.options),
        shard_(env.options.shard_hooks),
        answers_(static_cast<size_t>(env.options.k)) {}

  std::string_view name() const override { return "bnb"; }

  Status Prepare(ExecutionContext& ctx) override {
    nodes_.emplace(scorer_, query_);
    builder_.emplace(scorer_.model().graph(), *nodes_);
    // The ranker owns all scoring *and* the Theorem-1 bound state; the
    // executor only enumerates. The default "rwmp" ranker delegates to the
    // same TreeScorer / UpperBoundCalculator pair the executor used to own,
    // so the search stays byte-identical.
    CIRANK_ASSIGN_OR_RETURN(
        ranker_, RankerRegistry::Global().Create(
                     options_.ranker,
                     RankerEnv{&scorer_, &query_, options_, &*nodes_}));

    // Seed with single-node candidates for every non-free node (line 3-6),
    // in ascending node id.
    for (NodeId v : nodes_->non_free()) {
      // Sharded sub-search: only seeds inside this shard's scope ball. Every
      // answer tree of diameter ≤ D lies entirely within the scope of the
      // shard owning its minimum node (DESIGN.md §16), so dropping
      // out-of-scope seeds loses nothing globally.
      if (shard_ != nullptr && !shard_->InScope(v)) continue;
      Admit(ctx, builder_->Seed(v), kInf, /*from_merge=*/false);
      if (ctx.ShouldStop()) break;
    }
    return Status::OK();
  }

  Status Expand(ExecutionContext& ctx) override {
    const Graph& graph = scorer_.model().graph();
    std::vector<NodeId> neighbors;
    while (!queue_.empty()) {
      if (ctx.ShouldStop()) return ctx.stop_status();
      auto [ub, idx] = queue_.top();
      queue_.pop();
      if (ub < slots_[idx]->c.upper_bound) continue;  // stale (cannot happen)

      // Stopping rule (lines 9-11): nothing left can beat — or canonically
      // displace a tie with — the k-th answer. The inequality is strict so
      // candidates tying with the k-th score are still expanded; that makes
      // the output independent of expansion order (see bnb_search.h). A
      // sharded sub-search additionally stops once its best remaining bound
      // falls below the cross-shard global k-th score (DESIGN.md §16): the
      // published threshold never exceeds the final merged k-th answer, so
      // with the same strict inequality the early exit discards only
      // candidates provably outside the global top-k.
      const bool local_stop = answers_.Full() && ub < answers_.MinScore();
      if (local_stop ||
          (shard_ != nullptr && ub < shard_->GlobalThreshold())) {
        max_pruned_bound_ = std::max(max_pruned_bound_, ub);
        ctx.stages().candidates_pruned +=
            static_cast<int64_t>(queue_.size()) + 1;
        proven_optimal_ = true;
        if (!local_stop) shard_early_stopped_ = true;
        break;
      }
      ++popped_;
      if (options_.max_expansions > 0 && popped_ > options_.max_expansions) {
        budget_exhausted_ = true;
        break;
      }

      // Tree growing (line 12): every graph neighbor of the root not yet in
      // the tree becomes a new root.
      const AdmittedCandidate* entry = slots_[idx];
      const Candidate& c = entry->c;
      neighbors.clear();
      for (const Edge& e : graph.out_edges(c.root)) {
        // Sharded sub-search: never grow a tree across the scope boundary —
        // trees crossing it are enumerated (in full) by the shard that owns
        // them.
        if (shard_ != nullptr && !shard_->InScope(e.to)) continue;
        if (!c.contains(e.to)) neighbors.push_back(e.to);
      }
      for (NodeId nb : neighbors) {
        if (ctx.stopped()) break;
        const AdmittedCandidate* grown =
            Admit(ctx, builder_->Grow(c, nb), entry->chain_bound,
                  /*from_merge=*/false);
        if (grown != nullptr) MergeClosure(ctx, grown);
      }
    }

    if (queue_.empty() && !ctx.stopped()) {
      proven_optimal_ = !budget_exhausted_;
    }
    return ctx.stopped() ? ctx.stop_status() : Status::OK();
  }

  Result<std::vector<RankedAnswer>> Emit(ExecutionContext& ctx) override {
    ctx.stages().bound_calls = ranker_->bound_calls();
    return answers_.Take();
  }

  void FillStats(SearchStats* stats) const override {
    stats->ranker = std::string(ranker_->name());
    stats->popped = popped_;
    stats->generated = generated_;
    stats->answers_found = answers_found_;
    stats->budget_exhausted = budget_exhausted_;
    stats->proven_optimal = proven_optimal_;
    stats->max_pruned_bound = max_pruned_bound_;
    stats->shard_early_stopped = shard_early_stopped_;
  }

 private:
  // Admits the builder's latest result: prune, dedup, bound, score if it
  // is a complete answer, then place, enqueue and register it. Returns the
  // arena entry, or null when the candidate was pruned or a duplicate.
  // `ancestor_bound` is the Theorem-1 audit chain bound inherited from the
  // candidate's grow/merge parents (kInf for seeds); every emitted answer
  // must score within its chain bound (Lemma 1) — CIRANK_DCHECK enforces
  // that below.
  const AdmittedCandidate* Admit(ExecutionContext& ctx, const Candidate& c,
                                 double ancestor_bound, bool from_merge) {
    if (c.diameter > options_.max_diameter || !builder_->viable()) {
      ++ctx.stages().candidates_pruned;
      return nullptr;
    }
    if (seen_.Find(c) != nullptr) return nullptr;
    ++generated_;
    ++ctx.stages().candidates_generated;
    if (from_merge) ++ctx.stages().candidates_merged;
    // Budget accounting: exhaustion latches the stop flag; the candidate
    // just admitted still completes so the partial state stays consistent.
    (void)ctx.ChargeCandidates(1);
    CIRANK_DCHECK(ValidateCandidate(c, *nodes_).ok())
        << ValidateCandidate(c, *nodes_).ToString();

    const double ub = ranker_->UpperBound(c);
    const double chain_bound = std::min(ancestor_bound, ub);

    if (c.IsComplete(nodes_->all_keywords()) && builder_->IsReduced(c)) {
      // Scoring runs on the canonical representative so the stored answer
      // (and its floating-point score) does not depend on which derivation
      // reached this tree first — a precondition for byte-identical
      // answers, here and across the shard merge.
      Jtt canon = MaterializeJtt(c).Canonicalized();
      const double score = ranker_->ScoreAnswer(canon, query_);
      CIRANK_DCHECK(score <=
                    chain_bound + 1e-9 * std::max(1.0, std::abs(chain_bound)))
          << "Theorem 1 admissibility violated: emitted tree "
          << canon.CanonicalKey() << " scores " << score
          << " above its derivation-chain bound " << chain_bound;
      // Publication key, captured before the move below. Offer() returns
      // true for every tree new to *this* shard — including one immediately
      // truncated off the local top-k — and publishing those too is safe:
      // the gatherer's k-th-distinct-score threshold over the published set
      // equals the one over the union of the local top-k lists (an answer
      // truncated locally had k better answers in the same shard).
      std::string publish_key;
      if (shard_ != nullptr) publish_key = canon.CanonicalKey();
      if (answers_.Offer(std::move(canon), score)) {
        ++answers_found_;
        if (shard_ != nullptr) shard_->PublishAnswer(publish_key, score);
      }
    }

    AdmittedCandidate* entry = ctx.arena().New<AdmittedCandidate>(
        AdmittedCandidate{PlaceCandidate(c, ctx.arena()), chain_bound});
    entry->c.upper_bound = ub;
    seen_.Insert(&entry->c);
    slots_.push_back(entry);
    if (ub > 0.0) queue_.push({ub, slots_.size() - 1});
    by_root_.Append(entry);
    return entry;
  }

  // Merges a freshly admitted candidate against everything registered at its
  // root, cascading so multi-way merges are reachable (closure of Alg. 1's
  // Smerge step). Each worklist item meets the registry prefix present when
  // it is popped.
  void MergeClosure(ExecutionContext& ctx, const AdmittedCandidate* start) {
    const uint32_t max_leaves = static_cast<uint32_t>(query_.size());
    std::vector<const AdmittedCandidate*> worklist{start};
    while (!worklist.empty()) {
      if (ctx.stopped()) return;
      const AdmittedCandidate* me = worklist.back();
      worklist.pop_back();
      for (const AdmittedCandidate& other : by_root_.At(me->c.root)) {
        if (&other == me) continue;
        // Fast pre-filters: the merged tree keeps both sides' non-root
        // leaves, so it can only stay viable when their counts fit within
        // |Q|; the strict rule additionally needs coverage growth.
        if (me->c.non_root_leaves + other.c.non_root_leaves > max_leaves) {
          continue;
        }
        const Candidate* merged =
            builder_->Merge(me->c, other.c, options_.strict_merge_rule);
        if (merged == nullptr) continue;
        const double parents_bound =
            std::min(me->chain_bound, other.chain_bound);
        const AdmittedCandidate* admitted =
            Admit(ctx, *merged, parents_bound, /*from_merge=*/true);
        if (admitted != nullptr) worklist.push_back(admitted);
      }
    }
  }

  const TreeScorer& scorer_;
  const Query& query_;
  const SearchOptions options_;
  // Null unless this query is a per-shard sub-search (core/shard_hooks.h).
  const ShardHooks* const shard_;

  std::optional<QueryNodeTable> nodes_;
  std::optional<CandidateBuilder> builder_;
  std::unique_ptr<Ranker> ranker_;

  // Arena-placed candidates in admission order; the priority queue holds
  // indices into slots_, so ties in the bound pop the later admission
  // first.
  std::vector<AdmittedCandidate*> slots_;
  std::priority_queue<std::pair<double, size_t>> queue_;  // (ub, slot idx)
  RootRegistry by_root_;
  CandidateSet seen_;
  TopKAnswers answers_;

  int64_t popped_ = 0;
  int64_t generated_ = 0;
  int64_t answers_found_ = 0;
  bool budget_exhausted_ = false;
  bool proven_optimal_ = false;
  bool shard_early_stopped_ = false;
  double max_pruned_bound_ = 0.0;
};

}  // namespace

Result<std::unique_ptr<SearchExecutor>> MakeBnbExecutor(
    const ExecutorEnv& env) {
  CIRANK_RETURN_IF_ERROR(ValidateExecutorEnv(env));
  std::unique_ptr<SearchExecutor> executor = std::make_unique<BnbExecutor>(env);
  return executor;
}

Result<std::vector<RankedAnswer>> BranchAndBoundSearch(
    const TreeScorer& scorer, const Query& query, const SearchOptions& options,
    SearchStats* stats) {
  ExecutorEnv env{&scorer, &query, options};
  CIRANK_ASSIGN_OR_RETURN(std::unique_ptr<SearchExecutor> executor,
                          MakeBnbExecutor(env));
  ExecutionContext ctx(ExecutionLimits::FromOptions(options));
  return RunSearchPipeline(*executor, ctx, stats);
}

}  // namespace cirank
