#include "core/bnb_search.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>

#include "core/ranker.h"
#include "core/shard_hooks.h"
#include "core/topk.h"
#include "util/check.h"

namespace cirank {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The "bnb" executor: Algorithm 1 decomposed into the pipeline stages.
// Prepare seeds single-node candidates for every non-free node; Expand runs
// the pop/grow/merge loop under the Theorem-1 stopping rule; Emit takes the
// accumulated top-k. Candidates are placed into the per-query arena —
// stable addresses, one wholesale release at query end — and the frontier
// and registries hold indices into `slots_`.
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
    // The ranker owns all scoring *and* the Theorem-1 bound state; the
    // executor only enumerates. The default "rwmp" ranker delegates to the
    // same TreeScorer / UpperBoundCalculator pair the executor used to own,
    // so the search stays byte-identical.
    CIRANK_ASSIGN_OR_RETURN(
        ranker_, RankerRegistry::Global().Create(
                     options_.ranker, RankerEnv{&scorer_, &query_, options_}));
    all_ = (KeywordMask{1} << query_.size()) - 1;

    // Seed with single-node candidates for every non-free node (line 3-6).
    const InvertedIndex& index = scorer_.index();
    std::set<NodeId> seeds;
    for (const std::string& k : query_.keywords) {
      for (NodeId v : index.MatchingNodes(k)) seeds.insert(v);
    }
    for (NodeId v : seeds) {
      // Sharded sub-search: only seeds inside this shard's scope ball. Every
      // answer tree of diameter ≤ D lies entirely within the scope of the
      // shard owning its minimum node (DESIGN.md §16), so dropping
      // out-of-scope seeds loses nothing globally.
      if (shard_ != nullptr && !shard_->InScope(v)) continue;
      Candidate c;
      c.tree = Jtt(v);
      c.covered = NodeKeywordMask(v, query_, index);
      c.diameter = 0;
      Admit(ctx, std::move(c), kInf, /*from_merge=*/false);
      if (ctx.ShouldStop()) break;
    }
    return Status::OK();
  }

  Status Expand(ExecutionContext& ctx) override {
    const Graph& graph = scorer_.model().graph();
    while (!queue_.empty()) {
      if (ctx.ShouldStop()) return ctx.stop_status();
      auto [ub, idx] = queue_.top();
      queue_.pop();
      if (ub < slots_[idx]->upper_bound) continue;  // stale (cannot happen)

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
      const Candidate& c = *slots_[idx];
      const NodeId root = c.root();
      std::vector<NodeId> neighbors;
      for (const Edge& e : graph.out_edges(root)) {
        // Sharded sub-search: never grow a tree across the scope boundary —
        // trees crossing it are enumerated (in full) by the shard that owns
        // them.
        if (shard_ != nullptr && !shard_->InScope(e.to)) continue;
        if (!c.tree.contains(e.to)) neighbors.push_back(e.to);
      }
      for (NodeId nb : neighbors) {
        if (ctx.stopped()) break;
        Candidate grown = GrowCandidate(*slots_[idx], nb, query_,
                                        scorer_.index());
        const size_t before = slots_.size();
        if (Admit(ctx, std::move(grown), audit_bound_[idx],
                  /*from_merge=*/false)) {
          MergeClosure(ctx, before);
        }
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
  struct RegistryEntry {
    size_t idx;
    uint32_t non_root_leaves;
    KeywordMask covered;
  };

  // Admits a candidate: dedup, score if complete answer, enqueue, register.
  // `ancestor_bound` is the Theorem-1 audit chain bound inherited from the
  // candidate's grow/merge parents (kInf for seeds); audit_bound_[i] is the
  // minimum upper bound along slots_[i]'s derivation chain, and every
  // emitted answer must score within it (Lemma 1) — CIRANK_DCHECK enforces
  // that below.
  bool Admit(ExecutionContext& ctx, Candidate&& c, double ancestor_bound,
             bool from_merge) {
    if (c.diameter > options_.max_diameter ||
        !IsViableCandidate(c, query_, scorer_.index())) {
      ++ctx.stages().candidates_pruned;
      return false;
    }
    std::string key = CandidateKey(c);
    if (!seen_.insert(std::move(key)).second) return false;
    ++generated_;
    ++ctx.stages().candidates_generated;
    if (from_merge) ++ctx.stages().candidates_merged;
    // Budget accounting: exhaustion latches the stop flag; the candidate
    // just admitted still completes so the partial state stays consistent.
    (void)ctx.ChargeCandidates(1);

    c.upper_bound = ranker_->UpperBound(c);
    const double chain_bound = std::min(ancestor_bound, c.upper_bound);

    if (c.IsComplete(all_) && c.tree.IsReduced(query_, scorer_.index())) {
      // Scoring runs on the canonical representative so the stored answer
      // (and its floating-point score) does not depend on which derivation
      // reached this tree first — a precondition for the byte-identical
      // guarantee shared with the parallel executor.
      Jtt canon = c.tree.Canonicalized();
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

    Candidate* slot = ctx.arena().New<Candidate>(std::move(c));
    slots_.push_back(slot);
    audit_bound_.push_back(chain_bound);
    const size_t idx = slots_.size() - 1;
    if (slot->upper_bound > 0.0) {
      queue_.push({slot->upper_bound, idx});
    }
    by_root_[slot->root()].push_back(
        RegistryEntry{idx, NonRootLeafCount(*slot), slot->covered});
    return true;
  }

  // Merges a freshly admitted candidate against everything registered at its
  // root, cascading so multi-way merges are reachable (closure of Alg. 1's
  // Smerge step).
  void MergeClosure(ExecutionContext& ctx, size_t start_idx) {
    const uint32_t max_leaves = static_cast<uint32_t>(query_.size());
    std::vector<size_t> worklist{start_idx};
    while (!worklist.empty()) {
      if (ctx.stopped()) return;
      const size_t idx = worklist.back();
      worklist.pop_back();
      const NodeId root = slots_[idx]->root();
      const uint32_t my_leaves = NonRootLeafCount(*slots_[idx]);
      const KeywordMask my_mask = slots_[idx]->covered;
      // Snapshot: Admit() may grow the registry while we iterate.
      std::vector<RegistryEntry> partners = by_root_[root];
      for (const RegistryEntry& other : partners) {
        if (other.idx == idx) continue;
        // Fast pre-filters: the merged tree keeps both sides' non-root
        // leaves, so it can only stay viable when their counts fit within
        // |Q|; the strict rule additionally needs coverage growth.
        if (my_leaves + other.non_root_leaves > max_leaves) continue;
        if (options_.strict_merge_rule) {
          const KeywordMask merged_mask = my_mask | other.covered;
          if (merged_mask == my_mask || merged_mask == other.covered) {
            continue;
          }
        }
        Result<Candidate> merged = MergeCandidates(
            *slots_[idx], *slots_[other.idx], options_.strict_merge_rule);
        if (!merged.ok()) continue;
        const size_t before = slots_.size();
        const double parents_bound =
            std::min(audit_bound_[idx], audit_bound_[other.idx]);
        if (Admit(ctx, std::move(merged).value(), parents_bound,
                  /*from_merge=*/true)) {
          worklist.push_back(before);
        }
      }
    }
  }

  const TreeScorer& scorer_;
  const Query& query_;
  const SearchOptions options_;
  // Null unless this query is a per-shard sub-search (core/shard_hooks.h).
  const ShardHooks* const shard_;

  std::unique_ptr<Ranker> ranker_;
  KeywordMask all_ = 0;

  // Arena-placed candidates; the priority queue and root registry hold
  // indices into slots_.
  std::vector<Candidate*> slots_;
  std::vector<double> audit_bound_;
  std::priority_queue<std::pair<double, size_t>> queue_;  // (ub, slot idx)
  std::map<NodeId, std::vector<RegistryEntry>> by_root_;
  std::set<std::string> seen_;
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
