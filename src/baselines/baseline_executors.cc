#include "baselines/baseline_executors.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/banks.h"
#include "baselines/bidirectional.h"
#include "baselines/discover2.h"
#include "baselines/spark.h"
#include "core/naive_search.h"

namespace cirank {

namespace {

// BANKS and bidirectional share their executor shape: the baseline's own
// *enumeration* runs inside Expand with the context's guard (each assembled
// tree is a charged candidate), scoring goes through the registry's "banks"
// ranker, and Emit hands over whatever was assembled.
class BanksFamilyExecutor final : public SearchExecutor {
 public:
  BanksFamilyExecutor(const ExecutorEnv& env, bool bidirectional)
      : scorer_(*env.scorer),
        query_(*env.query),
        options_(env.options),
        bidirectional_(bidirectional) {}

  std::string_view name() const override {
    return bidirectional_ ? "bidirectional" : "banks";
  }

  Status Prepare(ExecutionContext& ctx) override {
    // Feed BANKS the same PageRank importance CI-Rank uses, so the baseline
    // differs only in how it exploits it (root+leaf averaging). Built
    // directly (not via SearchOptions::ranker): this executor *is* the
    // BANKS baseline — its scoring identity is fixed.
    ranker_ = MakeBanksRanker(scorer_.model().graph(),
                              scorer_.model().importance_vector(),
                              scorer_.index());
    ctx.stats().ranker = std::string(ranker_->name());
    return Status::OK();
  }

  Status Expand(ExecutionContext& ctx) override {
    const Graph& graph = scorer_.model().graph();
    const InvertedIndex& index = scorer_.index();
    if (bidirectional_) {
      BidirectionalSearchOptions opts;
      opts.k = options_.k;
      opts.max_diameter = options_.max_diameter;
      CIRANK_ASSIGN_OR_RETURN(
          answers_, BidirectionalSearch(graph, index, *ranker_, query_, opts,
                                        &ctx));
    } else {
      BanksSearchOptions opts;
      opts.k = options_.k;
      opts.max_diameter = options_.max_diameter;
      CIRANK_ASSIGN_OR_RETURN(
          answers_, BanksSearch(graph, index, *ranker_, query_, opts, &ctx));
    }
    return ctx.stopped() ? ctx.stop_status() : Status::OK();
  }

  Result<std::vector<RankedAnswer>> Emit(ExecutionContext& ctx) override {
    (void)ctx;
    return std::move(answers_);
  }

 private:
  const TreeScorer& scorer_;
  const Query& query_;
  const SearchOptions options_;
  const bool bidirectional_;
  std::unique_ptr<Ranker> ranker_;
  std::vector<RankedAnswer> answers_;
};

Result<std::unique_ptr<SearchExecutor>> MakeBanksFamily(const ExecutorEnv& env,
                                                        bool bidirectional) {
  CIRANK_RETURN_IF_ERROR(ValidateExecutorEnv(env));
  std::unique_ptr<SearchExecutor> executor =
      std::make_unique<BanksFamilyExecutor>(env, bidirectional);
  return executor;
}

Status ValidateRankerEnv(const RankerEnv& env) {
  if (env.scorer == nullptr) {
    return Status::InvalidArgument("ranker env missing scorer");
  }
  return Status::OK();
}

Status RegisterBaselineRankers(RankerRegistry& registry) {
  Status s = registry.Register(
      "spark", [](const RankerEnv& env) -> Result<std::unique_ptr<Ranker>> {
        CIRANK_RETURN_IF_ERROR(ValidateRankerEnv(env));
        return MakeSparkRanker(env.scorer->index());
      });
  if (s.ok()) {
    s = registry.Register(
        "discover2",
        [](const RankerEnv& env) -> Result<std::unique_ptr<Ranker>> {
          CIRANK_RETURN_IF_ERROR(ValidateRankerEnv(env));
          return MakeDiscover2Ranker(env.scorer->index());
        });
  }
  if (s.ok()) {
    s = registry.Register(
        "banks", [](const RankerEnv& env) -> Result<std::unique_ptr<Ranker>> {
          CIRANK_RETURN_IF_ERROR(ValidateRankerEnv(env));
          return MakeBanksRanker(env.scorer->model().graph(),
                                 env.scorer->model().importance_vector(),
                                 env.scorer->index());
        });
  }
  return s;
}

}  // namespace

std::unique_ptr<Ranker> MakeSparkRanker(const InvertedIndex& index) {
  // Captured by value: SparkScorer is a (pointer, params) pair.
  SparkScorer scorer(index);
  return std::make_unique<DelegatingRanker>(
      "spark", [scorer](const Jtt& tree, const Query& query) {
        return scorer.Score(tree, query);
      });
}

std::unique_ptr<Ranker> MakeDiscover2Ranker(const InvertedIndex& index) {
  Discover2Scorer scorer(index);
  return std::make_unique<DelegatingRanker>(
      "discover2", [scorer](const Jtt& tree, const Query& query) {
        return scorer.Score(tree, query);
      });
}

std::unique_ptr<Ranker> MakeBanksRanker(const Graph& graph,
                                        std::vector<double> importance,
                                        const InvertedIndex& index) {
  auto scorer = std::make_shared<BanksScorer>(graph, std::move(importance));
  const InvertedIndex* idx = &index;
  return std::make_unique<DelegatingRanker>(
      "banks", [scorer, idx](const Jtt& tree, const Query& query) {
        return scorer->Score(tree, query, *idx);
      });
}

Status RegisterBaselineExecutors() {
  // once_flag rather than checking Contains(): two concurrent first calls
  // must not race half-registered state.
  static std::once_flag once;
  static Status result = Status::OK();
  std::call_once(once, [] {
    ExecutorRegistry& registry = ExecutorRegistry::Global();
    auto banks = [&](const char* name, bool bidirectional) -> Status {
      return registry.Register(name, [bidirectional](const ExecutorEnv& env) {
        return MakeBanksFamily(env, bidirectional);
      });
    };
    // SPARK and DISCOVER2 are pure scoring functions, so their executors
    // are the naive executor ranking the neutral candidate pool (the same
    // pool the effectiveness experiments use, so no system's own search
    // biases it) through the identically named registry ranker.
    auto pool_scoring = [&](const std::string& name) -> Status {
      return registry.Register(name, [name](const ExecutorEnv& env) {
        return MakePinnedRankerExecutor(env, name);
      });
    };
    Status s = banks("banks", false);
    if (s.ok()) s = banks("bidirectional", true);
    if (s.ok()) s = pool_scoring("spark");
    if (s.ok()) s = pool_scoring("discover2");
    if (s.ok()) s = RegisterBaselineRankers(RankerRegistry::Global());
    result = std::move(s);
  });
  return result;
}

}  // namespace cirank
