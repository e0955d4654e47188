#include "core/ranker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/bounds.h"
#include "util/check.h"

namespace cirank {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// BM25 constants (Robertson-style defaults; fixed, not tunable — the
// composite's knobs are the mixing weights, not the text model).
constexpr double kBm25K1 = 1.2;
constexpr double kBm25B = 0.75;

// Per-(node, keyword) BM25 contribution with per-relation statistics.
double Bm25NodeTerm(const InvertedIndex& index, NodeId v,
                    const std::string& term) {
  const uint32_t tf = index.TermFrequency(v, term);
  if (tf == 0) return 0.0;
  const RelationId rel = index.graph().relation_of(v);
  const double n_rel = static_cast<double>(index.RelationSize(rel));
  const double df = static_cast<double>(index.DocFrequency(term, rel));
  const double idf = std::log(1.0 + (n_rel - df + 0.5) / (df + 0.5));
  double avdl = index.AvgTokenCount(rel);
  if (avdl <= 0.0) avdl = 1.0;
  const double dl = static_cast<double>(index.NodeTokenCount(v));
  const double tf_d = static_cast<double>(tf);
  const double norm = kBm25K1 * (1.0 - kBm25B + kBm25B * dl / avdl);
  return idf * tf_d * (kBm25K1 + 1.0) / (tf_d + norm);
}

// --- Built-in rankers ------------------------------------------------------

// The default: RWMP scoring (Eq. 4) with the Theorem-1 upper bound. Exact
// delegation to TreeScorer / UpperBoundCalculator, so routing the executors
// through the ranker layer is byte-identical to the pre-refactor pipeline.
class RwmpRanker final : public Ranker {
 public:
  explicit RwmpRanker(const RankerEnv& env) : scorer_(env.scorer) {
    if (env.query != nullptr) {
      calc_.emplace(*env.scorer, *env.nodes, env.options.max_diameter,
                    env.options.bounds);
    }
  }

  std::string_view name() const override { return "rwmp"; }
  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    return scorer_->Score(tree, query).score;
  }
  double UpperBound(const Candidate& c) const override {
    return calc_.has_value() ? calc_->UpperBound(c) : kInf;
  }
  int64_t bound_calls() const override {
    return calc_.has_value() ? calc_->calls() : 0;
  }

 private:
  const TreeScorer* scorer_;
  std::optional<UpperBoundCalculator> calc_;
};

// Weighted blend of RWMP and the BM25 text score:
//   score(T, Q) = w_rwmp * rwmp(T, Q) + w_text * bm25(T, Q).
// The text term is skipped entirely when w_text == 0, and 1.0 * x == x in
// IEEE arithmetic, so weights (1.0, 0.0) are bit-exactly the pure RWMP
// ranker (the degenerate-weights property test pins this down).
//
// Admissible bound: w_rwmp * ub_rwmp(c) + w_text * ub_text, where ub_text
// is the per-query constant sum over keywords of (k1+1) * max idf across
// the keyword's matching nodes — BM25's tf saturation tf/(tf+K) < 1 makes
// every realizable per-keyword text term smaller. A zero RWMP bound means
// some missing keyword provably cannot be supplied, so no answer derives
// from the candidate at all and the composite bound is 0 too.
class CompositeTextRanker final : public Ranker {
 public:
  explicit CompositeTextRanker(const RankerEnv& env)
      : scorer_(env.scorer),
        w_rwmp_(env.options.composite_rwmp_weight),
        w_text_(env.options.composite_text_weight) {
    if (env.query != nullptr) {
      calc_.emplace(*env.scorer, *env.nodes, env.options.max_diameter,
                    env.options.bounds);
      if (w_text_ != 0.0) {
        const InvertedIndex& index = env.scorer->index();
        text_bound_ = 0.0;
        for (const std::string& k : env.query->keywords) {
          double best_idf = 0.0;
          for (NodeId v : index.MatchingNodes(k)) {
            const RelationId rel = index.graph().relation_of(v);
            const double n_rel =
                static_cast<double>(index.RelationSize(rel));
            const double df =
                static_cast<double>(index.DocFrequency(k, rel));
            best_idf = std::max(
                best_idf, std::log(1.0 + (n_rel - df + 0.5) / (df + 0.5)));
          }
          text_bound_ += (kBm25K1 + 1.0) * best_idf;
        }
      }
    }
  }

  std::string_view name() const override { return "rwmp_x_text"; }

  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    double score = w_rwmp_ * scorer_->Score(tree, query).score;
    if (w_text_ != 0.0) {
      score += w_text_ * Bm25TextScore(scorer_->index(), tree, query);
    }
    return score;
  }

  double UpperBound(const Candidate& c) const override {
    if (!calc_.has_value()) return kInf;
    const double rwmp_ub = calc_->UpperBound(c);
    if (rwmp_ub == 0.0) return 0.0;  // provably no derivable answer
    double ub = w_rwmp_ * rwmp_ub;
    if (w_text_ != 0.0) ub += w_text_ * text_bound_;
    return ub;
  }

  int64_t bound_calls() const override {
    return calc_.has_value() ? calc_->calls() : 0;
  }

 private:
  const TreeScorer* scorer_;
  const double w_rwmp_;
  const double w_text_;
  std::optional<UpperBoundCalculator> calc_;
  double text_bound_ = 0.0;
};

// --- Rejected alternatives of Sec. III-B (ablations) -----------------------
// Moved here from src/eval/rankers.cc so the Fig. 6-9 sweeps and the serving
// path share one scoring implementation.

// Average importance of the non-free nodes only: ignores cohesiveness.
class AvgNonFreeImportanceRanker final : public Ranker {
 public:
  explicit AvgNonFreeImportanceRanker(const RankerEnv& env)
      : scorer_(env.scorer) {}

  std::string_view name() const override { return "avg-nonfree-importance"; }
  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    const RwmpModel& model = scorer_->model();
    const InvertedIndex& index = scorer_->index();
    double total = 0.0;
    size_t count = 0;
    for (NodeId v : tree.nodes()) {
      if (index.DistinctMatchedKeywords(v, query) > 0) {
        total += model.importance(v);
        ++count;
      }
    }
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  }

 private:
  const TreeScorer* scorer_;
};

// Average importance of all nodes: suffers free-node domination (Fig. 4).
class AvgAllImportanceRanker final : public Ranker {
 public:
  explicit AvgAllImportanceRanker(const RankerEnv& env)
      : scorer_(env.scorer) {}

  std::string_view name() const override { return "avg-all-importance"; }
  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    (void)query;
    const RwmpModel& model = scorer_->model();
    double total = 0.0;
    for (NodeId v : tree.nodes()) total += model.importance(v);
    return total / static_cast<double>(tree.size());
  }

 private:
  const TreeScorer* scorer_;
};

// Average importance divided by tree size: blind to structure.
class AvgImportancePerSizeRanker final : public Ranker {
 public:
  explicit AvgImportancePerSizeRanker(const RankerEnv& env)
      : scorer_(env.scorer) {}

  std::string_view name() const override { return "avg-importance-per-size"; }
  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    (void)query;
    const RwmpModel& model = scorer_->model();
    double total = 0.0;
    for (NodeId v : tree.nodes()) total += model.importance(v);
    const double n = static_cast<double>(tree.size());
    return total / (n * n);  // average importance, then size-normalized again
  }

 private:
  const TreeScorer* scorer_;
};

Status ValidateRankerEnv(const RankerEnv& env) {
  if (env.scorer == nullptr) {
    return Status::InvalidArgument("ranker env missing scorer");
  }
  if (env.query != nullptr && env.nodes == nullptr) {
    return Status::InvalidArgument("ranker env has a query but no node table");
  }
  return Status::OK();
}

template <typename R>
Result<std::unique_ptr<Ranker>> MakeBuiltin(const RankerEnv& env) {
  CIRANK_RETURN_IF_ERROR(ValidateRankerEnv(env));
  std::unique_ptr<Ranker> ranker = std::make_unique<R>(env);
  return ranker;
}

}  // namespace

double Ranker::UpperBound(const Candidate& c) const {
  (void)c;
  return kInf;
}

double Bm25TextScore(const InvertedIndex& index, const Jtt& tree,
                     const Query& query) {
  double total = 0.0;
  for (const std::string& k : query.keywords) {
    double best = 0.0;
    for (NodeId v : tree.nodes()) {
      best = std::max(best, Bm25NodeTerm(index, v, k));
    }
    total += best;
  }
  return total;
}

// ---------------------------------------------------------------------------
// RankerRegistry

template <>
RankerRegistry& RankerRegistry::Global() {
  // The core rankers are registered on first use; baselines add theirs via
  // RegisterBaselineExecutors() (explicit, to avoid a core→baselines
  // dependency cycle and static-initialization-order traps).
  static RankerRegistry* registry = [] {
    auto* r = new RankerRegistry("ranker");
    CIRANK_CHECK_OK(r->Register("rwmp", MakeBuiltin<RwmpRanker>));
    CIRANK_CHECK_OK(
        r->Register("rwmp_x_text", MakeBuiltin<CompositeTextRanker>));
    CIRANK_CHECK_OK(r->Register("avg-nonfree-importance",
                                MakeBuiltin<AvgNonFreeImportanceRanker>));
    CIRANK_CHECK_OK(r->Register("avg-all-importance",
                                MakeBuiltin<AvgAllImportanceRanker>));
    CIRANK_CHECK_OK(r->Register("avg-importance-per-size",
                                MakeBuiltin<AvgImportancePerSizeRanker>));
    return r;
  }();
  return *registry;
}

}  // namespace cirank
