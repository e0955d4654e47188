// The pluggable ranking layer (DESIGN.md §15). Enumeration and scoring are
// separate concerns: the SearchExecutor pipeline (core/execution.h) discovers
// answer trees, and a Ranker assigns every complete answer its score. One
// executor can therefore serve any ranking function — RWMP, the IR-style and
// graph-based baselines, the rejected-alternative ablations, and weighted
// composites — selected per query via SearchOptions::ranker.
//
// The admissibility contract: Ranker::UpperBound(c) must be >= the ranker's
// ScoreAnswer for *every* answer tree derivable from candidate `c` (Lemma 1
// generalized). The branch-and-bound executors prune on this bound, so an
// inadmissible bound silently drops correct answers; rankers that cannot
// bound cheaply inherit the default (+infinity), which is always admissible
// and merely disables pruning.
#ifndef CIRANK_CORE_RANKER_H_
#define CIRANK_CORE_RANKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/candidate.h"
#include "core/jtt.h"
#include "core/options.h"
#include "core/registry.h"
#include "core/scorer.h"
#include "util/status.h"

namespace cirank {

// One query's scoring function. Instances are created per query (via
// RankerRegistry) and are NOT thread-safe: the rwmp ranker's bound state
// memoizes per-query caches.
class Ranker {
 public:
  virtual ~Ranker() = default;

  // Registry name of this ranker ("rwmp", "spark", "rwmp_x_text", ...).
  virtual std::string_view name() const = 0;

  // Score of a complete answer tree; higher is better. Must be
  // deterministic — the executors rely on bitwise-reproducible scores for
  // answers that are byte-identical however the search reached them, and
  // the shard merge for lists that are byte-identical to the single
  // engine's.
  virtual double ScoreAnswer(const Jtt& tree, const Query& query) const = 0;

  // Upper bound on ScoreAnswer over every answer derivable from `c`
  // (admissibility contract above). The default is +infinity: always
  // admissible, never prunes. Returning 0 asserts that no valid answer can
  // be derived from `c` at all (the executors drop such candidates from the
  // frontier).
  virtual double UpperBound(const Candidate& c) const;

  // Number of UpperBound() evaluations so far (StageStats::bound_calls);
  // rankers without bound state report 0.
  virtual int64_t bound_calls() const { return 0; }
};

// Everything a factory needs to build a ranker for one query. `scorer` must
// be non-null (it carries the model, importance vector, and inverted index
// every ranking function reads). A null `query` skips per-query bound state:
// the ranker scores answers but reports the default +infinity bound — the
// right mode for pool scoring and the eval sweeps, where UpperBound is never
// consulted. With a query, `nodes` must be the executor's node table for it
// (keyword masks, emissions and keyword sources, core/candidate.h), which
// the bound reads. The pointees must outlive the ranker.
struct RankerEnv {
  const TreeScorer* scorer = nullptr;
  const Query* query = nullptr;
  SearchOptions options;
  const QueryNodeTable* nodes = nullptr;
};

// Name → factory map, the same implementation as ExecutorRegistry
// (core/registry.h). The global instance, used by the executors and the
// serving layer, comes pre-loaded with the core rankers ("rwmp",
// "rwmp_x_text", and the Sec. III-B ablations); baselines register
// "spark"/"discover2"/"banks" via RegisterBaselineExecutors() to keep the
// core library free of a dependency cycle.
using RankerRegistry = FactoryRegistry<Ranker, RankerEnv>;
template <>
RankerRegistry& RankerRegistry::Global();
using RankerFactory = RankerRegistry::Factory;

// Adapter for scoring functions that live outside src/core (baseline
// scorers, bench-only ablations, test doubles): wraps plain callables so no
// other file needs to subclass Ranker — the analyzer's `tree-scoring` rule
// holds every ScoreAnswer implementation inside src/core.
class DelegatingRanker final : public Ranker {
 public:
  using ScoreFn = std::function<double(const Jtt&, const Query&)>;

  // `score` must be deterministic, per the Ranker contract. The bound is
  // the default +infinity.
  DelegatingRanker(std::string name, ScoreFn score)
      : name_(std::move(name)), score_(std::move(score)) {}

  std::string_view name() const override { return name_; }
  double ScoreAnswer(const Jtt& tree, const Query& query) const override {
    return score_(tree, query);
  }

 private:
  std::string name_;
  ScoreFn score_;
};

// The BM25 text component of the "rwmp_x_text" composite: for each keyword,
// the best per-node BM25 contribution over the tree's nodes, summed across
// keywords (k1 = 1.2, b = 0.75, per-relation df/avdl statistics from the
// inverted index). Exposed for the composite's property tests.
double Bm25TextScore(const InvertedIndex& index, const Jtt& tree,
                     const Query& query);

}  // namespace cirank

#endif  // CIRANK_CORE_RANKER_H_
