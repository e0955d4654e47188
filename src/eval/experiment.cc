#include "eval/experiment.h"

#include <algorithm>
#include <numeric>

#include "core/topk.h"
#include "eval/metrics.h"

namespace cirank {

Result<std::vector<QueryPool>> BuildQueryPools(
    const Dataset& dataset, const InvertedIndex& index,
    const std::vector<LabeledQuery>& queries,
    const EffectivenessOptions& options) {
  if (queries.empty()) return Status::InvalidArgument("no queries");

  RelevanceOracle oracle(dataset, index);
  EnumerateOptions enum_options;
  enum_options.max_diameter = options.max_diameter;
  enum_options.max_answers = options.pool_cap;

  std::vector<QueryPool> pools;
  for (const LabeledQuery& lq : queries) {
    Result<std::vector<Jtt>> pool =
        EnumerateAnswers(dataset.graph, index, lq.query, enum_options);
    if (!pool.ok() || pool->empty()) continue;

    const std::vector<size_t> best = oracle.BestAnswers(lq, *pool);
    if (best.empty()) continue;

    QueryPool qp;
    qp.query = lq;
    qp.pool = std::move(pool).value();
    qp.relevance.reserve(qp.pool.size());
    for (const Jtt& t : qp.pool) {
      qp.relevance.push_back(oracle.Relevance(lq, t));
    }
    qp.is_best.assign(qp.pool.size(), false);
    for (size_t b : best) qp.is_best[b] = true;
    pools.push_back(std::move(qp));
  }
  return pools;
}

RankerEffectiveness EvaluateRanker(const std::vector<QueryPool>& pools,
                                   const Ranker& ranker,
                                   const EffectivenessOptions& options) {
  std::vector<double> rr_values, prec_values;
  for (const QueryPool& qp : pools) {
    std::vector<size_t> order(qp.pool.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<double> scores(qp.pool.size());
    for (size_t i = 0; i < qp.pool.size(); ++i) {
      scores[i] = ranker.ScoreAnswer(qp.pool[i], qp.query.query);
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return RanksBefore(scores[a], qp.pool[a], scores[b], qp.pool[b]);
    });

    std::vector<bool> best_by_rank;
    best_by_rank.reserve(order.size());
    for (size_t i : order) best_by_rank.push_back(qp.is_best[i]);
    rr_values.push_back(ReciprocalRank(best_by_rank));

    std::vector<double> relevance_by_rank;
    for (size_t i = 0;
         i < order.size() && i < static_cast<size_t>(options.top_p); ++i) {
      relevance_by_rank.push_back(qp.relevance[order[i]]);
    }
    prec_values.push_back(GradedPrecision(relevance_by_rank));
  }

  RankerEffectiveness out;
  out.name = std::string(ranker.name());
  out.mrr = Mean(rr_values);
  out.precision = Mean(prec_values);
  out.evaluated_queries = static_cast<int>(rr_values.size());
  return out;
}

Result<std::vector<RankerEffectiveness>> RunEffectiveness(
    const Dataset& dataset, const InvertedIndex& index,
    const std::vector<LabeledQuery>& queries,
    const std::vector<const Ranker*>& rankers,
    const EffectivenessOptions& options) {
  if (rankers.empty()) return Status::InvalidArgument("no rankers");
  CIRANK_ASSIGN_OR_RETURN(std::vector<QueryPool> pools,
                          BuildQueryPools(dataset, index, queries, options));

  std::vector<RankerEffectiveness> out;
  for (const Ranker* ranker : rankers) {
    out.push_back(EvaluateRanker(pools, *ranker, options));
  }
  return out;
}

}  // namespace cirank
