// The answer checker every /search response passes through, and the
// quality scoring of checked answers against the planted ground truth.
#ifndef CIRANK_PERFBENCH_ANSWERS_H_
#define CIRANK_PERFBENCH_ANSWERS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/execution.h"
#include "core/jtt.h"
#include "datasets/query_gen.h"
#include "eval/oracle.h"
#include "text/inverted_index.h"
#include "util/status.h"

namespace perfbench {

struct CheckContext {
  const cirank::InvertedIndex* index = nullptr;
  uint32_t max_diameter = 0;  // the engine's default answer diameter D
  int k = 0;
};

// The bytes of the `answers` array inside a /search 200 body; empty when the
// body has no such member. Two responses to one query must agree on these
// bytes (the `stats` member legitimately differs, e.g. `from_cache`).
std::string_view AnswersSection(std::string_view body);

// Root of the first answer, read straight from the body (the click target);
// false when the body has no answer.
bool TopAnswerRoot(std::string_view body, cirank::NodeId* root);

// Parses a /search 200 body and checks its answers: at most k, scores
// non-increasing, no duplicate trees, and every tree — rebuilt with
// Jtt::Create from its root and edges — lists the served nodes, passes
// ValidateJtt against the query and has diameter <= D. The error names the
// first violation.
[[nodiscard]] cirank::Result<std::vector<cirank::RankedAnswer>> CheckResponse(
    std::string_view body, const cirank::Query& query, const CheckContext& ctx);

// True when both lists hold the same trees (canonical keys) with the same
// scores in the same order.
bool SameAnswers(const std::vector<cirank::RankedAnswer>& a,
                 const std::vector<cirank::RankedAnswer>& b);

struct AnswerQuality {
  double precision = 0.0;        // GradedPrecision of oracle relevance
  double reciprocal_rank = 0.0;  // of the first answer holding every target
};

AnswerQuality ScoreAnswers(const cirank::LabeledQuery& query,
                           const std::vector<cirank::RankedAnswer>& answers,
                           const cirank::RelevanceOracle& oracle);

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_ANSWERS_H_
