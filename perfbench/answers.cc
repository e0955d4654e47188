#include "answers.h"

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "eval/metrics.h"
#include "serve/json.h"

namespace perfbench {

using cirank::Result;
using cirank::Status;
using cirank::serve::JsonValue;

namespace {

constexpr std::string_view kAnswersKey = "\"answers\":";
constexpr std::string_view kStatsKey = ",\"stats\":";

// A JSON number that is a valid node id.
bool AsNodeId(const JsonValue& v, cirank::NodeId* out) {
  if (!v.is_number() || v.number < 0 || v.number != std::floor(v.number) ||
      v.number >= static_cast<double>(cirank::kInvalidNode)) {
    return false;
  }
  *out = static_cast<cirank::NodeId>(v.number);
  return true;
}

}  // namespace

std::string_view AnswersSection(std::string_view body) {
  const size_t begin = body.find(kAnswersKey);
  if (begin == std::string_view::npos) return {};
  const size_t end = body.find(kStatsKey, begin);
  if (end == std::string_view::npos) return {};
  return body.substr(begin + kAnswersKey.size(),
                     end - begin - kAnswersKey.size());
}

bool TopAnswerRoot(std::string_view body, cirank::NodeId* root) {
  const std::string_view answers = AnswersSection(body);
  constexpr std::string_view kRootKey = "\"root\":";
  const size_t at = answers.find(kRootKey);
  if (at == std::string_view::npos) return false;
  const std::string digits(answers.substr(at + kRootKey.size(), 16));
  char* end = nullptr;
  const unsigned long value = std::strtoul(digits.c_str(), &end, 10);
  if (end == digits.c_str()) return false;
  *root = static_cast<cirank::NodeId>(value);
  return true;
}

Result<std::vector<cirank::RankedAnswer>> CheckResponse(
    std::string_view body, const cirank::Query& query,
    const CheckContext& ctx) {
  CIRANK_ASSIGN_OR_RETURN(JsonValue doc, cirank::serve::ParseJson(body));
  const JsonValue* answers = doc.Find("answers");
  if (answers == nullptr || !answers->is_array()) {
    return Status::InvalidArgument("body has no answers array");
  }
  if (answers->array.size() > static_cast<size_t>(ctx.k)) {
    return Status::InvalidArgument(
        "more than k answers: " + std::to_string(answers->array.size()));
  }
  std::vector<cirank::RankedAnswer> out;
  std::set<std::string> keys;
  for (size_t i = 0; i < answers->array.size(); ++i) {
    const JsonValue& a = answers->array[i];
    const std::string where = "answer " + std::to_string(i) + ": ";
    const JsonValue* score = a.Find("score");
    const JsonValue* root_v = a.Find("root");
    const JsonValue* nodes = a.Find("nodes");
    const JsonValue* edges = a.Find("edges");
    cirank::NodeId root = 0;
    if (score == nullptr || !score->is_number() || root_v == nullptr ||
        !AsNodeId(*root_v, &root) || nodes == nullptr || !nodes->is_array() ||
        edges == nullptr || !edges->is_array()) {
      return Status::InvalidArgument(where + "malformed answer object");
    }
    std::vector<std::pair<cirank::NodeId, cirank::NodeId>> edge_list;
    for (const JsonValue& e : edges->array) {
      cirank::NodeId p = 0, c = 0;
      if (!e.is_array() || e.array.size() != 2 || !AsNodeId(e.array[0], &p) ||
          !AsNodeId(e.array[1], &c)) {
        return Status::InvalidArgument(where + "malformed edge");
      }
      edge_list.emplace_back(p, c);
    }
    CIRANK_ASSIGN_OR_RETURN(cirank::Jtt tree,
                            cirank::Jtt::Create(root, std::move(edge_list)));
    std::vector<cirank::NodeId> listed;
    for (const JsonValue& n : nodes->array) {
      cirank::NodeId v = 0;
      if (!AsNodeId(n, &v)) {
        return Status::InvalidArgument(where + "malformed node id");
      }
      listed.push_back(v);
    }
    if (listed != tree.nodes()) {
      return Status::InvalidArgument(where + "nodes do not match the edges");
    }
    if (Status st = cirank::ValidateJtt(tree, query, *ctx.index); !st.ok()) {
      return Status::InvalidArgument(where + st.ToString());
    }
    if (tree.Diameter() > ctx.max_diameter) {
      return Status::InvalidArgument(where + "diameter " +
                                     std::to_string(tree.Diameter()) +
                                     " exceeds D");
    }
    if (!keys.insert(tree.CanonicalKey()).second) {
      return Status::InvalidArgument(where + "duplicate answer tree");
    }
    if (!out.empty() && score->number > out.back().score) {
      return Status::InvalidArgument(where + "score above its predecessor");
    }
    out.push_back({std::move(tree), score->number});
  }
  return out;
}

bool SameAnswers(const std::vector<cirank::RankedAnswer>& a,
                 const std::vector<cirank::RankedAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score ||
        a[i].tree.CanonicalKey() != b[i].tree.CanonicalKey()) {
      return false;
    }
  }
  return true;
}

AnswerQuality ScoreAnswers(const cirank::LabeledQuery& query,
                           const std::vector<cirank::RankedAnswer>& answers,
                           const cirank::RelevanceOracle& oracle) {
  AnswerQuality q;
  std::vector<double> relevance;
  for (size_t i = 0; i < answers.size(); ++i) {
    relevance.push_back(oracle.Relevance(query, answers[i].tree));
    if (q.reciprocal_rank == 0.0) {
      bool all_targets = !query.targets.empty();
      for (cirank::NodeId t : query.targets) {
        all_targets = all_targets && answers[i].tree.contains(t);
      }
      if (all_targets) q.reciprocal_rank = 1.0 / static_cast<double>(i + 1);
    }
  }
  q.precision = cirank::GradedPrecision(relevance);
  return q;
}

}  // namespace perfbench
