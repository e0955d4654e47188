#include "serve/request.h"

#include <cmath>
#include <cstdint>

#include "core/order_by.h"
#include "core/ranker.h"
#include "obs/log.h"
#include "serve/json.h"

namespace cirank {
namespace serve {

namespace {

// Extracts an integral field: the JSON number must be finite (guaranteed by
// the parser), integral, and within [min, max].
Result<int64_t> IntegralField(const JsonValue& value, const char* field,
                              int64_t min, int64_t max) {
  if (!value.is_number()) {
    return Status::InvalidArgument(std::string("field '") + field +
                                   "' must be a number");
  }
  const double d = value.number;
  if (d != std::rint(d)) {
    return Status::InvalidArgument(std::string("field '") + field +
                                   "' must be an integer");
  }
  if (d < static_cast<double>(min) || d > static_cast<double>(max)) {
    return Status::InvalidArgument(
        std::string("field '") + field + "' must be in [" +
        std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return static_cast<int64_t>(d);
}

Result<std::string> StringField(const JsonValue& value, const char* field) {
  if (!value.is_string()) {
    return Status::InvalidArgument(std::string("field '") + field +
                                   "' must be a string");
  }
  return value.string;
}

Result<bool> BoolField(const JsonValue& value, const char* field) {
  if (!value.is_bool()) {
    return Status::InvalidArgument(std::string("field '") + field +
                                   "' must be a boolean");
  }
  return value.bool_value;
}

// The removed intra-query executor. For one release its name stays
// accepted as a deprecated alias of "bnb", and its `num_threads` knob as a
// deprecated no-op, each with a response "warning".
constexpr char kRemovedParallelExecutor[] = "parallel";

// Appends one note to the response's "warning" field, "; "-separated.
void AddDeprecationNote(SearchRequest* request, const std::string& note) {
  if (!request->deprecation_note.empty()) request->deprecation_note += "; ";
  request->deprecation_note += note;
}

Status ApplyExecutorName(std::string name, const char* field,
                         SearchRequest* request) {
  if (name == kRemovedParallelExecutor) {
    CIRANK_LOG_EVERY_N(Warning, 100)
        << "/search field '" << field << "' names the removed executor "
        << "'parallel'; serving it with 'bnb'";
    AddDeprecationNote(request, std::string("field '") + field +
                                    "' value 'parallel' is deprecated and "
                                    "runs 'bnb'; the intra-query parallel "
                                    "executor was removed");
    name = "bnb";
  }
  if (!ExecutorRegistry::Global().Contains(name)) {
    std::string known;
    for (const std::string& n : ExecutorRegistry::Global().Names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    return Status::InvalidArgument(std::string("unknown ") + field + " '" +
                                   name + "'; registered: " + known);
  }
  if (request->overrides.executor.has_value() &&
      *request->overrides.executor != name) {
    return Status::InvalidArgument(
        "'executor' and 'ranker' disagree ('" + *request->overrides.executor +
        "' vs '" + name + "'); set one, or the same value");
  }
  request->overrides.WithExecutor(name);
  return Status::OK();
}

// 'ranker' names a scoring function from RankerRegistry. A value matching
// only an executor name keeps the pre-split behavior (executor alias) but
// stamps a deprecation note the server surfaces as a response "warning".
Status ApplyRankerName(const std::string& name, SearchRequest* request) {
  if (RankerRegistry::Global().Contains(name)) {
    request->overrides.WithRanker(name);
    return Status::OK();
  }
  if (ExecutorRegistry::Global().Contains(name) ||
      name == kRemovedParallelExecutor) {
    CIRANK_RETURN_IF_ERROR(ApplyExecutorName(name, "ranker", request));
    AddDeprecationNote(
        request, "field 'ranker' value '" + name +
                     "' names an executor, not a ranker; the executor alias "
                     "is deprecated — use 'executor' to pick the search "
                     "algorithm and 'ranker' to pick the scoring function");
    return Status::OK();
  }
  std::string known;
  for (const std::string& n : RankerRegistry::Global().Names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return Status::InvalidArgument("unknown ranker '" + name +
                                 "'; registered rankers: " + known);
}

}  // namespace

Result<SearchRequest> ParseSearchRequest(std::string_view body) {
  if (body.empty()) {
    return Status::InvalidArgument(
        "empty request body; expected a JSON object with a 'query' field");
  }
  CIRANK_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }

  SearchRequest request;
  bool have_query = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "query") {
      CIRANK_ASSIGN_OR_RETURN(std::string text,
                              StringField(value, "query"));
      CIRANK_ASSIGN_OR_RETURN(request.query, Query::Parse(text));
      if (request.query.empty()) {
        return Status::InvalidArgument(
            "field 'query' contains no usable keywords");
      }
      have_query = true;
    } else if (key == "k") {
      CIRANK_ASSIGN_OR_RETURN(int64_t k,
                              IntegralField(value, "k", 1, 1000000));
      request.overrides.WithK(static_cast<int>(k));
    } else if (key == "max_diameter") {
      CIRANK_ASSIGN_OR_RETURN(int64_t d,
                              IntegralField(value, "max_diameter", 1, 64));
      request.overrides.WithMaxDiameter(static_cast<uint32_t>(d));
    } else if (key == "max_expansions") {
      CIRANK_ASSIGN_OR_RETURN(
          int64_t n, IntegralField(value, "max_expansions", 0, INT64_MAX));
      request.overrides.WithMaxExpansions(n);
    } else if (key == "strict_merge_rule") {
      CIRANK_ASSIGN_OR_RETURN(bool strict,
                              BoolField(value, "strict_merge_rule"));
      request.overrides.WithStrictMergeRule(strict);
    } else if (key == "executor") {
      CIRANK_ASSIGN_OR_RETURN(std::string name,
                              StringField(value, "executor"));
      CIRANK_RETURN_IF_ERROR(ApplyExecutorName(name, "executor", &request));
    } else if (key == "ranker") {
      CIRANK_ASSIGN_OR_RETURN(std::string name, StringField(value, "ranker"));
      CIRANK_RETURN_IF_ERROR(ApplyRankerName(name, &request));
    } else if (key == "order_by") {
      CIRANK_ASSIGN_OR_RETURN(std::string spec,
                              StringField(value, "order_by"));
      // Validate eagerly: a bad spec is a parse-time 400, not a mid-search
      // failure deep inside ExecuteSearch.
      CIRANK_RETURN_IF_ERROR(ParseOrderBy(spec).status());
      request.overrides.WithOrderBy(spec);
    } else if (key == "composite_rwmp_weight" ||
               key == "composite_text_weight") {
      if (!value.is_number() || value.number < 0.0) {
        return Status::InvalidArgument("field '" + key +
                                       "' must be a number >= 0");
      }
      if (key == "composite_rwmp_weight") {
        request.overrides.composite_rwmp_weight = value.number;
      } else {
        request.overrides.composite_text_weight = value.number;
      }
    } else if (key == "num_threads") {
      // Still range-checked, so a value that was a 400 stays one.
      CIRANK_RETURN_IF_ERROR(
          IntegralField(value, "num_threads", 1, 512).status());
      CIRANK_LOG_EVERY_N(Warning, 100)
          << "/search field 'num_threads' is deprecated; ignoring it";
      AddDeprecationNote(&request,
                         "field 'num_threads' is deprecated and ignored; "
                         "each query runs on one thread");
    } else if (key == "deadline_ms") {
      if (!value.is_number() || value.number < 0.0) {
        return Status::InvalidArgument(
            "field 'deadline_ms' must be a number >= 0");
      }
      request.overrides.WithDeadlineMs(value.number);
    } else if (key == "candidate_budget") {
      CIRANK_ASSIGN_OR_RETURN(
          int64_t n, IntegralField(value, "candidate_budget", 0, INT64_MAX));
      request.overrides.WithCandidateBudget(n);
    } else if (key == "shard_parallelism") {
      CIRANK_ASSIGN_OR_RETURN(
          int64_t n, IntegralField(value, "shard_parallelism", 1, 64));
      request.shard_parallelism = static_cast<int>(n);
    } else {
      return Status::InvalidArgument("unknown field '" + key + "'");
    }
  }
  if (!have_query) {
    return Status::InvalidArgument("missing required field 'query'");
  }
  for (size_t i = 0; i < request.query.keywords.size(); ++i) {
    if (i > 0) request.normalized_query += ' ';
    request.normalized_query += request.query.keywords[i];
  }
  return request;
}

std::string RenderAnswersJson(const std::vector<RankedAnswer>& answers,
                              const Graph& graph) {
  std::string out;
  out.push_back('[');
  for (size_t i = 0; i < answers.size(); ++i) {
    if (i > 0) out.push_back(',');
    const RankedAnswer& answer = answers[i];
    out += "{\"score\":";
    AppendJsonNumber(&out, answer.score);
    out += ",\"root\":";
    AppendJsonNumber(&out, static_cast<double>(answer.tree.root()));
    out += ",\"nodes\":[";
    const std::vector<NodeId>& nodes = answer.tree.nodes();
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (j > 0) out.push_back(',');
      AppendJsonNumber(&out, static_cast<double>(nodes[j]));
    }
    out += "],\"edges\":[";
    const auto& edges = answer.tree.edges();
    for (size_t j = 0; j < edges.size(); ++j) {
      if (j > 0) out.push_back(',');
      out.push_back('[');
      AppendJsonNumber(&out, static_cast<double>(edges[j].first));
      out.push_back(',');
      AppendJsonNumber(&out, static_cast<double>(edges[j].second));
      out.push_back(']');
    }
    out += "],\"text\":";
    AppendJsonString(&out, answer.tree.ToString(graph));
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

std::string RenderSearchResponseJson(const SearchRequest& request,
                                     const std::vector<RankedAnswer>& answers,
                                     const SearchStats& stats,
                                     const Graph& graph) {
  std::string out = "{\"query\":";
  AppendJsonString(&out, request.normalized_query);
  if (!request.deprecation_note.empty()) {
    out += ",\"warning\":";
    AppendJsonString(&out, request.deprecation_note);
  }
  out += ",\"answers\":";
  out += RenderAnswersJson(answers, graph);
  out += ",\"stats\":{\"executor\":";
  AppendJsonString(&out, stats.executor);
  out += ",\"ranker\":";
  AppendJsonString(&out, stats.ranker);
  out += ",\"from_cache\":";
  out += stats.from_cache ? "true" : "false";
  out += ",\"truncated\":";
  out += stats.truncated ? "true" : "false";
  out += ",\"proven_optimal\":";
  out += stats.proven_optimal ? "true" : "false";
  out += ",\"popped\":";
  AppendJsonNumber(&out, static_cast<double>(stats.popped));
  out += ",\"generated\":";
  AppendJsonNumber(&out, static_cast<double>(stats.generated));
  out += ",\"answers_found\":";
  AppendJsonNumber(&out, static_cast<double>(stats.answers_found));
  out += ",\"stages\":{\"candidates_generated\":";
  AppendJsonNumber(&out,
                   static_cast<double>(stats.stages.candidates_generated));
  out += ",\"candidates_pruned\":";
  AppendJsonNumber(&out, static_cast<double>(stats.stages.candidates_pruned));
  out += ",\"candidates_merged\":";
  AppendJsonNumber(&out, static_cast<double>(stats.stages.candidates_merged));
  out += ",\"bound_calls\":";
  AppendJsonNumber(&out, static_cast<double>(stats.stages.bound_calls));
  out += ",\"arena_bytes\":";
  AppendJsonNumber(&out, static_cast<double>(stats.stages.arena_bytes));
  out += ",\"prepare_ms\":";
  AppendJsonNumber(&out, stats.stages.prepare_seconds * 1e3);
  out += ",\"expand_ms\":";
  AppendJsonNumber(&out, stats.stages.expand_seconds * 1e3);
  out += ",\"emit_ms\":";
  AppendJsonNumber(&out, stats.stages.emit_seconds * 1e3);
  out += "}}}";
  return out;
}

std::string RenderErrorJson(const Status& status) {
  std::string out = "{\"error\":{\"code\":";
  AppendJsonString(&out, StatusCodeName(status.code()));
  out += ",\"message\":";
  AppendJsonString(&out, status.message());
  out += "}}";
  return out;
}

}  // namespace serve
}  // namespace cirank
