// The `/search` JSON query DSL (DESIGN.md §13): a thin, strict mapping from
// a request body like
//
//   {"query": "tom hanks", "k": 5, "executor": "bnb", "deadline_ms": 50}
//
// onto the fluent SearchOverrides builder from core/options.h, plus the
// response/error renderers the server emits. Everything here is pure —
// bytes in, Result/string out — so the request parser is property-tested
// with random and mutated inputs without a socket in sight, and the
// differential serving test can render a direct CiRankEngine::Search result
// through the very same functions the daemon uses (byte-identical by
// construction, then verified).
//
// Accepted fields (unknown fields are InvalidArgument — a typo'd knob must
// not silently fall back to defaults):
//   query            string, required; parsed by Query::Parse (the
//                    31-keyword limit surfaces here as a 400)
//   k                integer >= 1
//   max_diameter     integer in [1, 64]
//   max_expansions   integer >= 0 (0 = unlimited)
//   strict_merge_rule bool
//   executor         string naming a registered SearchExecutor
//   ranker           string naming a registered Ranker (scoring function,
//                    e.g. "rwmp", "rwmp_x_text"); for backward
//                    compatibility a value matching only an *executor* name
//                    is still accepted as an executor alias, with a
//                    deprecation note in the response's "warning" field
//   order_by         string: comma-separated "field [asc|desc]" keys over
//                    the selected top-k (fields: score, root, external_key,
//                    relation, size, text); validated at parse time
//   composite_rwmp_weight   number >= 0 (rwmp_x_text mixing weight)
//   composite_text_weight   number >= 0 (rwmp_x_text mixing weight)
//   num_threads      integer in [1, 512]; deprecated and ignored, with a
//                    "warning" (it sized the removed "parallel" executor,
//                    whose name is still accepted as an alias of "bnb")
//   deadline_ms      number >= 0 (0 = none)
//   candidate_budget integer >= 0 (0 = unlimited)
//   shard_parallelism integer in [1, 64]: per-query scatter fan-out width
//                    for sharded serving (DESIGN.md §16); never affects
//                    results, only scheduling. Ignored at num_shards = 1.
#ifndef CIRANK_SERVE_REQUEST_H_
#define CIRANK_SERVE_REQUEST_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/execution.h"
#include "core/options.h"
#include "graph/graph.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace cirank {
namespace serve {

struct SearchRequest {
  Query query;
  SearchOverrides overrides;
  // The normalized keyword string echoed back in the response envelope.
  std::string normalized_query;
  // Non-empty when the request used a deprecated spelling (e.g. 'ranker'
  // naming an executor, or 'num_threads'); echoed as the response's
  // top-level "warning", several notes joined by "; ".
  std::string deprecation_note;
  // Scatter fan-out width for sharded serving; 0 = server default. Not a
  // SearchOverrides field — it configures the scatter layer above the
  // engine, not the search itself.
  int shard_parallelism = 0;
};

// Parses and validates one `/search` request body. Every failure is an
// InvalidArgument whose message names the offending field; executor/ranker
// names are checked against ExecutorRegistry::Global() so an unknown name
// is a parse-time 400, not a mid-search failure.
[[nodiscard]] Result<SearchRequest> ParseSearchRequest(std::string_view body);

// Renders the answers array exactly as the server's /search envelope embeds
// it: [{"score":...,"root":...,"nodes":[...],"edges":[[p,c],...],
// "text":"..."}]. The differential test compares this rendering of a direct
// engine Search against the bytes served over HTTP.
std::string RenderAnswersJson(const std::vector<RankedAnswer>& answers,
                              const Graph& graph);

// The full 200 envelope: {"query":...,"answers":[...],"stats":{...}} with
// SearchStats (from_cache / truncated / executor / per-stage counters and
// timings) serialized under "stats".
std::string RenderSearchResponseJson(const SearchRequest& request,
                                     const std::vector<RankedAnswer>& answers,
                                     const SearchStats& stats,
                                     const Graph& graph);

// The error envelope every non-2xx response carries:
// {"error":{"code":"INVALID_ARGUMENT","message":"..."}}. The code string is
// StatusCodeName(status.code()) — machine-matchable, unlike the prose.
std::string RenderErrorJson(const Status& status);

}  // namespace serve
}  // namespace cirank

#endif  // CIRANK_SERVE_REQUEST_H_
