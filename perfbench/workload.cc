#include "workload.h"

#include <algorithm>
#include <set>
#include <utility>

#include "serve/json.h"
#include "util/random.h"

namespace perfbench {

using cirank::LabeledQuery;

WireRequest MakeSearchRequest(const cirank::Query& query) {
  std::string text;
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    if (i > 0) text += ' ';
    text += query.keywords[i];
  }
  std::string body = "{\"query\":";
  cirank::serve::AppendJsonString(&body, text);
  body += ",\"k\":" + std::to_string(kTopK) + "}";
  WireRequest request;
  request.bytes =
      "POST /search HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";
  request.head_size = request.bytes.size();
  request.bytes += body;
  return request;
}

std::string NormalizedKey(const cirank::Query& query) {
  std::vector<std::string> words = query.keywords;
  std::sort(words.begin(), words.end());
  std::string key;
  for (const std::string& w : words) key += w + ' ';
  return key;
}

namespace {

// Orders the distinct queries so that every prefix holds the query kinds in
// the list's overall proportions (kinds shuffled internally by the seed).
// A timed window completes a prefix, so this keeps its kind mix fixed.
std::vector<uint32_t> StratifiedOrder(const std::vector<LabeledQuery>& queries,
                                      cirank::Rng* rng) {
  std::vector<std::vector<uint32_t>> by_kind(4);
  for (uint32_t i = 0; i < queries.size(); ++i) {
    by_kind[static_cast<size_t>(queries[i].kind)].push_back(i);
  }
  for (auto& ids : by_kind) rng->Shuffle(&ids);
  std::vector<size_t> taken(by_kind.size(), 0);
  std::vector<uint32_t> order;
  order.reserve(queries.size());
  while (order.size() < queries.size()) {
    // The kind furthest behind its share of the prefix goes next.
    size_t best = by_kind.size();
    double best_share = 0.0;
    for (size_t k = 0; k < by_kind.size(); ++k) {
      if (taken[k] == by_kind[k].size()) continue;
      const double share = (static_cast<double>(taken[k]) + 0.5) /
                           static_cast<double>(by_kind[k].size());
      if (best == by_kind.size() || share < best_share) {
        best = k;
        best_share = share;
      }
    }
    order.push_back(by_kind[best][taken[best]++]);
  }
  return order;
}

}  // namespace

cirank::Result<WorkloadInput> MakeWorkloadInput(const WorkloadConfig& config,
                                                const cirank::Dataset& dataset,
                                                uint64_t seed) {
  cirank::QueryGenOptions gen;
  gen.num_queries = config.generated_queries;
  gen.user_log_style = config.mix == QueryMix::kUserLog;
  gen.ambiguous_prob = kAmbiguousProb;
  // Salted per workload so the three streams never share a query draw.
  uint64_t salt = 1469598103934665603ULL;  // FNV-1a of the workload name
  for (char c : config.name) {
    salt = (salt ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  gen.seed = seed * 1000003u + salt % 997u;
  CIRANK_ASSIGN_OR_RETURN(std::vector<LabeledQuery> generated,
                          cirank::GenerateQueries(dataset, gen));
  cirank::Rng rng(gen.seed ^ 0x9e3779b97f4a7c15ULL);
  WorkloadInput input;
  std::set<std::string> seen;
  for (LabeledQuery& lq : generated) {
    if (lq.query.empty()) continue;
    if (!seen.insert(NormalizedKey(lq.query)).second) continue;
    input.queries.push_back(std::move(lq));
  }
  if (input.queries.empty()) {
    return cirank::Status::Internal("no distinct queries generated");
  }

  const std::vector<uint32_t> order = StratifiedOrder(input.queries, &rng);
  if (config.shape == StreamShape::kEachOnce) {
    for (uint32_t q : order) input.stream.push_back({q, false});
  } else {
    // Zipf rank r maps to the r-th query of the seeded order, so which
    // queries are popular also follows the seed.
    cirank::ZipfSampler zipf(order.size(), kZipfExponent);
    input.stream.reserve(config.stream_length);
    for (size_t i = 0; i < config.stream_length; ++i) {
      StreamEntry e;
      e.query = order[zipf.Sample(&rng)];
      e.click_after = config.click_interval > 0 &&
                      (i + 1) % static_cast<size_t>(config.click_interval) == 0;
      input.stream.push_back(e);
    }
  }
  if (config.warm_set) {
    for (uint32_t q = 0; q < input.queries.size(); ++q) {
      input.warmup.push_back({q, false});
    }
  }
  input.requests.reserve(input.queries.size());
  for (const LabeledQuery& lq : input.queries) {
    input.requests.push_back(MakeSearchRequest(lq.query));
  }
  return input;
}

}  // namespace perfbench
