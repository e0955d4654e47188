// Serving-layer tests for sharded scatter-gather (DESIGN.md §16): a
// CirankServer over a four-shard ShardedEngine must serve the same answer
// bytes as a direct sharded search (and, transitively via the sharded
// differential gate, the same bytes as one shard), honor the /search
// `shard_parallelism` field with a structured 400 for bad values, and
// expose the plan through /debug/shardz and the statusz sharding section.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "shard/sharded_engine.h"
#include "tests/test_util.h"
#include "util/status.h"

namespace cirank {
namespace {

using testing_util::MakeServingHarness;
using testing_util::ServingHarness;
using testing_util::ServingHarnessDiagnostics;

// Unwraps a Result in a test body with a readable failure.
#define ASSERT_OK_AND_MOVE(lhs, rexpr)                     \
  auto lhs##_result = (rexpr);                             \
  ASSERT_TRUE(lhs##_result.ok())                           \
      << lhs##_result.status().ToString();                 \
  auto lhs = std::move(lhs##_result).value()

// Reads one unlabeled gauge from a /metrics scrape; -1 when absent.
double ScrapeGauge(ServingHarness& h, const std::string& family) {
  auto response = h.RoundTrip("GET", "/metrics");
  if (!response.ok()) return -1.0;
  const std::string needle = "\n" + family + " ";
  const size_t at = response->body.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::stod(response->body.substr(at + needle.size()));
}

std::unique_ptr<ServingHarness> MakeShardedHarness(size_t cache_capacity = 0) {
  return MakeServingHarness(/*seed=*/11, /*num_nodes=*/150, cache_capacity,
                            /*num_workers=*/4, ServingHarnessDiagnostics{},
                            /*num_shards=*/4, /*partitioner=*/"hash");
}

TEST(ServingShardTest, SearchOverFourShardsMatchesDirectEngineByteForByte) {
  // Cache disabled on both sides so HTTP and the references all compute
  // fresh; byte equality then certifies parse → scatter → merge → render.
  auto h = MakeShardedHarness(/*cache_capacity=*/0);
  ASSERT_EQ(h->sharded->num_shards(), 4u);

  const std::string body = "{\"query\":\"kw0 kw1\",\"k\":4}";
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(response.status_code, 200) << response.body;

  // Reference 1: the raw single-graph engine — the serving path must not
  // change ranking no matter how many shards sit in between.
  Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(direct,
                     h->engine->Search(query, SearchOverrides().WithK(4)));
  ASSERT_FALSE(direct.empty());
  const std::string rendered =
      "\"answers\":" + serve::RenderAnswersJson(direct, h->graph);
  EXPECT_NE(response.body.find(rendered), std::string::npos)
      << "HTTP answers over 4 shards differ from the single-graph engine.\n"
      << "HTTP:   " << response.body << "\nDirect: " << rendered;

  // Reference 2: the sharded facade the server actually fronts.
  SearchStats stats;
  shard::ShardedSearchStats shard_stats;
  ASSERT_OK_AND_MOVE(merged, h->sharded->Search(query,
                                                SearchOverrides().WithK(4),
                                                &stats, &shard_stats));
  EXPECT_NE(response.body.find("\"answers\":" +
                               serve::RenderAnswersJson(merged, h->graph)),
            std::string::npos);
}

TEST(ServingShardTest, ShardParallelismFieldIsAcceptedAndPureScheduling) {
  auto h = MakeShardedHarness(/*cache_capacity=*/0);
  std::string reference;
  for (int width : {1, 2, 4}) {
    const std::string body = "{\"query\":\"kw0 kw1\",\"k\":4,"
                             "\"shard_parallelism\":" +
                             std::to_string(width) + "}";
    ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
    ASSERT_EQ(response.status_code, 200)
        << "width " << width << ": " << response.body;
    ASSERT_OK_AND_MOVE(doc, serve::ParseJson(response.body));
    const serve::JsonValue* answers = doc.Find("answers");
    ASSERT_NE(answers, nullptr);
    const std::string fragment =
        "\"answers\":" + serve::RenderAnswersJson(
                             [&] {
                               Query q = Query::MustParse("kw0 kw1");
                               auto r = h->sharded->Search(
                                   q, SearchOverrides().WithK(4), nullptr,
                                   nullptr, width);
                               CIRANK_CHECK_OK(r.status());
                               return *std::move(r);
                             }(),
                             h->graph);
    if (reference.empty()) reference = fragment;
    EXPECT_EQ(fragment, reference) << "fan-out width changed answer bytes";
    EXPECT_NE(response.body.find(fragment), std::string::npos)
        << "width " << width;
  }
}

TEST(ServingShardTest, BadShardParallelismIsStructured400) {
  auto h = MakeShardedHarness();
  const char* bad_bodies[] = {
      "{\"query\":\"kw0\",\"shard_parallelism\":0}",
      "{\"query\":\"kw0\",\"shard_parallelism\":65}",
      "{\"query\":\"kw0\",\"shard_parallelism\":1.5}",
      "{\"query\":\"kw0\",\"shard_parallelism\":\"fast\"}",
  };
  for (const char* body : bad_bodies) {
    ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
    EXPECT_EQ(response.status_code, 400) << body << " -> " << response.body;
    EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
              std::string::npos)
        << body << " -> " << response.body;
    EXPECT_NE(response.body.find("shard_parallelism"), std::string::npos)
        << "the error must name the offending field: " << response.body;
  }
}

TEST(ServingShardTest, DebugShardzExposesThePlan) {
  auto h = MakeShardedHarness(/*cache_capacity=*/16);
  // One cached round trip so the cache section has signal.
  ASSERT_OK_AND_MOVE(warm1, h->RoundTrip("POST", "/search",
                                         "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(warm1.status_code, 200);
  ASSERT_OK_AND_MOVE(warm2, h->RoundTrip("POST", "/search",
                                         "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(warm2.status_code, 200);

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/debug/shardz"));
  ASSERT_EQ(response.status_code, 200) << response.body;
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(response.body));
  EXPECT_EQ(doc.Find("shard_count")->number, 4.0);
  EXPECT_EQ(doc.Find("partitioner")->string, "hash");
  EXPECT_EQ(doc.Find("scope_radius")->number,
            static_cast<double>(h->sharded->plan().scope_radius()));
  EXPECT_EQ(doc.Find("graph_nodes")->number,
            static_cast<double>(h->graph.num_nodes()));

  const serve::JsonValue* shards = doc.Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->array.size(), 4u);
  double owned_total = 0.0;
  for (size_t s = 0; s < shards->array.size(); ++s) {
    const serve::JsonValue& entry = shards->array[s];
    EXPECT_EQ(entry.Find("shard")->number, static_cast<double>(s));
    const double owned = entry.Find("owned_nodes")->number;
    const double scope = entry.Find("scope_nodes")->number;
    EXPECT_GE(scope, owned);
    EXPECT_GE(entry.Find("scope_edges")->number, 0.0);
    owned_total += owned;
  }
  EXPECT_EQ(owned_total, static_cast<double>(h->graph.num_nodes()))
      << "ownership must partition the graph";

  const serve::JsonValue* cache = doc.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->Find("hits")->number, 1.0) << response.body;
  EXPECT_GE(cache->Find("misses")->number, 1.0);
  EXPECT_GE(cache->Find("entries")->number, 1.0);

  // Like every debug endpoint, GET-only.
  ASSERT_OK_AND_MOVE(post, h->RoundTrip("POST", "/debug/shardz", "{}"));
  EXPECT_EQ(post.status_code, 405);
}

TEST(ServingShardTest, StatuszShardingSectionReflectsTheFourShardPlan) {
  auto h = MakeShardedHarness();
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/debug/statusz"));
  ASSERT_EQ(response.status_code, 200);
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(response.body));
  const serve::JsonValue* sharding = doc.Find("sharding");
  ASSERT_NE(sharding, nullptr) << response.body;
  EXPECT_EQ(sharding->Find("shard_count")->number, 4.0);
  EXPECT_EQ(sharding->Find("partitioner")->string, "hash");
  EXPECT_EQ(sharding->Find("shards")->array.size(), 4u);
}

TEST(ServingShardTest, ShardMetricFamiliesAreExported) {
  auto h = MakeShardedHarness();
  ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search",
                                          "{\"query\":\"kw0 kw1\",\"k\":3}"));
  ASSERT_EQ(search.status_code, 200) << search.body;

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/metrics"));
  ASSERT_EQ(response.status_code, 200);
  // The families the CI smoke greps for (prefix cirank_shard_).
  for (const char* family :
       {"cirank_shard_queries_total", "cirank_shard_count",
        "cirank_shard_searches_total{shard=\"0\"}",
        "cirank_shard_searches_total{shard=\"3\"}",
        "cirank_shard_owned_nodes{shard=\"0\"}",
        "cirank_shard_scope_nodes{shard=\"0\"}",
        "cirank_shard_query_seconds", "cirank_shard_cache_entries"}) {
    EXPECT_NE(response.body.find(family), std::string::npos)
        << "missing metric family " << family;
  }
}

TEST(ServingShardTest, FeedbackThroughServerInvalidatesMergedCache) {
  auto h = MakeShardedHarness(/*cache_capacity=*/16);
  const std::string body = "{\"query\":\"kw0 kw1\",\"k\":3}";
  ASSERT_OK_AND_MOVE(first, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(first.status_code, 200);
  ASSERT_OK_AND_MOVE(second, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(second.status_code, 200);
  ASSERT_GE(h->sharded->cache_stats().hits, 1u);

  // Clicking through the facade — the documented route for anything that
  // serves through a ShardedEngine — clears the merged-result cache.
  ASSERT_TRUE(h->sharded->RecordClick(0).ok());
  EXPECT_EQ(h->sharded->cache_stats().entries, 0u);
}

// /search memoizes through the facade's merged-result cache, not the
// engine's, so the facade's own entry gauge is what a scrape must report:
// equal to cache_stats().entries after searches and after a click. The
// gauge is scraped before cache_stats() runs, which also refreshes it.
TEST(ServingShardTest, MergedCacheEntryGaugeMatchesCacheStats) {
  auto h = MakeShardedHarness(/*cache_capacity=*/16);
  for (const char* body : {"{\"query\":\"kw0\",\"k\":2}",
                           "{\"query\":\"kw0 kw1\",\"k\":3}",
                           "{\"query\":\"kw0\",\"k\":2}"}) {
    ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search", body));
    ASSERT_EQ(search.status_code, 200) << search.body;
  }
  const double after_searches = ScrapeGauge(*h, "cirank_shard_cache_entries");
  EXPECT_EQ(after_searches,
            static_cast<double>(h->sharded->cache_stats().entries));
  EXPECT_EQ(after_searches, 2.0);

  ASSERT_TRUE(h->sharded->RecordClick(0).ok());
  const double after_click = ScrapeGauge(*h, "cirank_shard_cache_entries");
  EXPECT_EQ(after_click,
            static_cast<double>(h->sharded->cache_stats().entries));
  EXPECT_EQ(after_click, 0.0);
}

}  // namespace
}  // namespace cirank
