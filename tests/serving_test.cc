// Integration tests for the serving stack (DESIGN.md §13): an in-process
// CirankServer on an ephemeral port, driven with the blocking HTTP client.
// The headline assertion is differential: the answer bytes served over
// HTTP must equal a direct CiRankEngine search rendered through the same
// RenderAnswersJson — the daemon adds transport, never ranking changes.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/log.h"
#include "obs/request_context.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "shard/sharded_engine.h"
#include "test_util.h"
#include "util/status.h"
#include "util/version.h"

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

// The "answers" member of a /search response body, byte for byte.
std::string AnswersOf(const std::string& body) {
  const size_t begin = body.find("\"answers\":");
  const size_t end = body.find(",\"stats\":");
  EXPECT_NE(begin, std::string::npos) << body;
  EXPECT_NE(end, std::string::npos) << body;
  return body.substr(begin, end - begin);
}

TEST(ServingTest, SearchMatchesDirectEngineByteForByte) {
  // Cache disabled: both sides must independently compute — byte equality
  // then certifies the whole parse → search → render path, not memoization.
  auto h = MakeServingHarness(/*seed=*/11, /*num_nodes=*/150,
                              /*cache_capacity=*/0);

  const std::string body = "{\"query\":\"kw0 kw1\",\"k\":4}";
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(response.status_code, 200) << response.body;

  Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(direct,
                     h->engine->Search(query, SearchOverrides().WithK(4)));
  ASSERT_FALSE(direct.empty());
  const std::string rendered =
      "\"answers\":" + serve::RenderAnswersJson(direct, h->graph);
  EXPECT_NE(response.body.find(rendered), std::string::npos)
      << "HTTP answers differ from direct engine answers.\nHTTP:   "
      << response.body << "\nDirect: " << rendered;
}

TEST(ServingTest, HealthzReportsOk) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/healthz"));
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "{\"status\":\"ok\"}");
}

TEST(ServingTest, MetricsServesPrometheusFamilies) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search",
                                          "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(search.status_code, 200) << search.body;

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/metrics"));
  EXPECT_EQ(response.status_code, 200);
  const std::string* content_type = response.FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  // Engine families and the server's own, with the search above counted.
  EXPECT_NE(response.body.find("cirank_engine_queries_total"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "cirank_http_requests_total{endpoint=\"search\"} 1"),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("cirank_http_request_seconds"),
            std::string::npos);
  // The body is the registry's own rendering, verbatim — check a line the
  // registry formats, not just a family name. (Exact body equality against
  // a later RenderPrometheus() would race: the served snapshot predates its
  // own response counters ticking.)
  EXPECT_NE(response.body.find("# TYPE cirank_http_requests_total counter"),
            std::string::npos);
}

TEST(ServingTest, MalformedJsonIs400WithErrorCode) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", "{nope"));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"message\":"), std::string::npos);
}

TEST(ServingTest, UnknownExecutorIs400) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(
      response, h->RoundTrip("POST", "/search",
                             "{\"query\":\"kw0\",\"executor\":\"warp\"}"));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos);
  EXPECT_NE(response.body.find("unknown executor 'warp'"), std::string::npos)
      << response.body;
}

// Acceptance for the ranker/executor split: a composite ranker plus a
// multi-key order_by requested over HTTP must match the direct engine
// byte-for-byte, and the stats envelope must name the ranker that scored.
TEST(ServingTest, CompositeRankerWithOrderByMatchesDirectEngine) {
  auto h = MakeServingHarness(/*seed=*/11, /*num_nodes=*/150,
                              /*cache_capacity=*/0);
  const std::string body =
      "{\"query\":\"kw0 kw1\",\"k\":5,\"ranker\":\"rwmp_x_text\","
      "\"order_by\":\"score desc, size asc, root asc\"}";
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"ranker\":\"rwmp_x_text\""),
            std::string::npos)
      << response.body;
  // A real ranker name is not the deprecated executor alias: no warning.
  EXPECT_EQ(response.body.find("\"warning\":"), std::string::npos)
      << response.body;

  Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(
      direct,
      h->engine->Search(query, SearchOverrides()
                                   .WithK(5)
                                   .WithRanker("rwmp_x_text")
                                   .WithOrderBy("score desc, size asc, "
                                                "root asc")));
  ASSERT_FALSE(direct.empty());
  const std::string rendered =
      "\"answers\":" + serve::RenderAnswersJson(direct, h->graph);
  EXPECT_NE(response.body.find(rendered), std::string::npos)
      << "HTTP composite answers differ from direct engine.\nHTTP:   "
      << response.body << "\nDirect: " << rendered;
}

// Composite with the text term weighted to zero is exactly RWMP: the
// served answer bytes must equal a plain default-ranker request.
TEST(ServingTest, CompositeWithZeroTextWeightEqualsPureRwmp) {
  auto h = MakeServingHarness(/*seed=*/11, /*num_nodes=*/150,
                              /*cache_capacity=*/0);
  ASSERT_OK_AND_MOVE(plain, h->RoundTrip("POST", "/search",
                                         "{\"query\":\"kw0 kw1\",\"k\":5}"));
  ASSERT_EQ(plain.status_code, 200) << plain.body;
  ASSERT_OK_AND_MOVE(
      composite,
      h->RoundTrip("POST", "/search",
                   "{\"query\":\"kw0 kw1\",\"k\":5,"
                   "\"ranker\":\"rwmp_x_text\","
                   "\"composite_rwmp_weight\":1.0,"
                   "\"composite_text_weight\":0.0}"));
  ASSERT_EQ(composite.status_code, 200) << composite.body;
  EXPECT_EQ(AnswersOf(plain.body), AnswersOf(composite.body));
}

// Pre-split clients sent executor names through 'ranker'; the alias still
// works but the response carries a deprecation warning.
TEST(ServingTest, ExecutorAliasInRankerFieldWarnsButWorks) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(
      response, h->RoundTrip("POST", "/search",
                             "{\"query\":\"kw0\",\"k\":3,"
                             "\"ranker\":\"bnb\"}"));
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"warning\":"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("deprecated"), std::string::npos);
  EXPECT_NE(response.body.find("\"executor\":\"bnb\""), std::string::npos)
      << response.body;
}

// The removed intra-query executor's spellings stay accepted for one
// release: "parallel" runs "bnb" and `num_threads` is ignored, each with a
// note in the response's "warning". The answers are the plain request's,
// and the thread count no longer gives a request a cache entry of its own.
TEST(ServingTest, RemovedParallelExecutorAndNumThreadsWarnButWork) {
  auto h = MakeServingHarness(/*seed=*/5, /*num_nodes=*/120,
                              /*cache_capacity=*/64);
  const auto deprecated_body = [](int threads) {
    return "{\"query\":\"kw0 kw1\",\"k\":3,\"executor\":\"parallel\","
           "\"num_threads\":" +
           std::to_string(threads) + "}";
  };
  ASSERT_OK_AND_MOVE(deprecated,
                     h->RoundTrip("POST", "/search", deprecated_body(4)));
  ASSERT_EQ(deprecated.status_code, 200) << deprecated.body;
  EXPECT_NE(deprecated.body.find("\"executor\":\"bnb\""), std::string::npos)
      << deprecated.body;
  EXPECT_NE(deprecated.body.find("\"from_cache\":false"), std::string::npos)
      << deprecated.body;
  const size_t warning = deprecated.body.find("\"warning\":");
  EXPECT_NE(warning, std::string::npos) << deprecated.body;
  EXPECT_NE(deprecated.body.find("'executor'", warning), std::string::npos)
      << deprecated.body;
  EXPECT_NE(deprecated.body.find("'num_threads'", warning), std::string::npos)
      << deprecated.body;

  // Computed fresh, outside every cache.
  const Query query = Query::MustParse("kw0 kw1");
  ASSERT_OK_AND_MOVE(
      direct, h->engine->Search(query, h->engine->EffectiveOptions(
                                           SearchOverrides().WithK(3))));
  EXPECT_EQ(AnswersOf(deprecated.body),
            "\"answers\":" + serve::RenderAnswersJson(direct, h->graph));

  ASSERT_OK_AND_MOVE(plain, h->RoundTrip("POST", "/search",
                                         "{\"query\":\"kw0 kw1\",\"k\":3}"));
  ASSERT_EQ(plain.status_code, 200) << plain.body;
  EXPECT_EQ(AnswersOf(plain.body), AnswersOf(deprecated.body));
  EXPECT_EQ(plain.body.find("\"warning\":"), std::string::npos) << plain.body;

  ASSERT_OK_AND_MOVE(other_count,
                     h->RoundTrip("POST", "/search", deprecated_body(2)));
  ASSERT_EQ(other_count.status_code, 200) << other_count.body;
  EXPECT_NE(other_count.body.find("\"from_cache\":true"), std::string::npos)
      << other_count.body;
  EXPECT_EQ(AnswersOf(other_count.body), AnswersOf(deprecated.body));
}

TEST(ServingTest, UnknownRankerIs400ListingRegistered) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(response,
                     h->RoundTrip("POST", "/search",
                                  "{\"query\":\"kw0\",\"ranker\":\"zeta\"}"));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos);
  EXPECT_NE(response.body.find("unknown ranker 'zeta'"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("rwmp_x_text"), std::string::npos)
      << "the 400 should list the registered rankers: " << response.body;
}

TEST(ServingTest, MalformedOrderByIs400AtParseTime) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(
      response, h->RoundTrip("POST", "/search",
                             "{\"query\":\"kw0\","
                             "\"order_by\":\"score sideways\"}"));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos)
      << response.body;
}

TEST(ServingTest, UnknownFieldIs400) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(response,
                     h->RoundTrip("POST", "/search",
                                  "{\"query\":\"kw0\",\"topk\":3}"));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("unknown field 'topk'"), std::string::npos)
      << response.body;
}

// Regression: the 31-keyword mask limit must surface through HTTP as a
// structured 400, not a 500 or a crash.
TEST(ServingTest, KeywordLimitSurfacesAs400ThroughHttp) {
  auto h = MakeServingHarness();
  std::string query;
  for (int i = 0; i < 32; ++i) {
    if (i > 0) query += ' ';
    query += "unique" + std::to_string(i);
  }
  std::string body = "{\"query\":";
  serve::AppendJsonString(&body, query);
  body += "}";
  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search", body));
  EXPECT_EQ(response.status_code, 400);
  EXPECT_NE(response.body.find("\"code\":\"INVALID_ARGUMENT\""),
            std::string::npos);
  EXPECT_NE(response.body.find("32 distinct keywords"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("at most 31"), std::string::npos);
}

TEST(ServingTest, UnknownRouteIs404AndWrongMethodIs405) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(missing, h->RoundTrip("GET", "/bogus"));
  EXPECT_EQ(missing.status_code, 404);
  EXPECT_NE(missing.body.find("\"code\":\"NOT_FOUND\""), std::string::npos);

  ASSERT_OK_AND_MOVE(get_search, h->RoundTrip("GET", "/search"));
  EXPECT_EQ(get_search.status_code, 405);

  ASSERT_OK_AND_MOVE(post_healthz, h->RoundTrip("POST", "/healthz", "{}"));
  EXPECT_EQ(post_healthz.status_code, 405);
}

TEST(ServingTest, RepeatQueryIsServedFromCache) {
  auto h = MakeServingHarness(/*seed=*/5, /*num_nodes=*/120,
                              /*cache_capacity=*/64);
  const std::string body = "{\"query\":\"kw0 kw1\",\"k\":3}";
  ASSERT_OK_AND_MOVE(first, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(first.status_code, 200) << first.body;
  EXPECT_NE(first.body.find("\"from_cache\":false"), std::string::npos);

  ASSERT_OK_AND_MOVE(second, h->RoundTrip("POST", "/search", body));
  ASSERT_EQ(second.status_code, 200) << second.body;
  EXPECT_NE(second.body.find("\"from_cache\":true"), std::string::npos)
      << second.body;
}

TEST(ServingTest, MalformedHttpFramingClosesWithResponse) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(client, serve::HttpBlockingClient::Connect(
                                 "127.0.0.1", h->port()));
  CIRANK_CHECK_OK(client.SendRaw("BROKEN REQUEST\r\n\r\n"));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
  const std::string* connection = response->FindHeader("Connection");
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close");
}

// Graceful drain: a query in flight when Stop() is called completes and
// its response reaches the client before Stop returns.
TEST(ServingTest, StopDrainsInFlightQuery) {
  auto h = MakeServingHarness(/*seed=*/3, /*num_nodes=*/200);
  ASSERT_OK_AND_MOVE(client, serve::HttpBlockingClient::Connect(
                                 "127.0.0.1", h->port()));
  // A deadline-bounded query occupies the engine for ~the deadline, giving
  // Stop something genuinely in flight to wait for.
  const std::string body =
      "{\"query\":\"kw0 kw1 kw2\",\"deadline_ms\":400}";
  std::string request = "POST /search HTTP/1.1\r\nHost: t\r\n";
  request += "Content-Type: application/json\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  CIRANK_CHECK_OK(client.SendRaw(request));

  // The engine counts the query before executing it; once the counter
  // ticks, the request is provably mid-flight inside the handler.
  obs::Counter& queries =
      h->metrics.GetCounter("cirank_engine_queries_total");
  while (queries.Value() == 0) {
  }

  h->server->Stop();
  serve::ServerStats stats = h->server->stats();
  EXPECT_TRUE(stats.stopping);
  EXPECT_EQ(stats.active_connections, 0);
  EXPECT_EQ(stats.requests_served, 1);

  // The response was flushed before Stop returned; the read drains it from
  // the socket buffer even though the server is down.
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 200);
  const std::string* connection = response->FindHeader("Connection");
  ASSERT_NE(connection, nullptr);
  EXPECT_EQ(*connection, "close") << "drain must force connection close";

  // New connections are refused service after Stop.
  auto late = h->RoundTrip("GET", "/healthz");
  EXPECT_FALSE(late.ok());
}

TEST(ServingTest, StopIsIdempotent) {
  auto h = MakeServingHarness();
  h->server->Stop();
  h->server->Stop();
  EXPECT_TRUE(h->server->stats().stopping);
}

// --- Request-scoped diagnostics (DESIGN.md §14) ----------------------------

// RAII guard: captures log lines through a test sink and restores the
// process-wide logger afterwards (other suites share Logger::Default()).
class CapturedLog {
 public:
  CapturedLog() {
    saved_level_ = obs::Logger::Default().level();
    saved_format_ = obs::Logger::Default().format();
    obs::Logger::Default().set_level(obs::LogLevel::kInfo);
    obs::Logger::Default().set_format(obs::LogFormat::kText);
    obs::Logger::Default().SetSink(
        [this](const std::string& line, const obs::LogEntry&) {
          lines_.push_back(line);
        });
  }
  ~CapturedLog() {
    obs::Logger::Default().SetSink(nullptr);
    obs::Logger::Default().set_level(saved_level_);
    obs::Logger::Default().set_format(saved_format_);
  }

  // The sink serializes under the logger's mutex; reading after the server
  // responded is race-free for these single-request tests.
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
  obs::LogLevel saved_level_;
  obs::LogFormat saved_format_;
};

TEST(ServingDiagnosticsTest, MetricsJsonAgreesWithPrometheus) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search",
                                          "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(search.status_code, 200) << search.body;

  ASSERT_OK_AND_MOVE(prom, h->RoundTrip("GET", "/metrics"));
  ASSERT_EQ(prom.status_code, 200);
  ASSERT_OK_AND_MOVE(json, h->RoundTrip("GET", "/metrics?format=json"));
  ASSERT_EQ(json.status_code, 200);
  const std::string* content_type = json.FindHeader("Content-Type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("application/json"), std::string::npos);

  // Both renderings must agree on the one counter whose value cannot have
  // moved between the scrapes: the search endpoint was hit exactly once.
  const std::string search_counter =
      "cirank_http_requests_total{endpoint=\"search\"}";
  EXPECT_NE(prom.body.find(search_counter + " 1"), std::string::npos)
      << prom.body;
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(json.body));
  const serve::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const serve::JsonValue* counter = counters->Find(search_counter);
  ASSERT_NE(counter, nullptr) << json.body;
  EXPECT_EQ(counter->number, 1.0);

  // The build-info / uptime families (satellite 2) show up in both.
  const std::string build_info =
      std::string("cirank_build_info{version=\"") + kCirankVersion + "\"}";
  EXPECT_NE(prom.body.find(build_info + " 1"), std::string::npos)
      << prom.body;
  const serve::JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const serve::JsonValue* build_gauge = gauges->Find(build_info);
  ASSERT_NE(build_gauge, nullptr);
  EXPECT_EQ(build_gauge->number, 1.0);
  const serve::JsonValue* uptime = gauges->Find("cirank_uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->number, 0.0);

  ASSERT_OK_AND_MOVE(bad, h->RoundTrip("GET", "/metrics?format=xml"));
  EXPECT_EQ(bad.status_code, 400) << bad.body;
}

// The headline e2e assertion: one /search produces a trace id that joins
// the response header, /debug/requestz, the slow-query log line, and the
// Chrome trace dump.
TEST(ServingDiagnosticsTest, TraceIdCorrelatesHeaderRequestzLogAndTrace) {
  CapturedLog log;
  ServingHarnessDiagnostics diag;
  diag.enable_trace = true;
  diag.request_log_capacity = 16;
  diag.slow_query_ms = 0.0;  // flag every query as slow
  auto h = MakeServingHarness(/*seed=*/7, /*num_nodes=*/120,
                              /*cache_capacity=*/64, /*num_workers=*/2, diag);

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("POST", "/search",
                                            "{\"query\":\"kw0 kw1\",\"k\":3}"));
  ASSERT_EQ(response.status_code, 200) << response.body;
  const std::string* header = response.FindHeader("x-cirank-trace-id");
  ASSERT_NE(header, nullptr) << "every /search response carries the id";
  uint64_t trace_id = 0;
  ASSERT_TRUE(obs::ParseTraceId(*header, &trace_id)) << *header;
  const std::string hex = obs::FormatTraceId(trace_id);

  // /debug/requestz shows the request, flagged slow, under the same id.
  ASSERT_OK_AND_MOVE(requestz, h->RoundTrip("GET", "/debug/requestz"));
  ASSERT_EQ(requestz.status_code, 200);
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(requestz.body));
  const serve::JsonValue* requests = doc.Find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_EQ(requests->array.size(), 1u) << requestz.body;
  const serve::JsonValue& record = requests->array[0];
  ASSERT_NE(record.Find("trace_id"), nullptr);
  EXPECT_EQ(record.Find("trace_id")->string, hex);
  EXPECT_TRUE(record.Find("slow")->bool_value) << requestz.body;
  EXPECT_EQ(record.Find("query")->string, "kw0 kw1");
  EXPECT_EQ(record.Find("status")->number, 200.0);
  ASSERT_NE(record.Find("stages"), nullptr);

  // The slow-query log line carries the same id via the thread scope.
  bool found_in_log = false;
  for (const std::string& line : log.lines()) {
    if (line.find("slow query") != std::string::npos &&
        line.find("trace=" + hex) != std::string::npos) {
      found_in_log = true;
    }
  }
  EXPECT_TRUE(found_in_log) << "no slow-query line with trace=" << hex;

  // The query's spans carry the id into the Chrome trace dump...
  const std::string chrome = h->trace.RenderChromeJson();
  EXPECT_NE(chrome.find(hex), std::string::npos) << chrome;

  // ...and /debug/tracez serves the same spans grouped by family.
  ASSERT_OK_AND_MOVE(tracez, h->RoundTrip("GET", "/debug/tracez"));
  ASSERT_EQ(tracez.status_code, 200);
  ASSERT_OK_AND_MOVE(tracez_doc, serve::ParseJson(tracez.body));
  EXPECT_TRUE(tracez_doc.Find("enabled")->bool_value);
  EXPECT_GE(tracez_doc.Find("span_count")->number, 1.0);
  EXPECT_NE(tracez.body.find(hex), std::string::npos) << tracez.body;
}

TEST(ServingDiagnosticsTest, ClientSuppliedTraceIdIsEchoed) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(client, serve::HttpBlockingClient::Connect(
                                 "127.0.0.1", h->port()));
  const std::string body = "{\"query\":\"kw0\",\"k\":2}";
  std::string request = "POST /search HTTP/1.1\r\nHost: t\r\n";
  request += "x-cirank-trace-id: 00000000deadbeef\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  CIRANK_CHECK_OK(client.SendRaw(request));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string* header = response->FindHeader("x-cirank-trace-id");
  ASSERT_NE(header, nullptr);
  EXPECT_EQ(*header, "00000000deadbeef") << "valid client ids are honored";
}

TEST(ServingDiagnosticsTest, MalformedClientTraceIdIsReplaced) {
  auto h = MakeServingHarness();
  ASSERT_OK_AND_MOVE(client, serve::HttpBlockingClient::Connect(
                                 "127.0.0.1", h->port()));
  const std::string body = "{\"query\":\"kw0\",\"k\":2}";
  std::string request = "POST /search HTTP/1.1\r\nHost: t\r\n";
  request += "x-cirank-trace-id: not-a-trace-id\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  CIRANK_CHECK_OK(client.SendRaw(request));
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const std::string* header = response->FindHeader("x-cirank-trace-id");
  ASSERT_NE(header, nullptr);
  uint64_t minted = 0;
  EXPECT_TRUE(obs::ParseTraceId(*header, &minted))
      << "a fresh id is minted: " << *header;
}

TEST(ServingDiagnosticsTest, StatuszReportsBuildOptionsAndExecutors) {
  ServingHarnessDiagnostics diag;
  diag.request_log_capacity = 32;
  auto h = MakeServingHarness(/*seed=*/7, /*num_nodes=*/120,
                              /*cache_capacity=*/64, /*num_workers=*/3, diag);
  ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search",
                                          "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(search.status_code, 200);

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/debug/statusz"));
  ASSERT_EQ(response.status_code, 200);
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(response.body));

  const serve::JsonValue* build = doc.Find("build");
  ASSERT_NE(build, nullptr) << response.body;
  EXPECT_EQ(build->Find("version")->string, kCirankVersion);
  EXPECT_FALSE(build->Find("compiler")->string.empty());
  EXPECT_GE(doc.Find("uptime_seconds")->number, 0.0);

  const serve::JsonValue* dataset = doc.Find("dataset");
  ASSERT_NE(dataset, nullptr);
  EXPECT_EQ(dataset->Find("nodes")->number,
            static_cast<double>(h->graph.num_nodes()));

  const serve::JsonValue* options = doc.Find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_EQ(options->Find("num_workers")->number, 3.0);
  EXPECT_EQ(options->Find("request_log_capacity")->number, 32.0);

  EXPECT_EQ(doc.Find("requests_recorded")->number, 1.0);
  const serve::JsonValue* executors = doc.Find("executors");
  ASSERT_NE(executors, nullptr);
  EXPECT_FALSE(executors->array.empty());
  const serve::JsonValue* rankers = doc.Find("rankers");
  ASSERT_NE(rankers, nullptr) << response.body;
  bool has_rwmp = false, has_composite = false;
  for (const serve::JsonValue& r : rankers->array) {
    if (r.string == "rwmp") has_rwmp = true;
    if (r.string == "rwmp_x_text") has_composite = true;
  }
  EXPECT_TRUE(has_rwmp) << response.body;
  EXPECT_TRUE(has_composite) << response.body;
  const serve::JsonValue* hierarchy = doc.Find("lock_hierarchy");
  ASSERT_NE(hierarchy, nullptr);
  EXPECT_EQ(hierarchy->array.size(), 5u);
  EXPECT_EQ(hierarchy->array[2].string, "gather");

  const serve::JsonValue* sharding = doc.Find("sharding");
  ASSERT_NE(sharding, nullptr) << response.body;
  EXPECT_EQ(sharding->Find("shard_count")->number, 1.0);
  EXPECT_EQ(sharding->Find("partitioner")->string, "hash");
  EXPECT_EQ(sharding->Find("shards")->array.size(), 1u);

  // /debug endpoints are GET-only.
  ASSERT_OK_AND_MOVE(post, h->RoundTrip("POST", "/debug/statusz", "{}"));
  EXPECT_EQ(post.status_code, 405);
}

TEST(ServingDiagnosticsTest, RequestLogDisabledAtZeroCapacity) {
  ServingHarnessDiagnostics diag;
  diag.request_log_capacity = 0;
  diag.slow_query_ms = -1.0;  // diagnostics-off configuration
  auto h = MakeServingHarness(/*seed=*/7, /*num_nodes=*/120,
                              /*cache_capacity=*/64, /*num_workers=*/2, diag);
  ASSERT_OK_AND_MOVE(search, h->RoundTrip("POST", "/search",
                                          "{\"query\":\"kw0\",\"k\":2}"));
  ASSERT_EQ(search.status_code, 200);

  ASSERT_OK_AND_MOVE(response, h->RoundTrip("GET", "/debug/requestz"));
  ASSERT_EQ(response.status_code, 200);
  ASSERT_OK_AND_MOVE(doc, serve::ParseJson(response.body));
  EXPECT_EQ(doc.Find("capacity")->number, 0.0);
  EXPECT_TRUE(doc.Find("requests")->array.empty());

  // Tracing was never wired, so /debug/tracez reports disabled.
  ASSERT_OK_AND_MOVE(tracez, h->RoundTrip("GET", "/debug/tracez"));
  ASSERT_EQ(tracez.status_code, 200);
  ASSERT_OK_AND_MOVE(tracez_doc, serve::ParseJson(tracez.body));
  EXPECT_FALSE(tracez_doc.Find("enabled")->bool_value);
}

// Differential: diagnostics fully off (no metrics, no trace, no request
// context) produces byte-identical answers to diagnostics fully on, through
// ShardedEngine::ServingSearch — the path cirankd serves /search on. The
// whole subsystem observes; it never steers.
TEST(ServingDiagnosticsTest, DiagnosticsOffIsByteIdenticalToOn) {
  const Graph graph = testing_util::MakeRandomGraph(/*seed=*/13, 150);

  obs::MetricsRegistry registry;
  obs::TraceCollector collector;
  CiRankOptions on;
  on.metrics = &registry;
  on.trace = &collector;
  ASSERT_OK_AND_MOVE(engine_on,
                     CiRankEngine::Builder(graph).WithOptions(on).Build());
  ASSERT_OK_AND_MOVE(sharded_on, shard::ShardedEngine::Attach(&engine_on));

  CiRankOptions off;
  off.metrics_enabled = false;
  ASSERT_OK_AND_MOVE(engine_off,
                     CiRankEngine::Builder(graph).WithOptions(off).Build());
  ASSERT_OK_AND_MOVE(sharded_off, shard::ShardedEngine::Attach(&engine_off));

  for (const char* text : {"kw0", "kw0 kw1", "kw1 kw2 kw3"}) {
    const Query query = Query::MustParse(text);
    const SearchOverrides overrides = SearchOverrides().WithK(5);
    obs::RequestContext ctx;
    ctx.trace_id = obs::MintTraceId();
    SearchStats stats_on, stats_off;
    ASSERT_OK_AND_MOVE(with_diag, sharded_on.ServingSearch(query, overrides,
                                                           &stats_on, &ctx));
    ASSERT_OK_AND_MOVE(without_diag,
                       sharded_off.ServingSearch(query, overrides, &stats_off,
                                                 nullptr));
    EXPECT_EQ(serve::RenderAnswersJson(with_diag, graph),
              serve::RenderAnswersJson(without_diag, graph))
        << "diagnostics changed the answer bytes for: " << text;
  }
}

}  // namespace
}  // namespace cirank
