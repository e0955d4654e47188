// Fuzz-ish property tests for the pure serving-layer parsers (json.h,
// http.h, request.h). The invariant under test is uniform: for ANY input
// bytes — uniformly random, structurally mutated from a valid request, or
// adversarially truncated — every parser returns a Status/Result and never
// crashes, hangs, or reads out of bounds. Run under asan/ubsan in CI, that
// claim is checked for real, not just asserted.
//
// All randomness flows through cirank::Rng with fixed seeds, so a failure
// reproduces exactly from the test log.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "util/random.h"
#include "util/status.h"

namespace cirank {
namespace serve {
namespace {

// A valid request exercising every accepted field; the mutation tests
// derive their corpus from it.
const char kValidBody[] =
    "{\"query\":\"tom hanks 1994\",\"k\":7,\"max_diameter\":4,"
    "\"max_expansions\":5000,\"strict_merge_rule\":true,"
    "\"executor\":\"bnb\",\"ranker\":\"rwmp_x_text\","
    "\"order_by\":\"score desc, size asc\",\"composite_rwmp_weight\":1.0,"
    "\"composite_text_weight\":0.5,\"num_threads\":2,\"deadline_ms\":25,"
    "\"candidate_budget\":100}";

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = static_cast<size_t>(rng->NextUint(max_len + 1));
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng->NextUint(256));
  }
  return s;
}

// Bytes biased toward JSON structure so the parser gets past byte 0 often
// enough to exercise deep paths, not just the first-token rejection.
std::string RandomJsonishBytes(Rng* rng, size_t max_len) {
  static const char kAlphabet[] = "{}[]\",:0123456789.eE+-truefalsnl \t\n\r";
  const size_t len = static_cast<size_t>(rng->NextUint(max_len + 1));
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    if (rng->NextBool(0.05)) {
      s[i] = static_cast<char>(rng->NextUint(256));
    } else {
      s[i] = kAlphabet[rng->NextUint(sizeof(kAlphabet) - 1)];
    }
  }
  return s;
}

// One structural mutation of `base`: flip, insert, delete, or truncate.
std::string Mutate(const std::string& base, Rng* rng) {
  std::string s = base;
  const uint64_t op = rng->NextUint(4);
  if (s.empty()) return RandomBytes(rng, 32);
  const size_t pos = static_cast<size_t>(rng->NextUint(s.size()));
  switch (op) {
    case 0:  // flip a byte
      s[pos] = static_cast<char>(rng->NextUint(256));
      break;
    case 1:  // insert a byte
      s.insert(pos, 1, static_cast<char>(rng->NextUint(256)));
      break;
    case 2:  // delete a byte
      s.erase(pos, 1);
      break;
    default:  // truncate
      s.resize(pos);
      break;
  }
  return s;
}

TEST(ServingRequestPropertyTest, ParseJsonNeverCrashesOnRandomBytes) {
  Rng rng(0xC1BA5E01);
  for (int i = 0; i < 4000; ++i) {
    const std::string input = i % 2 == 0 ? RandomBytes(&rng, 256)
                                         : RandomJsonishBytes(&rng, 256);
    Result<JsonValue> parsed = ParseJson(input);
    if (parsed.ok()) {
      // Whatever parsed must render back to something that reparses.
      const std::string rendered = WriteJson(*parsed);
      Result<JsonValue> again = ParseJson(rendered);
      EXPECT_TRUE(again.ok())
          << "render of parse not reparseable for input: " << input;
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ServingRequestPropertyTest, ParseJsonRoundTripsItsOwnRendering) {
  Rng rng(0xC1BA5E02);
  // Build random JSON trees bottom-up, render, parse, re-render: the two
  // renderings must be byte-identical (member order is preserved).
  for (int i = 0; i < 300; ++i) {
    JsonValue root;
    root.kind = JsonValue::Kind::kObject;
    const int members = 1 + static_cast<int>(rng.NextUint(6));
    for (int m = 0; m < members; ++m) {
      JsonValue v;
      switch (rng.NextUint(5)) {
        case 0:
          v.kind = JsonValue::Kind::kNull;
          break;
        case 1:
          v.kind = JsonValue::Kind::kBool;
          v.bool_value = rng.NextBool(0.5);
          break;
        case 2:
          v.kind = JsonValue::Kind::kNumber;
          v.number = static_cast<double>(rng.NextInt(-1000000, 1000000));
          break;
        case 3: {
          v.kind = JsonValue::Kind::kString;
          v.string = RandomBytes(&rng, 24);
          break;
        }
        default: {
          v.kind = JsonValue::Kind::kArray;
          const int n = static_cast<int>(rng.NextUint(4));
          for (int j = 0; j < n; ++j) {
            JsonValue e;
            e.kind = JsonValue::Kind::kNumber;
            e.number = rng.NextDouble();
            v.array.push_back(e);
          }
          break;
        }
      }
      root.object.emplace_back("key" + std::to_string(m), std::move(v));
    }
    const std::string rendered = WriteJson(root);
    Result<JsonValue> parsed = ParseJson(rendered);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << " for: " << rendered;
    EXPECT_EQ(WriteJson(*parsed), rendered);
  }
}

TEST(ServingRequestPropertyTest, DeepNestingIsBoundedNotFatal) {
  // 1000 nested arrays: far past JsonLimits::max_depth. Must be a clean
  // InvalidArgument, not a stack overflow.
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  Result<JsonValue> parsed = ParseJson(deep);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
}

TEST(ServingRequestPropertyTest, ParseSearchRequestNeverCrashes) {
  Rng rng(0xC1BA5E03);
  int ok_count = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string input;
    switch (i % 3) {
      case 0:
        input = RandomBytes(&rng, 200);
        break;
      case 1:
        input = RandomJsonishBytes(&rng, 200);
        break;
      default:
        input = Mutate(kValidBody, &rng);
        break;
    }
    Result<SearchRequest> parsed = ParseSearchRequest(input);
    if (parsed.ok()) {
      ++ok_count;
      EXPECT_FALSE(parsed->query.empty());
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
  // Single-byte mutations of a valid body frequently stay valid; if none
  // did, the mutator (or the parser) is broken.
  EXPECT_GT(ok_count, 0);
}

TEST(ServingRequestPropertyTest, ValidBodyStaysValidUnderNoOpMutation) {
  Result<SearchRequest> parsed = ParseSearchRequest(kValidBody);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->normalized_query, "tom hanks 1994");
}

// `num_threads` is a deprecated no-op, but a value outside [1, 512] is
// still the 400 it always was.
TEST(ServingRequestPropertyTest, DeprecatedNumThreadsKeepsItsRangeCheck) {
  for (const char* n : {"0", "513"}) {
    Result<SearchRequest> parsed = ParseSearchRequest(
        std::string("{\"query\":\"kw0\",\"num_threads\":") + n + "}");
    ASSERT_FALSE(parsed.ok()) << n;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << n;
    EXPECT_NE(parsed.status().message().find("num_threads"),
              std::string::npos)
        << parsed.status().ToString();
  }
  for (const char* n : {"1", "512"}) {
    Result<SearchRequest> parsed = ParseSearchRequest(
        std::string("{\"query\":\"kw0\",\"num_threads\":") + n + "}");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_NE(parsed->deprecation_note.find("num_threads"), std::string::npos);
  }
}

TEST(ServingRequestPropertyTest, ParseHttpRequestHeadNeverCrashes) {
  Rng rng(0xC1BA5E04);
  const std::string valid_head =
      "POST /search HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\nContent-Length: 12\r\n\r\n";
  for (int i = 0; i < 4000; ++i) {
    std::string input =
        i % 2 == 0 ? RandomBytes(&rng, 300) : Mutate(valid_head, &rng);
    // The server only hands ParseHttpRequestHead terminated heads; hold the
    // same contract here and fuzz everything before the terminator.
    input += "\r\n\r\n";
    Result<HttpRequest> parsed = ParseHttpRequestHead(input);
    if (parsed.ok()) {
      Result<size_t> length = ContentLength(*parsed);
      if (length.ok()) {
        EXPECT_LE(*length, HttpLimits{}.max_body_bytes);
      }
      (void)WantsKeepAlive(*parsed);
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ServingRequestPropertyTest, HttpResponseRoundTrips) {
  Rng rng(0xC1BA5E05);
  const int codes[] = {200, 400, 404, 405, 408, 431, 500, 503};
  for (int i = 0; i < 500; ++i) {
    HttpResponse response;
    response.status_code = codes[rng.NextUint(8)];
    response.body = RandomBytes(&rng, 128);
    response.close = rng.NextBool(0.5);
    const std::string wire = SerializeHttpResponse(response);
    Result<HttpClientResponse> parsed = ParseHttpResponse(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->status_code, response.status_code);
    EXPECT_EQ(parsed->body, response.body);
    const std::string* connection = parsed->FindHeader("Connection");
    ASSERT_NE(connection, nullptr);
    EXPECT_EQ(*connection, response.close ? "close" : "keep-alive");
  }
}

TEST(ServingRequestPropertyTest, ParseHttpResponseNeverCrashes) {
  Rng rng(0xC1BA5E06);
  HttpResponse valid;
  valid.body = "{\"status\":\"ok\"}";
  const std::string valid_wire = SerializeHttpResponse(valid);
  for (int i = 0; i < 4000; ++i) {
    const std::string input =
        i % 2 == 0 ? RandomBytes(&rng, 300) : Mutate(valid_wire, &rng);
    Result<HttpClientResponse> parsed = ParseHttpResponse(input);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ServingRequestPropertyTest, RenderErrorJsonIsAlwaysValidJson) {
  Rng rng(0xC1BA5E07);
  Status (*const factories[])(std::string) = {
      &Status::InvalidArgument, &Status::NotFound,
      &Status::OutOfRange,      &Status::FailedPrecondition,
      &Status::Internal,        &Status::Unimplemented,
      &Status::DeadlineExceeded};
  for (int i = 0; i < 500; ++i) {
    // Messages with hostile bytes (quotes, control chars, raw UTF-8).
    const Status status = factories[rng.NextUint(7)](RandomBytes(&rng, 64));
    const std::string rendered = RenderErrorJson(status);
    Result<JsonValue> parsed = ParseJson(rendered);
    ASSERT_TRUE(parsed.ok())
        << parsed.status().ToString() << " for: " << rendered;
    const JsonValue* error = parsed->Find("error");
    ASSERT_NE(error, nullptr);
    const JsonValue* code = error->Find("code");
    ASSERT_NE(code, nullptr);
    EXPECT_TRUE(code->is_string());
    EXPECT_EQ(code->string, StatusCodeName(status.code()));
  }
}

}  // namespace
}  // namespace serve
}  // namespace cirank
