// Shared helpers for the test suite: random graph generation, engine
// assembly on small graphs, and an in-process serving harness.
#ifndef CIRANK_TESTS_TEST_UTIL_H_
#define CIRANK_TESTS_TEST_UTIL_H_

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/rwmp.h"
#include "core/scorer.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rw/pagerank.h"
#include "serve/http.h"
#include "serve/server.h"
#include "shard/builder.h"
#include "shard/sharded_engine.h"
#include "text/inverted_index.h"
#include "util/random.h"

namespace cirank {
namespace testing_util {

// Renders answers into a comparable byte string: bitwise score plus the
// canonical tree identity. Two runs agree iff this string agrees.
inline std::string Fingerprint(const std::vector<RankedAnswer>& answers) {
  std::string out;
  for (const RankedAnswer& answer : answers) {
    char bits[sizeof(double)];
    std::memcpy(bits, &answer.score, sizeof(double));
    out.append(bits, sizeof(double));
    out += answer.tree.CanonicalKey();
    out.push_back('|');
  }
  return out;
}

// A random connected-ish graph over one relation. Node text is drawn from a
// tiny vocabulary ("kw0".."kw{vocab-1}" plus filler words) so keyword
// queries match several nodes.
inline Graph MakeRandomGraph(uint64_t seed, size_t num_nodes,
                             double avg_degree = 3.0, int vocab = 4) {
  Rng rng(seed);
  Schema schema;
  RelationId entity = schema.AddRelation("Entity");
  EdgeTypeId fwd = schema.AddEdgeType("fwd", entity, entity, 1.0);
  EdgeTypeId bwd = schema.AddEdgeType("bwd", entity, entity, 0.5);

  GraphBuilder builder(schema);
  for (size_t i = 0; i < num_nodes; ++i) {
    std::string text;
    // 1-2 vocabulary words; roughly half the nodes carry a keyword word.
    const int words = 1 + static_cast<int>(rng.NextUint(2));
    for (int w = 0; w < words; ++w) {
      if (w > 0) text += " ";
      if (rng.NextBool(0.5)) {
        text += "kw" + std::to_string(rng.NextUint(vocab));
      } else {
        text += "filler" + std::to_string(rng.NextUint(6));
      }
    }
    builder.AddNode(entity, text, static_cast<int64_t>(i));
  }

  // A spanning chain keeps the graph connected, then random extra edges.
  for (size_t i = 1; i < num_nodes; ++i) {
    NodeId prev = static_cast<NodeId>(rng.NextUint(i));
    CIRANK_CHECK_OK(builder.AddBidirectionalEdge(static_cast<NodeId>(i),
                                                 prev, fwd, bwd));
  }
  const size_t extra = static_cast<size_t>(
      num_nodes * (avg_degree / 2.0 > 1.0 ? avg_degree / 2.0 - 1.0 : 0.0));
  for (size_t i = 0; i < extra; ++i) {
    NodeId a = static_cast<NodeId>(rng.NextUint(num_nodes));
    NodeId b = static_cast<NodeId>(rng.NextUint(num_nodes));
    if (a == b) continue;
    CIRANK_CHECK_OK(builder.AddBidirectionalEdge(a, b, fwd, bwd));
  }
  return builder.Finalize();
}

// Bundles the derived state the scorer needs; keeps everything alive.
struct ScorerBundle {
  Graph graph;
  std::unique_ptr<InvertedIndex> index;
  std::unique_ptr<RwmpModel> model;
  std::unique_ptr<TreeScorer> scorer;
};

inline ScorerBundle MakeScorerBundle(Graph graph, RwmpParams params = {}) {
  ScorerBundle bundle;
  bundle.graph = std::move(graph);
  bundle.index = std::make_unique<InvertedIndex>(bundle.graph);
  auto pr = ComputePageRank(bundle.graph);
  auto model = RwmpModel::Create(bundle.graph, std::move(pr->scores), params);
  bundle.model = std::make_unique<RwmpModel>(std::move(model).value());
  bundle.scorer =
      std::make_unique<TreeScorer>(*bundle.model, *bundle.index);
  return bundle;
}

// --- In-process serving harness (tests/serving_*.cc) ----------------------
// A random graph, an engine recording into a test-local registry, the
// sharded facade the server serves through (a byte-exact passthrough at the
// default one shard), and a CirankServer bound to an ephemeral 127.0.0.1
// port. Heap-allocated because MetricsRegistry is pinned (the engine and
// server hold resolved instrument pointers into it). The server is started
// before the factory returns and drained by the destructor
// (CirankServer::~CirankServer calls Stop).
struct ServingHarness {
  Graph graph;
  obs::MetricsRegistry metrics;
  obs::TraceCollector trace;  // wired into the engine when requested
  std::unique_ptr<CiRankEngine> engine;
  std::unique_ptr<shard::ShardedEngine> sharded;
  std::unique_ptr<serve::CirankServer> server;

  int port() const { return server->port(); }

  // One fresh-connection request/response exchange against the server.
  Result<serve::HttpClientResponse> RoundTrip(const std::string& method,
                                              const std::string& target,
                                              const std::string& body = "") {
    CIRANK_ASSIGN_OR_RETURN(serve::HttpBlockingClient client,
                            serve::HttpBlockingClient::Connect("127.0.0.1",
                                                               port()));
    return client.RoundTrip(method, target, body, /*keep_alive=*/false);
  }
};

// Diagnostics knobs for the harness (DESIGN.md §14); the defaults match a
// production-ish server, the e2e correlation test turns everything up.
struct ServingHarnessDiagnostics {
  bool enable_trace = false;       // wire harness->trace into the engine
  size_t request_log_capacity = 128;
  double slow_query_ms = 100.0;    // 0 = flag everything, <0 = disabled
};

inline std::unique_ptr<ServingHarness> MakeServingHarness(
    uint64_t seed = 7, size_t num_nodes = 120, size_t cache_capacity = 64,
    int num_workers = 4, const ServingHarnessDiagnostics& diag = {},
    uint32_t num_shards = 1, const std::string& partitioner = "hash") {
  auto harness = std::make_unique<ServingHarness>();
  harness->graph = MakeRandomGraph(seed, num_nodes);
  CiRankOptions options;
  options.cache.capacity = cache_capacity;
  options.metrics = &harness->metrics;
  if (diag.enable_trace) options.trace = &harness->trace;
  QueryCacheOptions shard_cache;
  shard_cache.capacity = cache_capacity;
  auto built = shard::EngineBuilder()
                   .WithGraph(&harness->graph)
                   .WithEngineOptions(options)
                   .WithShards(num_shards)
                   .WithPartitioner(partitioner)
                   .WithShardCache(shard_cache)
                   .Build();
  CIRANK_CHECK_OK(built.status());
  harness->engine = std::move(built->engine);
  harness->sharded = std::move(built->sharded);
  serve::ServerOptions server_options;
  server_options.num_workers = num_workers;
  server_options.request_log_capacity = diag.request_log_capacity;
  server_options.slow_query_ms = diag.slow_query_ms;
  harness->server = std::make_unique<serve::CirankServer>(
      harness->sharded.get(), server_options);
  CIRANK_CHECK_OK(harness->server->Start());
  return harness;
}

}  // namespace testing_util
}  // namespace cirank

#endif  // CIRANK_TESTS_TEST_UTIL_H_
