// cirankd: the standalone CI-Rank serving daemon (DESIGN.md §13).
//
//   $ ./build/tools/cirankd --port 8080 --dataset imdb --scale 0.25
//   cirankd listening on 127.0.0.1:8080 (...)
//   $ curl -s localhost:8080/healthz
//   $ curl -s -X POST localhost:8080/search -d '{"query":"tom hanks","k":3}'
//   $ curl -s localhost:8080/metrics | grep cirank_http
//
// Options:
//   --host ADDR          bind address (default 127.0.0.1)
//   --port N             listen port (default 8080; 0 = ephemeral, the
//                        chosen port is printed on the "listening" line)
//   --dataset imdb|dblp  generate a synthetic dataset (default imdb)
//   --load PATH          load a graph saved with SaveGraphToFile instead
//   --scale S            generator scale factor (default 0.25)
//   --workers N          connection worker threads (default 4)
//   --cache N            query-result LRU capacity (default 1024; 0 = off)
//   --no-index           skip building the star index (engine default
//                        bounds are then index-free)
//   --shards N           scatter-gather shard count (default 1; exact for
//                        any N — DESIGN.md §16)
//   --partitioner NAME   shard partitioner: hash|star (default hash)
//   --shard-parallelism N  per-query shard fan-out width (default 0 = one
//                        thread per shard)
//   --trace-out PATH     record per-query trace spans; flushed as Chrome
//                        trace_event JSON to PATH during graceful shutdown
//   --log-level L        debug|info|warning|error|off (default info)
//   --log-format F       text|json structured-log rendering (default text)
//   --slow-query-ms MS   slow-query log threshold; 0 logs every query,
//                        negative disables (default 100)
//   --requestz N         /debug/requestz ring capacity; 0 disables
//                        (default 128)
//
// Live diagnostics (DESIGN.md §14): /debug/statusz, /debug/requestz,
// /debug/tracez, and /metrics?format=json are always served; per-query
// trace spans are retained in a bounded in-memory ring even without
// --trace-out so /debug/tracez has data on a long-running daemon.
//
// Shutdown: SIGTERM or SIGINT latches a flag (the handler is async-signal-
// safe — one sig_atomic_t store); the main loop notices, drains the server
// (stop accepting, finish in-flight queries), flushes the trace file, and
// exits 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <poll.h>

#include "baselines/baseline_executors.h"
#include "core/engine.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "shard/builder.h"
#include "util/timer.h"

using namespace cirank;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int /*signum*/) { g_shutdown = 1; }

struct DaemonOptions {
  std::string host = "127.0.0.1";
  int port = 8080;
  std::string dataset = "imdb";
  std::string load_path;
  double scale = 0.25;
  int workers = 4;
  size_t cache_capacity = 1024;
  bool use_index = true;
  std::string trace_out;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  obs::LogFormat log_format = obs::LogFormat::kText;
  double slow_query_ms = 100.0;
  size_t requestz_capacity = 128;
  uint32_t num_shards = 1;
  std::string partitioner = "hash";
  int shard_parallelism = 0;
};

bool ParseArgs(int argc, char** argv, DaemonOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (!v) return false;
      opts->host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v) return false;
      opts->port = std::atoi(v);
      if (opts->port < 0 || opts->port > 65535) {
        std::fprintf(stderr, "--port must be in [0, 65535]\n");
        return false;
      }
    } else if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      opts->dataset = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (!v) return false;
      opts->load_path = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opts->scale = std::atof(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return false;
      opts->workers = std::atoi(v);
      if (opts->workers < 1) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return false;
      }
    } else if (arg == "--cache") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) {
        std::fprintf(stderr, "--cache must be >= 0\n");
        return false;
      }
      opts->cache_capacity = static_cast<size_t>(n);
    } else if (arg == "--no-index") {
      opts->use_index = false;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      opts->trace_out = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      if (!v) return false;
      if (!obs::ParseLogLevel(v, &opts->log_level)) {
        std::fprintf(stderr,
                     "--log-level must be debug|info|warning|error|off\n");
        return false;
      }
    } else if (arg == "--log-format") {
      const char* v = next();
      if (!v) return false;
      const std::string format = v;
      if (format == "text") {
        opts->log_format = obs::LogFormat::kText;
      } else if (format == "json") {
        opts->log_format = obs::LogFormat::kJson;
      } else {
        std::fprintf(stderr, "--log-format must be text|json\n");
        return false;
      }
    } else if (arg == "--slow-query-ms") {
      const char* v = next();
      if (!v) return false;
      opts->slow_query_ms = std::atof(v);
    } else if (arg == "--requestz") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 0) {
        std::fprintf(stderr, "--requestz must be >= 0\n");
        return false;
      }
      opts->requestz_capacity = static_cast<size_t>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v) return false;
      const long long n = std::atoll(v);
      if (n < 1 || n > 256) {
        std::fprintf(stderr, "--shards must be in [1, 256]\n");
        return false;
      }
      opts->num_shards = static_cast<uint32_t>(n);
    } else if (arg == "--partitioner") {
      const char* v = next();
      if (!v) return false;
      opts->partitioner = v;
    } else if (arg == "--shard-parallelism") {
      const char* v = next();
      if (!v) return false;
      opts->shard_parallelism = std::atoi(v);
      if (opts->shard_parallelism < 0) {
        std::fprintf(stderr, "--shard-parallelism must be >= 0\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 1;

  Timer setup_timer;

  // Every registered executor is addressable through the query DSL's
  // "executor" field.
  if (Status st = RegisterBaselineExecutors(); !st.ok()) {
    std::fprintf(stderr, "executor registration failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  obs::Logger::Default().set_level(opts.log_level);
  obs::Logger::Default().set_format(opts.log_format);

  obs::MetricsRegistry metrics;
  // Spans are always collected so /debug/tracez has data on a long-running
  // daemon; without --trace-out the collector is a bounded ring (recent
  // spans only), with it the collector is unbounded for a complete dump.
  obs::TraceCollector trace(opts.trace_out.empty() ? 4096 : 0);

  // One construction surface for everything the daemon used to hand-roll:
  // dataset generation or graph load, the star index, the engine, and the
  // sharded serving facade.
  QueryCacheOptions cache;
  cache.capacity = opts.cache_capacity;
  shard::EngineBuilder builder;
  builder.WithDataset(opts.dataset)
      .WithScale(opts.scale)
      .WithCache(cache)
      .WithMetrics(&metrics)
      .WithTrace(&trace)
      .WithStarIndex(opts.use_index)
      .WithShards(opts.num_shards)
      .WithPartitioner(opts.partitioner)
      .WithShardParallelism(opts.shard_parallelism)
      .WithShardCache(cache);
  if (!opts.load_path.empty()) builder.WithLoadPath(opts.load_path);
  auto built = builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  if (opts.use_index && built->star_index == nullptr) {
    std::fprintf(stderr, "star index unavailable (%s); continuing\n",
                 built->star_index_note.c_str());
  }

  serve::ServerOptions server_opts;
  server_opts.host = opts.host;
  server_opts.port = opts.port;
  server_opts.num_workers = opts.workers;
  server_opts.metrics = &metrics;
  server_opts.request_log_capacity = opts.requestz_capacity;
  server_opts.slow_query_ms = opts.slow_query_ms;
  server_opts.dataset = built->dataset;
  serve::CirankServer server(built->sharded.get(), server_opts);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("cirankd listening on %s:%d (%zu nodes, %zu edges, %s star "
              "index, %u shards [%s], %d workers, cache %zu, %.1f s "
              "setup)\n",
              server.host().c_str(), server.port(),
              built->graph->num_nodes(), built->graph->num_edges(),
              built->star_index != nullptr ? "with" : "without",
              built->sharded->num_shards(),
              built->sharded->plan().partitioner_name().c_str(),
              opts.workers, opts.cache_capacity,
              setup_timer.ElapsedSeconds());
  std::fflush(stdout);

  // Park the main thread until a signal arrives: poll with no fds is a
  // plain interruptible sleep, and the 200 ms tick bounds the latency of
  // noticing a flag set between polls.
  while (g_shutdown == 0) {
    (void)::poll(nullptr, 0, 200);
  }

  std::printf("cirankd draining...\n");
  std::fflush(stdout);
  server.Stop();
  const serve::ServerStats stats = server.stats();
  std::printf("cirankd drained: %lld connections, %lld requests served\n",
              static_cast<long long>(stats.connections_accepted),
              static_cast<long long>(stats.requests_served));

  if (!opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file %s\n",
                   opts.trace_out.c_str());
      return 1;
    }
    out << trace.RenderChromeJson();
    if (!out) {
      std::fprintf(stderr, "trace write to %s failed\n",
                   opts.trace_out.c_str());
      return 1;
    }
    std::printf("%zu trace spans written to %s\n", trace.size(),
                opts.trace_out.c_str());
  }
  return 0;
}
