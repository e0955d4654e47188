// Interactive keyword-search CLI over a synthetic or saved database graph.
//
//   $ ./build/examples/cirank_cli --dataset imdb --k 5 --diameter 4
//   > tom hanks
//   #1 score=...  JTT(...)
//
// Options:
//   --dataset imdb|dblp     generate a synthetic dataset (default imdb)
//   --load PATH             load a graph saved with SaveGraphToFile instead
//   --save PATH             save the generated graph and exit
//   --scale S               generator scale factor (default 0.25)
//   --k N                   answers per query (default 5)
//   --diameter D            answer-tree diameter limit (default 4)
//   --no-index              disable the star index
//   --executor NAME         route queries through a registered executor:
//                           bnb (default), naive, banks, bidirectional,
//                           spark, discover2
//   --ranker NAME           score answers with a registered ranker: rwmp
//                           (default), rwmp_x_text, spark, banks,
//                           discover2, or an ablation ranker
//   --order-by SPEC         presentation order over the top-k, e.g.
//                           "score desc, size asc" (fields: score, root,
//                           external_key, relation, size, text)
//   --deadline-ms X         per-query wall-clock deadline; on expiry the
//                           search stops and returns its best-so-far
//                           answers, marked "truncated" in the stats line
//   --cache N               LRU query-result cache capacity (default 1024;
//                           0 disables). With the cache on, repeating a
//                           query is served memoized and the CLI reports
//                           cache counters instead of expansion stats;
//                           --deadline-ms and a non-default --executor
//                           report fresh stage stats instead
//   --shards N              scatter-gather shard count (default 1; results
//                           are byte-identical for any N — DESIGN.md §16)
//   --partitioner NAME      shard partitioner: hash|star (default hash)
//   --metrics-out PATH      on exit, dump the engine's metrics registry to
//                           PATH: Prometheus text exposition, or JSON when
//                           PATH ends in ".json"; "-" writes to stdout
//   --trace-out PATH        record a TraceSpan per query stage and write
//                           Chrome trace_event JSON to PATH on exit (open
//                           in chrome://tracing or Perfetto); "-" = stdout
// Queries are read line by line from stdin; empty line or EOF quits.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "baselines/baseline_executors.h"
#include "core/engine.h"
#include "core/order_by.h"
#include "core/ranker.h"
#include "graph/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/builder.h"
#include "util/timer.h"

using namespace cirank;

namespace {

struct CliOptions {
  std::string dataset = "imdb";
  std::string load_path;
  std::string save_path;
  double scale = 0.25;
  int k = 5;
  uint32_t diameter = 4;
  bool use_index = true;
  std::string executor;  // empty = engine default ("bnb")
  std::string ranker;    // empty = engine default ("rwmp")
  std::string order_by;  // empty = score order
  double deadline_ms = 0.0;
  size_t cache_capacity = 1024;
  uint32_t num_shards = 1;
  std::string partitioner = "hash";
  std::string metrics_out;  // empty = off; "-" = stdout; *.json = JSON
  std::string trace_out;    // empty = off; "-" = stdout
};

// Writes `content` to `path`, with "-" meaning stdout. Returns false (and
// prints the reason) on I/O failure.
bool WriteTextOutput(const std::string& path, const std::string& content,
                     const char* what) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s file %s\n", what, path.c_str());
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      opts->dataset = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (!v) return false;
      opts->load_path = v;
    } else if (arg == "--save") {
      const char* v = next();
      if (!v) return false;
      opts->save_path = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opts->scale = std::atof(v);
    } else if (arg == "--k") {
      const char* v = next();
      if (!v) return false;
      opts->k = std::atoi(v);
    } else if (arg == "--diameter") {
      const char* v = next();
      if (!v) return false;
      opts->diameter = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--no-index") {
      opts->use_index = false;
    } else if (arg == "--executor") {
      const char* v = next();
      if (!v) return false;
      opts->executor = v;
    } else if (arg == "--ranker") {
      const char* v = next();
      if (!v) return false;
      opts->ranker = v;
    } else if (arg == "--order-by") {
      const char* v = next();
      if (!v) return false;
      opts->order_by = v;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return false;
      opts->deadline_ms = std::atof(v);
      if (opts->deadline_ms < 0.0) {
        std::fprintf(stderr, "--deadline-ms must be >= 0\n");
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
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      opts->metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      opts->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 1;

  Timer setup_timer;

  // Make every registered executor addressable via --executor.
  if (Status st = RegisterBaselineExecutors(); !st.ok()) {
    std::fprintf(stderr, "executor registration failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (!opts.executor.empty() &&
      !ExecutorRegistry::Global().Contains(opts.executor)) {
    std::fprintf(stderr, "unknown --executor %s; registered:",
                 opts.executor.c_str());
    for (const std::string& name : ExecutorRegistry::Global().Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  if (!opts.ranker.empty() &&
      !RankerRegistry::Global().Contains(opts.ranker)) {
    std::fprintf(stderr, "unknown --ranker %s; registered:",
                 opts.ranker.c_str());
    for (const std::string& name : RankerRegistry::Global().Names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  if (!opts.order_by.empty()) {
    if (auto keys = ParseOrderBy(opts.order_by); !keys.ok()) {
      std::fprintf(stderr, "bad --order-by: %s\n",
                   keys.status().ToString().c_str());
      return 1;
    }
  }

  // A CLI-local registry keeps the dump limited to this process's serving
  // metrics; the trace collector is wired in only when requested.
  obs::MetricsRegistry metrics;
  obs::TraceCollector trace;
  QueryCacheOptions cache;
  cache.capacity = opts.cache_capacity;
  shard::EngineBuilder engine_builder;
  engine_builder.WithDataset(opts.dataset)
      .WithScale(opts.scale)
      .WithCache(cache)
      .WithMetrics(&metrics)
      .WithStarIndex(opts.use_index)
      .WithShards(opts.num_shards)
      .WithPartitioner(opts.partitioner)
      .WithShardCache(cache);
  if (!opts.trace_out.empty()) engine_builder.WithTrace(&trace);
  if (!opts.load_path.empty()) engine_builder.WithLoadPath(opts.load_path);
  auto built = engine_builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "engine setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const Graph& graph = *built->graph;
  if (!opts.save_path.empty()) {
    Status st = SaveGraphToFile(graph, opts.save_path);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("saved %zu nodes / %zu edges to %s\n", graph.num_nodes(),
                graph.num_edges(), opts.save_path.c_str());
    return 0;
  }
  if (opts.use_index && built->star_index == nullptr) {
    std::fprintf(stderr, "star index unavailable (%s); continuing\n",
                 built->star_index_note.c_str());
  }

  std::printf("ready: %zu nodes, %zu edges, %s star index, %u shard%s "
              "[%s], cache %zu (%.1f s setup)\n",
              graph.num_nodes(), graph.num_edges(),
              built->star_index != nullptr ? "with" : "without",
              opts.num_shards, opts.num_shards == 1 ? "" : "s",
              opts.partitioner.c_str(), opts.cache_capacity,
              setup_timer.ElapsedSeconds());
  std::printf("type keywords (empty line quits):\n");

  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) break;
    Result<Query> parsed = Query::Parse(line);
    if (!parsed.ok()) {
      std::printf("  error: %s\n", parsed.status().ToString().c_str());
      continue;
    }
    Query query = std::move(parsed).value();
    if (query.empty()) continue;

    SearchOverrides overrides;
    overrides.k = opts.k;
    overrides.max_diameter = opts.diameter;
    overrides.max_expansions = 500000;
    // The star index (when built) is already wired into the engine's
    // default bounds by the EngineBuilder; no per-query override needed.
    if (!opts.executor.empty()) overrides.executor = opts.executor;
    if (opts.deadline_ms > 0.0) overrides.deadline_ms = opts.deadline_ms;
    if (!opts.ranker.empty()) overrides.ranker = opts.ranker;
    if (!opts.order_by.empty()) overrides.order_by = opts.order_by;

    // With the cache on, requesting SearchStats would force a fresh search
    // (a memoized result has no stats to report), so repeated queries go
    // through the cacheable entry point and report cache counters instead.
    // Everything that changes what runs — a deadline, an explicit executor
    // — reports fresh stage stats.
    const bool want_stats = opts.cache_capacity == 0 ||
                            opts.deadline_ms > 0.0 ||
                            !opts.executor.empty() || !opts.ranker.empty() ||
                            !opts.order_by.empty();
    Timer t;
    SearchStats stats;
    auto answers = built->sharded->Search(query, overrides,
                                          want_stats ? &stats : nullptr);
    if (!answers.ok()) {
      std::printf("  error: %s\n", answers.status().ToString().c_str());
      continue;
    }
    if (want_stats) {
      std::printf("  %zu answers in %.3f s via %s%s%s\n", answers->size(),
                  t.ElapsedSeconds(), stats.executor.c_str(),
                  stats.truncated ? "  [TRUNCATED: deadline/budget hit]" : "",
                  stats.budget_exhausted ? "  [expansion budget hit]" : "");
      std::printf("  stages: %lld generated, %lld pruned, %lld merged, "
                  "%lld bound calls, %.1f KiB arena; "
                  "prep %.1f ms / expand %.1f ms / emit %.1f ms\n",
                  static_cast<long long>(stats.stages.candidates_generated),
                  static_cast<long long>(stats.stages.candidates_pruned),
                  static_cast<long long>(stats.stages.candidates_merged),
                  static_cast<long long>(stats.stages.bound_calls),
                  static_cast<double>(stats.stages.arena_bytes) / 1024.0,
                  stats.stages.prepare_seconds * 1e3,
                  stats.stages.expand_seconds * 1e3,
                  stats.stages.emit_seconds * 1e3);
    } else {
      QueryCacheStats cs = built->sharded->cache_stats();
      std::printf("  %zu answers in %.3f s (cache: %llu hits / %llu misses)\n",
                  answers->size(), t.ElapsedSeconds(),
                  static_cast<unsigned long long>(cs.hits),
                  static_cast<unsigned long long>(cs.misses));
    }
    for (size_t i = 0; i < answers->size(); ++i) {
      std::printf("  #%zu score=%.5g %s\n", i + 1, (*answers)[i].score,
                  (*answers)[i].tree.ToString(graph).c_str());
    }
  }

  if (!opts.metrics_out.empty()) {
    const std::string rendered = EndsWith(opts.metrics_out, ".json")
                                     ? metrics.RenderJson()
                                     : metrics.RenderPrometheus();
    if (!WriteTextOutput(opts.metrics_out, rendered, "metrics")) return 1;
    if (opts.metrics_out != "-") {
      std::printf("metrics written to %s\n", opts.metrics_out.c_str());
    }
  }
  if (!opts.trace_out.empty()) {
    if (!WriteTextOutput(opts.trace_out, trace.RenderChromeJson(), "trace")) {
      return 1;
    }
    if (opts.trace_out != "-") {
      std::printf("%zu trace spans written to %s\n", trace.size(),
                  opts.trace_out.c_str());
    }
  }
  return 0;
}
