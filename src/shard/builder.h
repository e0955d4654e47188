// shard::EngineBuilder — the one construction surface for a serving-ready
// engine (DESIGN.md §16). Everything cirankd, cirank_cli, the benches, and
// the test harness used to hand-roll lives behind one fluent chain:
// dataset generation (or graph load), the optional star index, the one
// engine build (wired to the index as its bound provider), and shard
// attachment:
//
//   CIRANK_ASSIGN_OR_RETURN(
//       shard::BuiltEngine built,
//       shard::EngineBuilder()
//           .WithDataset("imdb").WithScale(0.1)
//           .WithStarIndex(true)
//           .WithShards(4).WithPartitioner("star")
//           .Build());
//   built.sharded->Search(query);
//
// BuiltEngine owns every piece (graph, star index, engine, sharded facade)
// in unique_ptrs so the cross-pointers between them stay stable when the
// bundle is moved. `--shards=N` is just another knob: N = 1 (the default)
// still produces a ShardedEngine, whose single-shard path is a byte-exact
// passthrough to the raw engine.
#ifndef CIRANK_SHARD_BUILDER_H_
#define CIRANK_SHARD_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/engine.h"
#include "index/star_index.h"
#include "shard/sharded_engine.h"

namespace cirank {
namespace shard {

// The assembled serving bundle. Move-only; destruction order (members in
// reverse declaration order) tears the facade down before the engine, the
// engine before the index, the index before the graph.
struct BuiltEngine {
  std::unique_ptr<Graph> owned_graph;     // null when an external graph is used
  std::unique_ptr<StarIndex> star_index;  // null when disabled or unavailable
  std::unique_ptr<CiRankEngine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  // The graph the engine searches, owned or external; always valid.
  const Graph* graph = nullptr;
  // Human-readable source label ("imdb", "dblp", a load path) for statusz.
  std::string dataset;
  // Non-empty when a requested star index could not be built (the engine
  // then serves index-free bounds); callers decide whether to warn.
  std::string star_index_note;
};

class EngineBuilder {
 public:
  // --- Graph source (exactly one wins: graph > load path > dataset) -------
  // Synthetic dataset name ("imdb" or "dblp"); the default is "imdb".
  EngineBuilder& WithDataset(std::string name) {
    dataset_ = std::move(name);
    return *this;
  }
  // Generator scale factor applied to the dataset's entity counts.
  EngineBuilder& WithScale(double scale) {
    scale_ = scale;
    return *this;
  }
  // Generator seed (both dataset generators).
  EngineBuilder& WithSeed(uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  // Load a graph saved with SaveGraphToFile instead of generating one.
  EngineBuilder& WithLoadPath(std::string path) {
    load_path_ = std::move(path);
    return *this;
  }
  // Use an externally owned graph (must outlive the BuiltEngine). Wins over
  // both the dataset and the load path.
  EngineBuilder& WithGraph(const Graph* graph) {
    external_graph_ = graph;
    return *this;
  }

  // --- Engine knobs (forwarded to CiRankEngine::Builder) ------------------
  EngineBuilder& WithEngineOptions(const CiRankOptions& options) {
    engine_options_ = options;
    return *this;
  }
  EngineBuilder& WithSearchDefaults(const SearchOptions& search) {
    engine_options_.search = search;
    return *this;
  }
  EngineBuilder& WithCache(const QueryCacheOptions& cache) {
    engine_options_.cache = cache;
    return *this;
  }
  EngineBuilder& WithMetrics(obs::MetricsRegistry* metrics) {
    engine_options_.metrics = metrics;
    return *this;
  }
  EngineBuilder& WithMetricsEnabled(bool enabled) {
    engine_options_.metrics_enabled = enabled;
    return *this;
  }
  EngineBuilder& WithTrace(obs::TraceCollector* trace) {
    engine_options_.trace = trace;
    return *this;
  }

  // Build the star index and wire it into the engine's default bounds. An
  // index that fails to build (e.g. too many star nodes) degrades to an
  // index-free engine with the reason in BuiltEngine::star_index_note.
  EngineBuilder& WithStarIndex(bool enabled) {
    star_index_ = enabled;
    return *this;
  }

  // --- Sharding knobs -----------------------------------------------------
  EngineBuilder& WithShards(uint32_t num_shards) {
    shard_options_.num_shards = num_shards;
    return *this;
  }
  EngineBuilder& WithPartitioner(std::string name) {
    shard_options_.partitioner = std::move(name);
    return *this;
  }
  EngineBuilder& WithShardParallelism(int parallelism) {
    shard_options_.default_parallelism = parallelism;
    return *this;
  }
  EngineBuilder& WithShardCache(const QueryCacheOptions& cache) {
    shard_options_.cache = cache;
    return *this;
  }

  [[nodiscard]] Result<BuiltEngine> Build() const;

 private:
  std::string dataset_ = "imdb";
  double scale_ = 0.25;
  uint64_t seed_ = 0;  // 0 = generator default
  std::string load_path_;
  const Graph* external_graph_ = nullptr;
  CiRankOptions engine_options_;
  bool star_index_ = false;
  ShardedEngineOptions shard_options_;
};

}  // namespace shard
}  // namespace cirank

#endif  // CIRANK_SHARD_BUILDER_H_
