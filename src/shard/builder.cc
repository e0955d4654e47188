#include "shard/builder.h"

#include <utility>

#include "datasets/dblp_gen.h"
#include "datasets/imdb_gen.h"
#include "graph/serialize.h"
#include "util/check.h"

namespace cirank {
namespace shard {

namespace {

// The canonical dataset scaling (the numbers cirankd has always used, now
// in one place): entity counts scale linearly, the conference pool stays
// fixed like the real DBLP's venue count.
Result<Graph> GenerateGraph(const std::string& dataset, double scale,
                            uint64_t seed) {
  if (dataset == "imdb") {
    ImdbGenOptions gen;
    gen.num_movies = static_cast<int>(4000 * scale);
    gen.num_actors = static_cast<int>(5000 * scale);
    gen.num_actresses = static_cast<int>(3000 * scale);
    gen.num_directors = static_cast<int>(800 * scale);
    gen.num_producers = static_cast<int>(500 * scale);
    gen.num_companies = static_cast<int>(300 * scale);
    if (seed != 0) gen.seed = seed;
    CIRANK_ASSIGN_OR_RETURN(Dataset ds, BuildImdbDataset(gen));
    return std::move(ds.graph);
  }
  if (dataset == "dblp") {
    DblpGenOptions gen;
    gen.num_papers = static_cast<int>(6000 * scale);
    gen.num_authors = static_cast<int>(4000 * scale);
    gen.num_conferences = 24;
    if (seed != 0) gen.seed = seed;
    CIRANK_ASSIGN_OR_RETURN(Dataset ds, BuildDblpDataset(gen));
    return std::move(ds.graph);
  }
  return Status::InvalidArgument("unknown dataset: " + dataset);
}

}  // namespace

Result<BuiltEngine> EngineBuilder::Build() const {
  BuiltEngine built;

  // 1. Graph: external > load path > generated dataset.
  if (external_graph_ != nullptr) {
    built.graph = external_graph_;
    built.dataset = dataset_;
  } else if (!load_path_.empty()) {
    CIRANK_ASSIGN_OR_RETURN(Graph graph, LoadGraphFromFile(load_path_));
    built.owned_graph = std::make_unique<Graph>(std::move(graph));
    built.graph = built.owned_graph.get();
    built.dataset = load_path_;
  } else {
    CIRANK_ASSIGN_OR_RETURN(Graph graph,
                            GenerateGraph(dataset_, scale_, seed_));
    built.owned_graph = std::make_unique<Graph>(std::move(graph));
    built.graph = built.owned_graph.get();
    built.dataset = dataset_;
  }

  // 2. The optional star index, then the engine. The index reads the graph
  // only, so it is built first and the engine is built once with its
  // address as the default bound provider. The address is stable
  // (unique_ptr), so the engine's pointer survives moves of the bundle.
  CiRankEngine::Builder engine_builder(*built.graph);
  engine_builder.WithOptions(engine_options_);
  if (star_index_) {
    Result<StarIndex> index = StarIndex::Build(*built.graph);
    if (index.ok()) {
      built.star_index =
          std::make_unique<StarIndex>(std::move(index).value());
      engine_builder.WithBounds(built.star_index.get());
    } else {
      built.star_index_note = index.status().ToString();
    }
  }
  CIRANK_ASSIGN_OR_RETURN(CiRankEngine engine, engine_builder.Build());
  built.engine = std::make_unique<CiRankEngine>(std::move(engine));

  // 3. The sharded facade — also for num_shards = 1, where it is a
  // byte-exact passthrough, so every caller serves through one type.
  CIRANK_ASSIGN_OR_RETURN(
      ShardedEngine sharded,
      ShardedEngine::Attach(built.engine.get(), shard_options_));
  built.sharded = std::make_unique<ShardedEngine>(std::move(sharded));
  return built;
}

}  // namespace shard
}  // namespace cirank
