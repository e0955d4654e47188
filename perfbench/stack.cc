#include "stack.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "config.h"
#include "datasets/imdb_gen.h"

namespace perfbench {

using cirank::Result;

cirank::serve::ServerOptions DefaultServerOptions(
    cirank::obs::MetricsRegistry* metrics) {
  cirank::serve::ServerOptions opts;
  opts.port = 0;
  opts.metrics = metrics;
  opts.dataset = "imdb";
  return opts;
}

cirank::QueryCacheOptions DefaultCacheOptions() {
  cirank::QueryCacheOptions cache;
  cache.capacity = kCacheCapacity;
  return cache;
}

Result<std::unique_ptr<ServingStack>> StartServingStack(uint32_t shards) {
  auto stack = std::make_unique<ServingStack>();
  CIRANK_ASSIGN_OR_RETURN(cirank::Dataset dataset,
                          cirank::BuildImdbDataset(ImdbOptionsAtScale(kScale)));
  stack->dataset = std::make_unique<cirank::Dataset>(std::move(dataset));
  stack->metrics = std::make_unique<cirank::obs::MetricsRegistry>();
  stack->trace = std::make_unique<cirank::obs::TraceCollector>(kTraceRingSpans);
  CIRANK_ASSIGN_OR_RETURN(stack->built,
                          cirank::shard::EngineBuilder()
                              .WithGraph(&stack->dataset->graph)
                              .WithDataset("imdb")
                              .WithCache(DefaultCacheOptions())
                              .WithMetrics(stack->metrics.get())
                              .WithTrace(stack->trace.get())
                              .WithStarIndex(true)
                              .WithShards(shards)
                              .WithPartitioner("hash")
                              .WithShardParallelism(0)
                              .WithShardCache(DefaultCacheOptions())
                              .Build());
  if (stack->built.star_index == nullptr) {
    return cirank::Status::Internal("star index unavailable: " +
                                    stack->built.star_index_note);
  }
  stack->server = std::make_unique<cirank::serve::CirankServer>(
      stack->built.sharded.get(), DefaultServerOptions(stack->metrics.get()));
  CIRANK_RETURN_IF_ERROR(stack->server->Start());
  return stack;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
