// The serving stack under test, assembled with cirankd's default wiring:
// shard::EngineBuilder over the synthetic IMDB graph, star index on, a
// 1,024-entry result cache in front of the engine and the shard facade, a
// private metrics registry, the 4,096-span trace ring, and a CirankServer
// with default ServerOptions on an ephemeral loopback port.
#ifndef CIRANK_PERFBENCH_STACK_H_
#define CIRANK_PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "shard/builder.h"
#include "util/status.h"

namespace perfbench {

// Member order is destruction order reversed: the server stops before the
// engine it serves, and the graph outlives the engine built over it.
struct ServingStack {
  std::unique_ptr<cirank::Dataset> dataset;
  std::unique_ptr<cirank::obs::MetricsRegistry> metrics;
  std::unique_ptr<cirank::obs::TraceCollector> trace;
  cirank::shard::BuiltEngine built;
  std::unique_ptr<cirank::serve::CirankServer> server;
};

// cirankd's ServerOptions on an ephemeral port, recording into `metrics`.
cirank::serve::ServerOptions DefaultServerOptions(
    cirank::obs::MetricsRegistry* metrics);

// cirankd's cache sizing for both the engine and the shard facade.
cirank::QueryCacheOptions DefaultCacheOptions();

// Generates the dataset, builds the engine (with its star-index rebuild)
// and the shard plan, and starts the server: the span `setup_s` times.
[[nodiscard]] cirank::Result<std::unique_ptr<ServingStack>> StartServingStack(
    uint32_t shards);

// VmHWM of this process in MiB, or 0 when /proc is unavailable.
double PeakRssMb();

// Writes `text` to `path`; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_STACK_H_
