#include "config.h"

namespace perfbench {

cirank::ImdbGenOptions ImdbOptionsAtScale(double scale) {
  cirank::ImdbGenOptions gen;
  gen.num_movies = static_cast<int>(4000 * scale);
  gen.num_actors = static_cast<int>(5000 * scale);
  gen.num_actresses = static_cast<int>(3000 * scale);
  gen.num_directors = static_cast<int>(800 * scale);
  gen.num_producers = static_cast<int>(500 * scale);
  gen.num_companies = static_cast<int>(300 * scale);
  return gen;
}

const std::vector<WorkloadConfig>& Workloads() {
  static const std::vector<WorkloadConfig> kWorkloads = [] {
    std::vector<WorkloadConfig> w;

    WorkloadConfig cold;
    cold.name = "search_cold";
    cold.why =
        "distinct paper-mix queries, each sent once, so every request misses "
        "the cache and core branch-and-bound does the work";
    cold.shards = 1;
    // Two connections, not one: with one, peak_rss_mb followed the single
    // heaviest query a seed drew (23 % spread over ten seeds; 7 % over five with two),
    // and the window holds half the samples. p50 moved by under 2 %.
    cold.connections = 2;
    cold.mix = QueryMix::kSynthetic;
    cold.generated_queries = 2400;
    cold.shape = StreamShape::kEachOnce;
    w.push_back(cold);

    WorkloadConfig hot;
    hot.name = "serve_hot";
    hot.why =
        "a warmed set of user-log queries replayed in Zipf order, so every "
        "request is a cache hit and HTTP, JSON and sockets do the work";
    hot.shards = 1;
    hot.connections = 2;
    hot.mix = QueryMix::kUserLog;
    hot.generated_queries = 256;
    hot.shape = StreamShape::kZipf;
    hot.stream_length = 1u << 16;
    hot.warm_set = true;
    w.push_back(hot);

    WorkloadConfig sharded;
    sharded.name = "sharded_feedback";
    sharded.why =
        "a Zipf user-log stream over 2 hash shards with a click after every "
        "8th search, so scatter-gather misses and cache flushes do the work";
    sharded.shards = 2;
    // Two connections (4 busy threads with the fan-out, as many as the
    // 4-vCPU host) for the same reason as search_cold: peak_rss_mb spread
    // 19 % over ten seeds with one, 9 % over five with two. Each connection clicks
    // after every 8th search of its own slice of the stream; the traced run
    // replays the stream on one thread, so its counts repeat exactly.
    sharded.connections = 2;
    sharded.mix = QueryMix::kUserLog;
    sharded.generated_queries = 320;
    sharded.shape = StreamShape::kZipf;
    sharded.stream_length = 1u << 13;
    sharded.click_interval = 8;
    w.push_back(sharded);
    return w;
  }();
  return kWorkloads;
}

const WorkloadConfig* FindWorkload(std::string_view name) {
  for (const WorkloadConfig& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
