// The repository benchmark's fixed configuration: the serving stack it
// stands up (cirankd's default wiring) and the three workloads it drives
// through it. Everything a run measures is derived from this table plus the
// workload seed, so two runs with equal arguments send identical requests.
#ifndef CIRANK_PERFBENCH_CONFIG_H_
#define CIRANK_PERFBENCH_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/imdb_gen.h"

namespace perfbench {

// --- The serving stack (cirankd defaults) -----------------------------------
inline constexpr double kScale = 0.25;            // cirankd --scale default
inline constexpr size_t kCacheCapacity = 1024;    // cirankd --cache default
inline constexpr size_t kTraceRingSpans = 4096;   // cirankd's span ring
inline constexpr int kTopK = 5;                   // every /search asks k = 5
inline constexpr uint64_t kDefaultSeed = 1;       // workload seed default
// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepetitions = 5;
// Every query target contributes one keyword (its surname or one title
// word), so queries carry 1-3 keywords, the length of user-log queries.
// Full two-word names make 4-6 keyword queries whose 1-30 s searches would
// set the run-to-run noise of every workload on their own.
inline constexpr double kAmbiguousProb = 1.0;
// The tail percentile every workload reports. The tail rule (the highest of
// p99 / p95 / p90 with >= 10 samples beyond it) would pick p99 on serve_hot,
// but there p99 measures host scheduling hiccups: it moved 0.15-0.41 ms
// between runs of this benchmark while p50 stayed within 3 %.
inline constexpr double kTailPercentile = 90.0;
// Exponent of the Zipf streams. Flat on purpose: at s = 1 a few popular
// queries carry most of sharded_feedback's misses, and their cost, drawn by
// the seed, moved qps by 25 % between seeds.
inline constexpr double kZipfExponent = 0.6;
// Connections that send warm-up requests (untimed, before the window).
inline constexpr int kWarmupConnections = 3;
// Quality metrics score a fixed set of responses per seed: the first this
// many positions of an each-once stream, or every distinct query of a Zipf
// stream. Queries a slow run did not reach are sent after the window,
// untimed, so the metrics are deterministic per seed.
inline constexpr size_t kQualityPositions = 480;

// The IMDB generator options cirankd uses at `scale` (shard::EngineBuilder's
// canonical scaling), with the generator's default graph seed.
cirank::ImdbGenOptions ImdbOptionsAtScale(double scale);

enum class QueryMix {
  kSynthetic,  // GenerateQueries' paper mix: 50% two non-adjacent, 20% 3+
  kUserLog,    // the AOL-log shape: 88.6% single or adjacent
};

enum class StreamShape {
  kEachOnce,  // every distinct query once, in a seeded stratified order
  kZipf,      // seeded Zipf draws over the distinct set
};

struct WorkloadConfig {
  std::string name;
  std::string why;  // one line, mirrored in BENCHMARK.json
  uint32_t shards = 1;
  int connections = 1;       // closed-loop keep-alive client connections
  QueryMix mix = QueryMix::kSynthetic;
  int generated_queries = 0;  // GenerateQueries count before dedup
  StreamShape shape = StreamShape::kEachOnce;
  size_t stream_length = 0;   // kZipf only; connections cycle through it
  int click_interval = 0;     // RecordClick after every N-th search; 0 = none
  bool warm_set = false;      // search every distinct query once, untimed
};

const std::vector<WorkloadConfig>& Workloads();
const WorkloadConfig* FindWorkload(std::string_view name);

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_CONFIG_H_
