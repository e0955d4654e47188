// Seeded request streams. The workload seed drives query generation and the
// stream order; the graph always comes from the generator's default seed, so
// set-up time and memory compare like with like across seeds.
#ifndef CIRANK_PERFBENCH_WORKLOAD_H_
#define CIRANK_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "config.h"
#include "datasets/dataset.h"
#include "datasets/query_gen.h"
#include "util/status.h"

namespace perfbench {

// One POST /search exactly as it goes on the wire.
struct WireRequest {
  std::string bytes;     // head + body
  size_t head_size = 0;  // bytes[0, head_size) is the head incl. blank line
};

struct StreamEntry {
  uint32_t query = 0;        // index into WorkloadInput::queries
  bool click_after = false;  // RecordClick on the top answer's root after it
};

struct WorkloadInput {
  std::vector<cirank::LabeledQuery> queries;  // distinct by keyword set
  std::vector<WireRequest> requests;          // parallel to `queries`
  std::vector<StreamEntry> stream;            // the timed request order
  std::vector<StreamEntry> warmup;            // sent untimed before it
};

// Renders the request for `query` with k = kTopK.
WireRequest MakeSearchRequest(const cirank::Query& query);

// The keyword set a query is deduplicated by (sorted, space-joined).
std::string NormalizedKey(const cirank::Query& query);

[[nodiscard]] cirank::Result<WorkloadInput> MakeWorkloadInput(
    const WorkloadConfig& config, const cirank::Dataset& dataset,
    uint64_t seed);

}  // namespace perfbench

#endif  // CIRANK_PERFBENCH_WORKLOAD_H_
