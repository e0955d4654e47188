// cirank_perfbench: the repository benchmark (see README.md beside it).
//
//   cirank_perfbench --workload search_cold|serve_hot|sharded_feedback
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out PATH]
//   cirank_perfbench --selftest
//
// --trace 0 runs the end-to-end measurement and prints the user-visible
// metrics; --trace 1 runs the separate traced replay and prints the
// per-layer metrics (with --trace-out, also its spans as Chrome trace JSON).
// The last line of standard output is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/baseline_executors.h"
#include "config.h"
#include "obs/log.h"

namespace perfbench {
int RunEndToEnd(const WorkloadConfig& config, uint64_t seed, double seconds);
int RunTraced(const WorkloadConfig& config, uint64_t seed, double seconds,
              const std::string& trace_out);
int RunSelfTests();
}  // namespace perfbench

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: cirank_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH] | --selftest\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    ++i;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown option " + arg).c_str());
    }
  }

  if (cirank::Status st = cirank::RegisterBaselineExecutors(); !st.ok()) {
    std::fprintf(stderr, "executor registration failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (selftest) return perfbench::RunSelfTests();

  const perfbench::WorkloadConfig* config =
      perfbench::FindWorkload(workload);
  if (config == nullptr) return Usage("unknown or missing --workload");
  if (!(seconds > 0.0)) return Usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  // The traced run replays through the layers directly; the server's own
  // slow-query records would only add noise to its spans.
  if (trace == 1) {
    cirank::obs::Logger::Default().set_level(cirank::obs::LogLevel::kError);
    return perfbench::RunTraced(*config, seed, seconds, trace_out);
  }
  return perfbench::RunEndToEnd(*config, seed, seconds);
}
