// The per-query arena end to end: run the arena-backed branch-and-bound
// executor on bench-scale IMDB queries and record its stage stats (arena
// bytes, generated/pruned counters). Admitted candidates are flat and
// trivially destructible, so a query's arena is released without running a
// destructor; the JSON tracks what that arena holds per query.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "util/timer.h"
#include "util/status.h"

namespace cirank {
namespace {

void EndToEnd(bench::BenchReport* report) {
  bench::BenchSetup setup = bench::MakeImdbSetup(
      /*num_queries=*/8, /*user_log_style=*/false, /*query_seed=*/3001,
      bench::BenchScale(), /*ambiguous_prob=*/0.0);
  bench::PrintDatasetLine(*setup.dataset);
  const CiRankEngine& engine = *setup.engine;

  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;
  opts.max_expansions = 20000;

  std::vector<double> search_ms;
  SearchStats last;
  int64_t arena_bytes = 0, generated = 0, pruned = 0;
  for (const LabeledQuery& lq : setup.queries) {
    Timer t;
    SearchStats stats;
    CIRANK_IGNORE_ERROR(engine.Search(lq.query, opts, &stats));
    search_ms.push_back(t.ElapsedSeconds() * 1e3);
    arena_bytes += static_cast<int64_t>(stats.stages.arena_bytes);
    generated += stats.stages.candidates_generated;
    pruned += stats.stages.candidates_pruned;
    last = stats;
  }
  std::printf("end-to-end (%zu queries): %lld candidates generated, "
              "%lld pruned, %lld arena bytes total\n",
              search_ms.size(), static_cast<long long>(generated),
              static_cast<long long>(pruned),
              static_cast<long long>(arena_bytes));

  report->AddLatencySeries("bnb_search", search_ms);
  report->AddCounter("search.arena_bytes_total", arena_bytes);
  report->AddCounter("search.candidates_generated", generated);
  report->AddCounter("search.candidates_pruned", pruned);
  report->AddSearchStats("last_query", last);
}

}  // namespace
}  // namespace cirank

int main() {
  cirank::bench::PrintFigureHeader(
      "Arena pipeline", "per-query arena use of the branch-and-bound search");
  cirank::bench::BenchReport report("arena_pipeline");
  cirank::EndToEnd(&report);
  return report.Write() ? 0 : 1;
}
