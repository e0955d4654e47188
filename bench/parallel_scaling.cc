// Parallel top-k serving scaling: speedup of inter-query parallelism at
// 1/2/4/8 threads on the DBLP synthetic dataset, against the serial
// branch-and-bound baseline.
//
//   (a) inter-query: CiRankEngine::SearchBatch spreads whole queries over
//       the pool (embarrassingly parallel, the paper's serving scenario);
//   (b) warm cache: the same batch served from the LRU result cache.
//
// Every parallel run is verified against the serial answers — exactness is
// part of the benchmark's contract, not a separate test concern. Speedups
// are only meaningful on a machine with that many physical cores; the
// harness prints the detected core count so a 1-core CI box reporting
// ~1.0x reads as expected, not broken.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/status.h"

namespace cirank {
namespace {

struct Verified {
  long long mismatches = 0;
  long long compared = 0;
};

void CheckIdentical(const std::vector<RankedAnswer>& expected,
                    const std::vector<RankedAnswer>& actual, Verified* v) {
  ++v->compared;
  if (expected.size() != actual.size()) {
    ++v->mismatches;
    return;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].score != actual[i].score ||
        expected[i].tree.CanonicalKey() != actual[i].tree.CanonicalKey()) {
      ++v->mismatches;
      return;
    }
  }
}

void Run(bench::BenchReport* report) {
  bench::BenchSetup setup = bench::MakeDblpSetup(
      /*num_queries=*/16, /*query_seed=*/2024, bench::BenchScale(),
      /*ambiguous_prob=*/0.0);
  bench::PrintDatasetLine(*setup.dataset);
  const CiRankEngine& engine = *setup.engine;
  std::printf("hardware threads detected: %d\n\n",
              ThreadPool::HardwareThreads());

  std::vector<Query> queries;
  for (const LabeledQuery& lq : setup.queries) queries.push_back(lq.query);

  SearchOverrides overrides;
  overrides.k = 5;
  overrides.max_diameter = 4;
  // Same budget as the paper-figure benches: common-word queries on the
  // dense co-authorship graph are exactly the regime where unbudgeted
  // search blows up (that is Fig. 10's point).
  overrides.max_expansions = 20000;
  const SearchOptions opts = engine.EffectiveOptions(overrides);

  // Serial baseline (and the exactness reference).
  std::vector<std::vector<RankedAnswer>> reference;
  size_t num_exact = 0;
  Timer t;
  for (const Query& q : queries) {
    SearchStats stats;
    auto r = engine.Search(q, opts, &stats);
    reference.push_back(r.ok() ? std::move(r).value()
                               : std::vector<RankedAnswer>{});
    if (r.ok() && stats.proven_optimal) ++num_exact;
  }
  const double serial_s = t.ElapsedSeconds();
  std::printf("serial baseline: %7.3f s for %zu queries "
              "(k=5, D=4, budget 20k; %zu proven-optimal)\n\n",
              serial_s, queries.size(), num_exact);
  report->AddMetric("serial_seconds", serial_s);
  report->AddCounter("queries", static_cast<int64_t>(queries.size()));
  report->AddCounter("proven_optimal", static_cast<int64_t>(num_exact));

  // SearchBatch runs the deterministic serial search per query, so entries
  // must match the reference byte for byte even on budget-capped queries.
  std::printf("(a) inter-query: SearchBatch, cache off\n");
  std::printf("    %-8s %10s %9s %12s\n", "threads", "time (s)", "speedup",
              "verified");
  for (int threads : {1, 2, 4, 8}) {
    BatchSearchOptions batch;
    batch.num_threads = threads;
    batch.use_cache = false;
    batch.overrides = overrides;
    t.Reset();
    auto results = engine.SearchBatch(queries, batch);
    const double batch_s = t.ElapsedSeconds();
    Verified v;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (results[i].ok()) CheckIdentical(reference[i], *results[i], &v);
    }
    std::printf("    %-8d %10.3f %8.2fx %6lld/%lld%s\n", threads, batch_s,
                serial_s / batch_s, v.compared - v.mismatches, v.compared,
                v.mismatches != 0 ? "  MISMATCH" : "");
    const std::string key = "batch.t" + std::to_string(threads);
    report->AddMetric(key + ".seconds", batch_s);
    report->AddMetric(key + ".speedup", serial_s / batch_s);
    report->AddCounter(key + ".mismatches", v.mismatches);
  }

  std::printf("\n(b) warm cache: SearchBatch with the LRU result cache\n");
  {
    BatchSearchOptions batch;
    batch.num_threads = 4;
    batch.overrides = overrides;
    CIRANK_IGNORE_ERROR(engine.SearchBatch(queries, batch));  // warm
    t.Reset();
    CIRANK_IGNORE_ERROR(engine.SearchBatch(queries, batch));
    const double warm_s = t.ElapsedSeconds();
    QueryCacheStats cs = engine.cache_stats();
    std::printf("    warm pass: %7.4f s (%6.1fx vs serial cold); "
                "cache hits=%llu misses=%llu\n",
                warm_s, serial_s / warm_s,
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses));
    report->AddMetric("warm_cache.seconds", warm_s);
    report->AddMetric("warm_cache.speedup", serial_s / warm_s);
    report->AddCounter("cache_hits", static_cast<int64_t>(cs.hits));
    report->AddCounter("cache_misses", static_cast<int64_t>(cs.misses));
  }
}

}  // namespace
}  // namespace cirank

int main() {
  cirank::bench::PrintFigureHeader(
      "Parallel scaling",
      "top-k serving speedup at 1/2/4/8 threads, exactness-verified");
  cirank::bench::BenchReport report("parallel_scaling");
  cirank::Run(&report);
  return report.Write() ? 0 : 1;
}
