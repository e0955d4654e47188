// Google-benchmark microbenchmarks of the core primitives: PageRank power
// iteration, RWMP tree scoring, upper-bound evaluation, and index lookups.
// These are not paper figures; they quantify the building blocks so the
// figure-level timings can be interpreted.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/bounds.h"
#include "core/naive_search.h"
#include "index/star_index.h"
#include "util/random.h"

namespace cirank {
namespace {

// Shared state, built once (dataset generation dominates otherwise).
struct MicroState {
  MicroState() {
    auto ds = BuildImdbDataset(
        bench::ImdbBenchOptions(bench::SmokeMode() ? 0.05 : 0.25));
    dataset = std::make_unique<Dataset>(std::move(ds).value());
    auto eng = CiRankEngine::Builder(dataset->graph).Build();
    engine = std::make_unique<CiRankEngine>(std::move(eng).value());
    star_index = std::make_unique<StarIndex>(
        StarIndex::Build(dataset->graph).value());

    // A representative 3-node answer: actor - movie - actor.
    const Graph& g = dataset->graph;
    for (NodeId m : dataset->star_entities) {
      std::vector<NodeId> actors;
      for (const Edge& e : g.out_edges(m)) {
        if (g.relation_of(e.to) == 1) actors.push_back(e.to);
      }
      if (actors.size() >= 2 &&
          g.text_of(actors[0]) != g.text_of(actors[1])) {
        query = Query::MustParse(g.text_of(actors[0]) + " " +
                             g.text_of(actors[1]));
        tree = std::make_unique<Jtt>(
            Jtt::Create(m, {{m, actors[0]}, {m, actors[1]}}).value());
        break;
      }
    }
  }

  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<CiRankEngine> engine;
  std::unique_ptr<StarIndex> star_index;
  Query query;
  std::unique_ptr<Jtt> tree;
};

MicroState& State() {
  static MicroState* state = new MicroState();
  return *state;
}

void BM_PageRank(benchmark::State& bench_state) {
  MicroState& s = State();
  PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0.0;  // fixed iteration count for stable timing
  for (auto _ : bench_state) {
    auto result = ComputePageRank(s.dataset->graph, opts);
    benchmark::DoNotOptimize(result);
  }
  bench_state.SetItemsProcessed(bench_state.iterations() * 20 *
                                static_cast<int64_t>(
                                    s.dataset->graph.num_edges()));
}
BENCHMARK(BM_PageRank)->Unit(benchmark::kMillisecond);

void BM_TreeScore(benchmark::State& bench_state) {
  MicroState& s = State();
  for (auto _ : bench_state) {
    TreeScore ts = s.engine->ScoreTree(*s.tree, s.query);
    benchmark::DoNotOptimize(ts);
  }
}
BENCHMARK(BM_TreeScore)->Unit(benchmark::kMicrosecond);

void BM_UpperBound(benchmark::State& bench_state) {
  MicroState& s = State();
  const QueryNodeTable nodes(s.engine->scorer(), s.query);
  UpperBoundCalculator calc(s.engine->scorer(), nodes, 4, nullptr);
  Arena arena;
  const Candidate c =
      CandidateFromJtt(*s.tree, s.dataset->graph, nodes, arena);
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(calc.UpperBound(c));
  }
}
BENCHMARK(BM_UpperBound)->Unit(benchmark::kMicrosecond);

void BM_StarIndexLookup(benchmark::State& bench_state) {
  MicroState& s = State();
  const size_t n = s.dataset->graph.num_nodes();
  Rng rng(9);
  for (auto _ : bench_state) {
    NodeId a = static_cast<NodeId>(rng.NextUint(n));
    NodeId b = static_cast<NodeId>(rng.NextUint(n));
    benchmark::DoNotOptimize(s.star_index->DistanceLowerBound(a, b));
  }
}
BENCHMARK(BM_StarIndexLookup);

void BM_TopKSearchIndexed(benchmark::State& bench_state) {
  MicroState& s = State();
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = 4;
  opts.bounds = s.star_index.get();
  for (auto _ : bench_state) {
    auto result = s.engine->Search(s.query, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TopKSearchIndexed)->Unit(benchmark::kMillisecond);

void BM_EnumerateAnswers(benchmark::State& bench_state) {
  MicroState& s = State();
  EnumerateOptions opts;
  opts.max_diameter = 4;
  opts.max_answers = 200;
  for (auto _ : bench_state) {
    auto pool = EnumerateAnswers(s.dataset->graph, s.engine->index(),
                                 s.query, opts);
    benchmark::DoNotOptimize(pool);
  }
}
BENCHMARK(BM_EnumerateAnswers)->Unit(benchmark::kMillisecond);

// Console output plus a BENCH_micro_primitives.json capture: per-benchmark
// mean real time lands in `metrics` as "<name>.real_ms_per_iter".
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      report_->AddMetric(run.benchmark_name() + ".real_ms_per_iter",
                         run.real_accumulated_time /
                             static_cast<double>(run.iterations) * 1e3);
      report_->AddCounter(run.benchmark_name() + ".iterations",
                          run.iterations);
    }
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace cirank

int main(int argc, char** argv) {
  using namespace cirank;
  // Smoke mode shrinks each benchmark to a wiring check, matching the other
  // benches' CIRANK_BENCH_SMOKE contract (benchmark 1.7 takes a plain
  // seconds value here).
  std::vector<char*> args(argv, argv + argc);
  char min_time_flag[] = "--benchmark_min_time=0.01";
  if (bench::SmokeMode()) args.push_back(min_time_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  bench::BenchReport report("micro_primitives");
  CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return report.Write() ? 0 : 1;
}
