#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "index/star_index.h"
#include "util/status.h"

namespace cirank {
namespace bench {

bool SmokeMode() {
  const char* env = std::getenv("CIRANK_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

double BenchScale() {
  double scale = 1.0;
  if (const char* env = std::getenv("CIRANK_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) scale = v;
  }
  // Smoke mode exists to exercise the wiring, not to measure: clamp the
  // datasets to the minimum that still runs every code path.
  if (SmokeMode()) scale = std::min(scale, 0.05);
  return scale;
}

namespace {
int Scaled(int base, double scale) {
  const int v = static_cast<int>(base * scale);
  return v < 4 ? 4 : v;
}

// Builds the engine through the fluent Builder (the construction surface
// every caller now shares) and attaches the single-shard serving facade.
void AttachEngine(BenchSetup* setup) {
  auto engine = CiRankEngine::Builder(setup->dataset->graph).Build();
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  setup->engine = std::make_unique<CiRankEngine>(std::move(engine).value());
  auto sharded = shard::ShardedEngine::Attach(setup->engine.get());
  if (!sharded.ok()) {
    std::fprintf(stderr, "shard attach failed: %s\n",
                 sharded.status().ToString().c_str());
    std::exit(1);
  }
  setup->sharded =
      std::make_unique<shard::ShardedEngine>(std::move(sharded).value());
}
}  // namespace

ImdbGenOptions ImdbBenchOptions(double scale) {
  ImdbGenOptions opts;
  opts.num_movies = Scaled(1500, scale);
  opts.num_actors = Scaled(2000, scale);
  opts.num_actresses = Scaled(1000, scale);
  opts.num_directors = Scaled(300, scale);
  opts.num_producers = Scaled(200, scale);
  opts.num_companies = Scaled(100, scale);
  opts.seed = 1001;
  return opts;
}

DblpGenOptions DblpBenchOptions(double scale) {
  DblpGenOptions opts;
  opts.num_papers = Scaled(2500, scale);
  opts.num_authors = Scaled(1800, scale);
  opts.num_conferences = 24;
  opts.seed = 2002;
  return opts;
}

BenchSetup MakeImdbSetup(int num_queries, bool user_log_style,
                         uint64_t query_seed, double scale,
                         double ambiguous_prob) {
  BenchSetup setup;
  auto ds = BuildImdbDataset(ImdbBenchOptions(scale));
  if (!ds.ok()) {
    std::fprintf(stderr, "imdb generation failed: %s\n",
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  setup.dataset = std::make_unique<Dataset>(std::move(ds).value());
  AttachEngine(&setup);

  QueryGenOptions qopts;
  qopts.num_queries = num_queries;
  qopts.user_log_style = user_log_style;
  qopts.ambiguous_prob = ambiguous_prob;
  qopts.seed = query_seed;
  auto queries = GenerateQueries(*setup.dataset, qopts);
  if (!queries.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 queries.status().ToString().c_str());
    std::exit(1);
  }
  setup.queries = std::move(queries).value();
  return setup;
}

BenchSetup MakeDblpSetup(int num_queries, uint64_t query_seed, double scale,
                         double ambiguous_prob) {
  BenchSetup setup;
  auto ds = BuildDblpDataset(DblpBenchOptions(scale));
  if (!ds.ok()) {
    std::fprintf(stderr, "dblp generation failed: %s\n",
                 ds.status().ToString().c_str());
    std::exit(1);
  }
  setup.dataset = std::make_unique<Dataset>(std::move(ds).value());
  AttachEngine(&setup);

  QueryGenOptions qopts;
  qopts.num_queries = num_queries;
  qopts.ambiguous_prob = ambiguous_prob;
  qopts.seed = query_seed;
  auto queries = GenerateQueries(*setup.dataset, qopts);
  if (!queries.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n",
                 queries.status().ToString().c_str());
    std::exit(1);
  }
  setup.queries = std::move(queries).value();
  return setup;
}

void PrintFigureHeader(const std::string& figure,
                       const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s -- %s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

void PrintDatasetLine(const Dataset& ds) {
  std::printf("dataset %-5s : %zu nodes, %zu edges\n", ds.name.c_str(),
              ds.graph.num_nodes(), ds.graph.num_edges());
}

double PercentileMs(std::vector<double> samples_ms, double pct) {
  if (samples_ms.empty()) return 0.0;
  std::sort(samples_ms.begin(), samples_ms.end());
  const double clamped = std::min(100.0, std::max(0.0, pct));
  // Nearest-rank: ceil(p/100 * N), 1-based.
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples_ms.size())));
  if (rank == 0) rank = 1;
  return samples_ms[rank - 1];
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void BenchReport::AddMetric(const std::string& key, double value) {
  metrics_.emplace_back(key, value);
}

void BenchReport::AddCounter(const std::string& key, int64_t value) {
  counters_.emplace_back(key, value);
}

void BenchReport::AddLatencySeries(const std::string& series,
                                   const std::vector<double>& samples_ms) {
  Series s;
  s.name = series;
  s.count = samples_ms.size();
  s.p50_ms = PercentileMs(samples_ms, 50.0);
  s.p95_ms = PercentileMs(samples_ms, 95.0);
  double sum = 0.0;
  for (double v : samples_ms) sum += v;
  s.mean_ms = samples_ms.empty()
                  ? 0.0
                  : sum / static_cast<double>(samples_ms.size());
  latency_.push_back(std::move(s));
}

void BenchReport::AddSearchStats(const std::string& prefix,
                                 const SearchStats& stats) {
  counters_.emplace_back(prefix + ".popped", stats.popped);
  counters_.emplace_back(prefix + ".generated", stats.generated);
  counters_.emplace_back(prefix + ".answers_found", stats.answers_found);
  counters_.emplace_back(prefix + ".truncated", stats.truncated ? 1 : 0);
  counters_.emplace_back(prefix + ".candidates_pruned",
                         stats.stages.candidates_pruned);
  counters_.emplace_back(prefix + ".candidates_merged",
                         stats.stages.candidates_merged);
  counters_.emplace_back(prefix + ".bound_calls", stats.stages.bound_calls);
  counters_.emplace_back(prefix + ".arena_bytes",
                         static_cast<int64_t>(stats.stages.arena_bytes));
}

namespace {

// All keys are library-chosen identifiers, but escape defensively so a
// stray quote can never produce malformed JSON.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// JSON has no NaN/Inf literals; clamp to null-adjacent 0 with a marker key
// impossible, so just emit 0 for non-finite values.
double Finite(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

bool BenchReport::Write(const obs::MetricsRegistry* registry) const {
  if (registry == nullptr) registry = &obs::MetricsRegistry::Default();
  std::string dir = ".";
  if (const char* env = std::getenv("CIRANK_BENCH_JSON_DIR")) {
    if (env[0] != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench report: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out.precision(17);
  out << "{\n  \"bench\": \"" << JsonEscape(name_) << "\",\n"
      << "  \"scale\": " << Finite(BenchScale()) << ",\n"
      << "  \"smoke\": " << (SmokeMode() ? "true" : "false") << ",\n";
  out << "  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(metrics_[i].first)
        << "\": " << Finite(metrics_[i].second);
  }
  out << (metrics_.empty() ? "},\n" : "\n  },\n");
  out << "  \"counters\": {";
  for (size_t i = 0; i < counters_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << JsonEscape(counters_[i].first) << "\": " << counters_[i].second;
  }
  out << (counters_.empty() ? "},\n" : "\n  },\n");
  out << "  \"latency_ms\": {";
  for (size_t i = 0; i < latency_.size(); ++i) {
    const Series& s = latency_[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << JsonEscape(s.name)
        << "\": { \"p50\": " << Finite(s.p50_ms)
        << ", \"p95\": " << Finite(s.p95_ms)
        << ", \"mean\": " << Finite(s.mean_ms) << ", \"count\": " << s.count
        << " }";
  }
  out << (latency_.empty() ? "},\n" : "\n  },\n");
  // Serving-path observability snapshot (DESIGN.md §11): whatever the
  // engine/pipeline instrumentation recorded while this bench ran.
  out << "  \"registry\": " << registry->RenderJson() << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench report: write to %s failed\n", path.c_str());
    return false;
  }
  std::printf("bench report: %s\n", path.c_str());

  const std::string prom_path = dir + "/BENCH_" + name_ + ".prom";
  std::ofstream prom(prom_path);
  if (!prom) {
    std::fprintf(stderr, "bench report: cannot open %s for writing\n",
                 prom_path.c_str());
    return false;
  }
  prom << registry->RenderPrometheus();
  prom.close();
  if (!prom) {
    std::fprintf(stderr, "bench report: write to %s failed\n",
                 prom_path.c_str());
    return false;
  }
  std::printf("bench metrics: %s\n", prom_path.c_str());
  return true;
}

void RunIndexFigure(BenchSetup setup, const char* label,
                    BenchReport* report) {
  PrintDatasetLine(*setup.dataset);
  const CiRankEngine& engine = *setup.engine;

  Timer build_timer;
  auto index = StarIndex::Build(setup.dataset->graph);
  if (!index.ok()) {
    std::fprintf(stderr, "star index build failed: %s\n",
                 index.status().ToString().c_str());
    return;
  }
  const double build_seconds = build_timer.ElapsedSeconds();
  obs::MetricsRegistry::Default()
      .GetGauge("cirank_build_star_index_seconds",
                "Wall time of the last star-index build")
      .Set(build_seconds);
  std::printf(
      "star index: %zu star nodes, %.1f MiB, built in %.2f s\n",
      index->num_star_nodes(),
      static_cast<double>(index->MemoryBytes()) / (1024.0 * 1024.0),
      build_seconds);

  // Keep only structurally interesting queries (those needing connectors).
  // CIRANK_BENCH_QUERIES / CIRANK_BENCH_BUDGET trade fidelity for runtime
  // on slow machines.
  size_t max_queries = 8;
  if (const char* env = std::getenv("CIRANK_BENCH_QUERIES")) {
    const int v = std::atoi(env);
    if (v > 0) max_queries = static_cast<size_t>(v);
  }
  int64_t budget = 100000;
  if (const char* env = std::getenv("CIRANK_BENCH_BUDGET")) {
    const long long v = std::atoll(env);
    if (v > 0) budget = v;
  }
  std::vector<LabeledQuery> queries;
  for (const LabeledQuery& lq : setup.queries) {
    if (lq.kind == LabeledQuery::Kind::kTwoNonAdjacent ||
        lq.kind == LabeledQuery::Kind::kThreePlus) {
      queries.push_back(lq);
    }
    if (queries.size() == max_queries) break;
  }
  if (queries.empty()) queries = setup.queries;

  std::printf("%-4s %-24s %-24s\n", "D", "upper-bound search (s)",
              "+ star index (s)");
  for (uint32_t d : {4u, 5u, 6u}) {
    TimingStats plain_time, indexed_time;
    std::vector<double> plain_ms, indexed_ms;
    long long plain_budget_hits = 0, indexed_budget_hits = 0;
    for (const LabeledQuery& lq : queries) {
      SearchOptions opts;
      opts.k = 5;
      opts.max_diameter = d;
      opts.max_expansions = budget;

      Timer t;
      SearchStats stats;
      CIRANK_IGNORE_ERROR(engine.Search(lq.query, opts, &stats));
      plain_time.Add(t.ElapsedSeconds());
      plain_ms.push_back(t.ElapsedSeconds() * 1e3);
      plain_budget_hits += stats.budget_exhausted ? 1 : 0;

      opts.bounds = &index.value();
      t.Reset();
      CIRANK_IGNORE_ERROR(engine.Search(lq.query, opts, &stats));
      indexed_time.Add(t.ElapsedSeconds());
      indexed_ms.push_back(t.ElapsedSeconds() * 1e3);
      indexed_budget_hits += stats.budget_exhausted ? 1 : 0;
    }
    std::printf("%-4u %-24.3f %-24.3f", d, plain_time.mean(),
                indexed_time.mean());
    if (plain_budget_hits + indexed_budget_hits > 0) {
      std::printf("  [budget hits: %lld plain, %lld indexed]",
                  plain_budget_hits, indexed_budget_hits);
    }
    std::printf("\n");
    if (report != nullptr) {
      const std::string suffix = ".d" + std::to_string(d);
      report->AddLatencySeries("plain" + suffix, plain_ms);
      report->AddLatencySeries("indexed" + suffix, indexed_ms);
      report->AddCounter("budget_hits.plain" + suffix, plain_budget_hits);
      report->AddCounter("budget_hits.indexed" + suffix, indexed_budget_hits);
    }
  }
  if (report != nullptr) {
    report->AddCounter("star_nodes",
                       static_cast<int64_t>(index->num_star_nodes()));
    report->AddCounter("index_bytes",
                       static_cast<int64_t>(index->MemoryBytes()));
    report->AddMetric("index_build_seconds", build_seconds);
  }
  std::printf("(%s, k=5, averaged over %zu connector queries)\n\n", label,
              queries.size());
}

}  // namespace bench
}  // namespace cirank
