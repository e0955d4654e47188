// Self-tests of the benchmark's own logic: the tail rule, error counting,
// the answer checker against tampered responses, and seed determinism of the
// request streams. Run with --selftest; exits non-zero on any failure.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "answers.h"
#include "config.h"
#include "core/engine.h"
#include "datasets/imdb_gen.h"
#include "serve/request.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what.c_str());
  if (!condition) ++g_failures;
}

void TestTailRule() {
  Expect(TailPercentileFor(99) == 0.0, "tail rule: 99 samples -> none");
  Expect(TailPercentileFor(100) == 90.0, "tail rule: 100 samples -> p90");
  Expect(TailPercentileFor(199) == 90.0, "tail rule: 199 samples -> p90");
  Expect(TailPercentileFor(200) == 95.0, "tail rule: 200 samples -> p95");
  Expect(TailPercentileFor(999) == 95.0, "tail rule: 999 samples -> p95");
  Expect(TailPercentileFor(1000) == 99.0, "tail rule: 1000 samples -> p99");
  Expect(SamplesBeyond(1000, 99.0) == 10 && SamplesBeyond(200, 95.0) == 10,
         "tail rule: exactly ten samples beyond at the thresholds");
  std::vector<double> ramp;
  for (int i = 1; i <= 101; ++i) ramp.push_back(i);
  Expect(Percentile(ramp, 50) == 51.0 && Percentile(ramp, 90) == 91.0,
         "percentile interpolation on 1..101");
}

void TestErrorCounting() {
  OpCounts counts;
  for (int i = 0; i < 7; ++i) counts.Add(true);
  counts.Add(false);
  OpCounts clicks;
  clicks.Add(true);
  clicks.Add(false);
  counts.Merge(clicks);
  Expect(counts.attempted == 10 && counts.failed == 2 &&
             counts.ErrorRate() == 0.2,
         "error_rate: 2 failed of 10 attempted (searches and clicks) = 0.2");
  Expect(OpCounts().ErrorRate() == 0.0, "error_rate: nothing attempted = 0");
}

std::string Envelope(const std::vector<cirank::RankedAnswer>& answers,
                     const cirank::Graph& graph) {
  return "{\"query\":\"q\",\"answers\":" +
         cirank::serve::RenderAnswersJson(answers, graph) +
         ",\"stats\":{}}";
}

// The tree minus one leaf whose removal uncovers a query keyword.
bool DropKeywordLeaf(const cirank::Jtt& tree, const cirank::Query& query,
                     const cirank::InvertedIndex& index, cirank::Jtt* out) {
  for (const auto& [parent, child] : tree.edges()) {
    if (tree.DegreeOf(child) != 1) continue;
    std::vector<std::pair<cirank::NodeId, cirank::NodeId>> kept;
    for (const auto& e : tree.edges()) {
      if (e.second != child) kept.push_back(e);
    }
    auto pruned = cirank::Jtt::Create(tree.root(), kept);
    if (pruned.ok() && !pruned->CoversAllKeywords(query, index)) {
      *out = std::move(pruned).value();
      return true;
    }
  }
  return false;
}

void TestAnswerChecker(const cirank::Dataset& dataset) {
  auto engine = cirank::CiRankEngine::Builder(dataset.graph)
                    .WithMetricsEnabled(false)
                    .Build();
  if (!engine.ok()) {
    Expect(false, "engine build: " + engine.status().ToString());
    return;
  }
  CheckContext check;
  check.index = &engine->index();
  check.max_diameter = engine->options().search.max_diameter;
  check.k = kTopK;

  // A synthetic query with at least two answers, the first one a tree of
  // several nodes with distinct scores in front.
  cirank::QueryGenOptions gen;
  gen.num_queries = 24;
  gen.seed = 5;
  auto queries = cirank::GenerateQueries(dataset, gen);
  if (!queries.ok()) {
    Expect(false, "query generation: " + queries.status().ToString());
    return;
  }
  for (const cirank::LabeledQuery& lq : *queries) {
    if (lq.query.keywords.size() < 2) continue;
    auto answers =
        engine->Search(lq.query, cirank::SearchOverrides().WithK(kTopK));
    if (!answers.ok() || answers->size() < 2 || answers->front().tree.size() < 2 ||
        (*answers)[0].score == (*answers)[1].score) {
      continue;
    }
    const cirank::Graph& graph = dataset.graph;
    const std::vector<cirank::RankedAnswer>& good = *answers;
    OpCounts counts;
    auto verdict = [&](const std::vector<cirank::RankedAnswer>& served) {
      const bool ok = CheckResponse(Envelope(served, graph), lq.query, check).ok();
      counts.Add(ok);
      return ok;
    };
    Expect(verdict(good), "checker accepts the engine's own answers");

    std::vector<cirank::RankedAnswer> reordered = good;
    std::swap(reordered[0].score, reordered[1].score);
    Expect(!verdict(reordered), "checker rejects reordered scores");

    std::vector<cirank::RankedAnswer> dropped = good;
    cirank::Jtt pruned;
    const bool have_leaf =
        DropKeywordLeaf(good[0].tree, lq.query, engine->index(), &pruned);
    dropped[0].tree = pruned;
    Expect(have_leaf && !verdict(dropped),
           "checker rejects an answer with a dropped keyword");

    std::vector<cirank::RankedAnswer> duplicated = good;
    duplicated[1] = duplicated[0];
    Expect(!verdict(duplicated), "checker rejects a duplicate tree");

    std::vector<cirank::RankedAnswer> too_many = good;
    while (too_many.size() <= static_cast<size_t>(kTopK)) {
      too_many.push_back(too_many.back());
      too_many.back().score -= 1.0;
    }
    Expect(!verdict(too_many), "checker rejects more than k answers");

    Expect(counts.failed == 4 && counts.ErrorRate() > 0.0,
           "tampered answers make error_rate non-zero (" +
               std::to_string(counts.failed) + " of " +
               std::to_string(counts.attempted) + ")");
    return;
  }
  Expect(false, "found a query with two distinctly scored answers");
}

void TestSeedDeterminism(const cirank::Dataset& dataset) {
  for (const WorkloadConfig& config : Workloads()) {
    auto a = MakeWorkloadInput(config, dataset, 1);
    auto b = MakeWorkloadInput(config, dataset, 1);
    auto c = MakeWorkloadInput(config, dataset, 2);
    if (!a.ok() || !b.ok() || !c.ok()) {
      Expect(false, config.name + ": stream generation failed");
      continue;
    }
    auto wire = [](const WorkloadInput& in) {
      std::vector<std::string> out;
      for (const auto* list : {&in.warmup, &in.stream}) {
        for (const StreamEntry& e : *list) {
          out.push_back(in.requests[e.query].bytes +
                        (e.click_after ? "+click" : ""));
        }
      }
      return out;
    };
    Expect(wire(*a) == wire(*b), config.name + ": equal seeds, equal stream");
    Expect(wire(*a) != wire(*c),
           config.name + ": different seeds, different stream");
  }
}

}  // namespace

int RunSelfTests() {
  std::printf("perfbench self-tests\n");
  TestTailRule();
  TestErrorCounting();
  auto dataset = cirank::BuildImdbDataset(ImdbOptionsAtScale(kScale));
  if (!dataset.ok()) {
    Expect(false, "dataset: " + dataset.status().ToString());
  } else {
    TestAnswerChecker(*dataset);
    TestSeedDeterminism(*dataset);
  }
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
