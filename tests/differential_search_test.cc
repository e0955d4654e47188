// Differential test harness for branch-and-bound: on 75 seeded random
// micro-graphs with random 2-4 keyword queries, every other way of running
// the search — the registry pipeline, and concurrent queries through
// SearchBatch — must return *byte-identical* results to the serial
// BranchAndBoundSearch: same trees (by canonical key) with bitwise-equal
// scores at every rank. The small graphs are additionally checked against
// ExhaustiveSearch ground truth, and NaiveSearch is held to its soundness
// contract (its best answer never beats the B&B optimum).
#include "core/bnb_search.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/naive_search.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace cirank {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeScorerBundle;
using testing_util::ScorerBundle;

struct DiffCase {
  uint64_t seed = 0;
  size_t nodes = 0;
  std::string query;
  uint32_t diameter = 4;
};

std::string DiffCaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const DiffCase& c = info.param;
  const size_t kw = 1 + std::count(c.query.begin(), c.query.end(), ' ');
  return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.nodes) +
         "_q" + std::to_string(kw) + "_d" + std::to_string(c.diameter);
}

// 75 cases: the graph shape, query length (2-4 keywords), which keywords,
// and the diameter limit all derive from the seed.
std::vector<DiffCase> MakeDiffCases() {
  std::vector<DiffCase> cases;
  for (uint64_t seed = 1; seed <= 75; ++seed) {
    Rng rng(0x9E3779B9u ^ seed);
    DiffCase c;
    c.seed = seed;
    c.nodes = 10 + rng.NextUint(15);  // 10..24 nodes
    const int num_kw = 2 + static_cast<int>(rng.NextUint(3));  // 2..4
    std::vector<int> pool{0, 1, 2, 3};
    for (int i = 0; i < num_kw; ++i) {
      const size_t j = i + rng.NextUint(pool.size() - i);
      std::swap(pool[i], pool[j]);
      if (i > 0) c.query += " ";
      c.query += "kw" + std::to_string(pool[i]);
    }
    // Seeds 51-75 draw D from {2, ..., 5}, so the incremental diameter
    // and height rules meet both ends: D = 2 admits only stars, D = 5
    // odd-length paths joined by merges.
    c.diameter = seed <= 50
                     ? 3 + static_cast<uint32_t>(rng.NextUint(2))   // 3 or 4
                     : 2 + static_cast<uint32_t>(rng.NextUint(4));  // 2..5
    cases.push_back(std::move(c));
  }
  return cases;
}

class DifferentialSearchTest : public ::testing::TestWithParam<DiffCase> {};

// Exact comparison: rank-by-rank bitwise score equality and tree identity.
void ExpectIdentical(const std::vector<RankedAnswer>& expected,
                     const std::vector<RankedAnswer>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].score, actual[i].score)
        << label << ": score mismatch at rank " << i;
    EXPECT_EQ(expected[i].tree.CanonicalKey(), actual[i].tree.CanonicalKey())
        << label << ": tree mismatch at rank " << i;
  }
}

// Inter-query parallelism: SearchBatch runs whole queries concurrently on
// pool workers that share one engine snapshot (model, scorer, inverted
// index), with the cache off so every entry searches. Each entry must match
// the serial search byte for byte.
TEST_P(DifferentialSearchTest, ParallelMatchesSerialByteForByte) {
  const DiffCase& c = GetParam();
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(c.seed, c.nodes));
  Query q = Query::MustParse(c.query);
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = c.diameter;

  auto serial = BranchAndBoundSearch(*b.scorer, q, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  auto engine = CiRankEngine::Builder(b.graph)
                    .WithSearchDefaults(opts)
                    .WithMetricsEnabled(false)
                    .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  constexpr int kThreads = 4;
  BatchSearchOptions batch;
  batch.num_threads = kThreads;
  batch.use_cache = false;
  std::vector<SearchStats> stats;
  auto results = engine->SearchBatch(std::vector<Query>(kThreads, q), batch,
                                     &stats);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ExpectIdentical(*serial, *results[i], "batch entry " + std::to_string(i));
    EXPECT_TRUE(stats[i].proven_optimal);
  }
}

// The same identity must hold through the execution pipeline: the registry
// "bnb" executor places candidates in the per-query arena and runs under
// the deadline/budget guard, and none of that may perturb a single byte of
// the answer.
TEST_P(DifferentialSearchTest, RegistryExecutorsMatchSerialByteForByte) {
  const DiffCase& c = GetParam();
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(c.seed, c.nodes));
  Query q = Query::MustParse(c.query);
  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = c.diameter;

  auto serial = BranchAndBoundSearch(*b.scorer, q, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  SearchOptions eopts = opts;
  eopts.executor = "bnb";
  ExecutorEnv env{b.scorer.get(), &q, eopts};
  SearchStats stats;
  auto r = ExecuteSearch(env, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectIdentical(*serial, *r, "pipeline bnb");
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.stages.arena_bytes, 0u);
}

TEST_P(DifferentialSearchTest, SmallGraphsMatchExhaustiveGroundTruth) {
  const DiffCase& c = GetParam();
  if (c.nodes > 16) GTEST_SKIP() << "exhaustive reference too expensive";
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(c.seed, c.nodes));
  Query q = Query::MustParse(c.query);

  ExhaustiveSearchOptions ex_opts;
  ex_opts.k = 5;
  ex_opts.max_diameter = c.diameter;
  ex_opts.max_nodes = 9;
  auto expected = ExhaustiveSearch(*b.scorer, q, ex_opts);
  ASSERT_TRUE(expected.ok());

  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = c.diameter;
  auto actual = BranchAndBoundSearch(*b.scorer, q, opts);
  ASSERT_TRUE(actual.ok());

  // The exhaustive reference scores trees in their discovered orientation,
  // so scores agree only up to floating-point tolerance; tree identity is
  // exact. (Exhaustive caps tree size at max_nodes; for these diameters and
  // query lengths no valid reduced answer exceeds it.)
  ASSERT_EQ(expected->size(), actual->size());
  for (size_t i = 0; i < actual->size(); ++i) {
    EXPECT_NEAR((*expected)[i].score, (*actual)[i].score,
                1e-9 * (1.0 + std::abs((*expected)[i].score)))
        << "rank " << i;
  }
}

TEST_P(DifferentialSearchTest, NaiveNeverBeatsBnb) {
  const DiffCase& c = GetParam();
  ScorerBundle b = MakeScorerBundle(MakeRandomGraph(c.seed, c.nodes));
  Query q = Query::MustParse(c.query);

  SearchOptions opts;
  opts.k = 5;
  opts.max_diameter = c.diameter;
  auto bnb = BranchAndBoundSearch(*b.scorer, q, opts);
  ASSERT_TRUE(bnb.ok());

  NaiveSearchOptions nopts;
  nopts.k = 5;
  nopts.max_diameter = c.diameter;
  auto naive = NaiveSearch(*b.scorer, q, nopts);
  ASSERT_TRUE(naive.ok());

  // NaiveSearch only assembles shortest-path unions, so it may miss
  // answers, but anything it does find is a valid answer the optimal
  // search must match or beat.
  if (naive->empty()) return;
  ASSERT_FALSE(bnb->empty());
  EXPECT_GE((*bnb)[0].score,
            (*naive)[0].score - 1e-9 * (1.0 + (*naive)[0].score));
}

INSTANTIATE_TEST_SUITE_P(RandomMicroGraphs, DifferentialSearchTest,
                         ::testing::ValuesIn(MakeDiffCases()), DiffCaseName);

}  // namespace
}  // namespace cirank
