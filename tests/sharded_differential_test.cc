// Differential gate for sharded scatter-gather serving (DESIGN.md §16): on
// ~50 seeded random micro-graphs with random 2-4 keyword queries, a
// ShardedEngine at 1, 2, 4, and 8 shards — under both partitioners — must
// return *byte-identical* results to the single-graph engine: same trees
// (by canonical key) with bitwise-equal scores at every rank. The early-
// termination property rides the same runs: a shard stopped by the global
// cross-shard threshold must never have discarded a candidate whose upper
// bound reached the global k-th answer score.
#include "shard/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace cirank {
namespace {

using shard::ShardedEngine;
using shard::ShardedEngineOptions;
using shard::ShardedSearchStats;
using testing_util::MakeRandomGraph;

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

// The same case generator as differential_search_test.cc so the two gates
// cover the same graph/query population: shape, query length (2-4
// keywords), keyword choice, and diameter limit all derive from the seed.
std::vector<DiffCase> MakeDiffCases() {
  std::vector<DiffCase> cases;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
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
    c.diameter = 3 + static_cast<uint32_t>(rng.NextUint(2));  // 3 or 4
    cases.push_back(std::move(c));
  }
  return cases;
}

class ShardedDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

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

Result<CiRankEngine> BuildEngine(const Graph& graph) {
  return CiRankEngine::Builder(graph).Build();
}

TEST_P(ShardedDifferentialTest, ScatterGatherMatchesSingleEngineByteForByte) {
  const DiffCase& c = GetParam();
  Graph graph = MakeRandomGraph(c.seed, c.nodes);
  auto built = BuildEngine(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CiRankEngine engine = std::move(built).value();

  const Query q = Query::MustParse(c.query);
  const SearchOverrides overrides =
      SearchOverrides().WithK(5).WithMaxDiameter(c.diameter);
  SearchStats ref_stats;
  auto reference = engine.Search(q, overrides, &ref_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const std::string& partitioner : shard::PartitionerNames()) {
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
      ShardedEngineOptions opts;
      opts.num_shards = shards;
      opts.partitioner = partitioner;
      auto attached = ShardedEngine::Attach(&engine, opts);
      ASSERT_TRUE(attached.ok()) << attached.status().ToString();

      const std::string label =
          partitioner + " N=" + std::to_string(shards);
      // A non-null shard_stats sink forces a fresh scatter-gather run (the
      // merged-result cache is bypassed), so every N is computed, not
      // memoized.
      SearchStats stats;
      ShardedSearchStats shard_stats;
      auto sharded = attached->Search(q, overrides, &stats, &shard_stats);
      ASSERT_TRUE(sharded.ok()) << label << ": " << sharded.status().ToString();
      ExpectIdentical(*reference, *sharded, label);

      ASSERT_EQ(shard_stats.per_shard.size(), shards) << label;
      EXPECT_TRUE(stats.proven_optimal) << label;
      EXPECT_FALSE(stats.truncated) << label;

      // Early-termination admissibility. A shard stopped by the global
      // threshold (and any shard, via its local threshold ≤ the global one)
      // may only have discarded candidates whose upper bound was *strictly*
      // below the k-th merged answer score — otherwise the stop could have
      // hidden a top-k answer.
      int flagged = 0;
      const bool full = sharded->size() == 5;
      const double kth = full ? sharded->back().score
                              : -std::numeric_limits<double>::infinity();
      for (uint32_t s = 0; s < shards; ++s) {
        const SearchStats& st = shard_stats.per_shard[s];
        if (st.shard_early_stopped) {
          ++flagged;
          EXPECT_LT(st.max_pruned_bound, kth)
              << label << ": shard " << s
              << " early-stopped past a bound at/above the global k-th";
        }
      }
      EXPECT_EQ(shard_stats.early_stopped_shards, flagged) << label;
      // With fewer than k distinct answers in the whole graph the global
      // threshold never left -infinity, so no shard can have stopped on it.
      if (!full) {
        EXPECT_EQ(shard_stats.early_stopped_shards, 0) << label;
      }
      if (shards == 1) {
        EXPECT_EQ(shard_stats.early_stopped_shards, 0) << label;
        EXPECT_FALSE(stats.shard_early_stopped) << label;
      }
    }
  }
}

// Queries whose diameter exceeds the built scope radius (the engine default
// the plan was sized for) take the full-scope fallback: every shard searches
// the whole graph and the dedup merge keeps the bytes identical.
TEST_P(ShardedDifferentialTest, OversizedDiameterFallbackStaysExact) {
  const DiffCase& c = GetParam();
  if (c.seed % 5 != 0) GTEST_SKIP() << "fallback sampled at every 5th seed";
  Graph graph = MakeRandomGraph(c.seed, c.nodes);
  auto built = BuildEngine(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CiRankEngine engine = std::move(built).value();

  const Query q = Query::MustParse(c.query);
  // Engine default max_diameter is 4, so the plan's radius is 4; 5 forces
  // the fallback.
  const SearchOverrides overrides =
      SearchOverrides().WithK(5).WithMaxDiameter(5);
  SearchStats ref_stats;
  auto reference = engine.Search(q, overrides, &ref_stats);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ShardedEngineOptions opts;
  opts.num_shards = 4;
  auto attached = ShardedEngine::Attach(&engine, opts);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(attached->plan().scope_radius(), 4u);

  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto sharded = attached->Search(q, overrides, &stats, &shard_stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdentical(*reference, *sharded, "full-scope fallback N=4");
}

INSTANTIATE_TEST_SUITE_P(RandomMicroGraphs, ShardedDifferentialTest,
                         ::testing::ValuesIn(MakeDiffCases()), DiffCaseName);

// Executors that ignore ShardHooks (naive, the baselines) degrade to
// redundant full enumeration per shard; the dedup merge must still be
// byte-identical to the direct engine.
TEST(ShardedDifferentialTest, HookBlindExecutorStaysExact) {
  Graph graph = MakeRandomGraph(23, 20);
  auto built = BuildEngine(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CiRankEngine engine = std::move(built).value();

  const Query q = Query::MustParse("kw0 kw1");
  const SearchOverrides overrides =
      SearchOverrides().WithK(5).WithExecutor("naive");
  auto reference = engine.Search(q, overrides);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ShardedEngineOptions opts;
  opts.num_shards = 4;
  auto attached = ShardedEngine::Attach(&engine, opts);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto sharded = attached->Search(q, overrides, &stats, &shard_stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdentical(*reference, *sharded, "naive executor N=4");
  EXPECT_EQ(stats.executor, "naive");
}

// order_by is stripped from the per-shard sub-searches (selection is
// presentation-blind) and applied once to the merged top-k — the reordered
// list must match the direct engine's, bytes included.
TEST(ShardedDifferentialTest, OrderByAppliedAfterMergeMatchesEngine) {
  Graph graph = MakeRandomGraph(29, 22);
  auto built = BuildEngine(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CiRankEngine engine = std::move(built).value();

  const Query q = Query::MustParse("kw0 kw2");
  const SearchOverrides overrides =
      SearchOverrides().WithK(5).WithOrderBy("score asc, external_key desc");
  auto reference = engine.Search(q, overrides);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ShardedEngineOptions opts;
  opts.num_shards = 2;
  auto attached = ShardedEngine::Attach(&engine, opts);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto sharded = attached->Search(q, overrides, &stats, &shard_stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdentical(*reference, *sharded, "order_by N=2");

  // A bad order_by fails before any shard work, same as the engine.
  auto bad = attached->Search(
      q, SearchOverrides().WithK(5).WithOrderBy("score sideways"));
  EXPECT_FALSE(bad.ok());
}

// Parallelism is pure scheduling: any fan-out width returns the same bytes.
TEST(ShardedDifferentialTest, ShardParallelismNeverChangesResults) {
  Graph graph = MakeRandomGraph(31, 24);
  auto built = BuildEngine(graph);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CiRankEngine engine = std::move(built).value();

  const Query q = Query::MustParse("kw1 kw3");
  const SearchOverrides overrides = SearchOverrides().WithK(5);
  ShardedEngineOptions opts;
  opts.num_shards = 8;
  auto attached = ShardedEngine::Attach(&engine, opts);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();

  SearchStats stats;
  ShardedSearchStats shard_stats;
  auto reference = attached->Search(q, overrides, &stats, &shard_stats);
  ASSERT_TRUE(reference.ok());
  for (int width : {1, 2, 3, 8, 64}) {
    SearchStats st;
    ShardedSearchStats sst;
    auto result = attached->Search(q, overrides, &st, &sst, width);
    ASSERT_TRUE(result.ok()) << "width=" << width;
    ExpectIdentical(*reference, *result, "width=" + std::to_string(width));
  }
}

}  // namespace
}  // namespace cirank
