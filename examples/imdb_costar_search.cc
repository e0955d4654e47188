// IMDB co-star search with star-index acceleration: the "Bloom Wood
// Mortensen" scenario of Sec. II-B.2. Finds the movies connecting multiple
// actors, compares plain branch-and-bound against the star-index-assisted
// search, and prints the speedup.
//
//   $ ./build/examples/imdb_costar_search
#include <cstdio>

#include "core/engine.h"
#include "datasets/imdb_gen.h"
#include "datasets/query_gen.h"
#include "index/star_index.h"
#include "util/timer.h"

using namespace cirank;

int main() {
  ImdbGenOptions gen;
  gen.num_movies = 800;
  gen.num_actors = 1000;
  gen.num_actresses = 500;
  gen.num_directors = 150;
  gen.num_producers = 100;
  gen.num_companies = 50;
  gen.seed = 31;
  auto dataset = BuildImdbDataset(gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  std::printf("synthetic IMDB: %zu nodes, %zu edges\n",
              dataset->graph.num_nodes(), dataset->graph.num_edges());

  auto engine = CiRankEngine::Builder(dataset->graph).Build();
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed\n");
    return 1;
  }

  Timer build_timer;
  auto star_index = StarIndex::Build(dataset->graph);
  if (!star_index.ok()) {
    std::fprintf(stderr, "star index build failed\n");
    return 1;
  }
  std::printf("star index over %zu movie nodes built in %.2f s (%.1f MiB)\n",
              star_index->num_star_nodes(), build_timer.ElapsedSeconds(),
              star_index->MemoryBytes() / (1024.0 * 1024.0));

  // Three co-stars of one movie, queried by name.
  QueryGenOptions qopts;
  qopts.num_queries = 5;
  qopts.frac_two_nonadjacent = 0.0;
  qopts.frac_three_plus = 1.0;
  qopts.ambiguous_prob = 0.0;
  qopts.seed = 32;
  auto queries = GenerateQueries(*dataset, qopts);
  if (!queries.ok() || queries->empty()) {
    std::fprintf(stderr, "query generation failed\n");
    return 1;
  }

  for (const LabeledQuery& lq : *queries) {
    std::string rendered;
    for (const std::string& k : lq.query.keywords) {
      rendered += rendered.empty() ? k : " " + k;
    }
    std::printf("\nquery: \"%s\"\n", rendered.c_str());

    SearchOptions opts;
    opts.k = 3;
    opts.max_diameter = 4;
    opts.max_expansions = 100000;

    Timer t;
    // Timed for the plain-vs-indexed comparison; the answers themselves are
    // only printed from the indexed run below.
    CIRANK_IGNORE_ERROR(engine->Search(lq.query, opts));
    const double plain_s = t.ElapsedSeconds();

    opts.bounds = &star_index.value();
    t.Reset();
    auto indexed = engine->Search(lq.query, opts);
    const double indexed_s = t.ElapsedSeconds();

    if (!indexed.ok() || indexed->empty()) {
      std::printf("  (no answers)\n");
      continue;
    }
    std::printf("  plain: %.3f s, with star index: %.3f s (%.1fx)\n",
                plain_s, indexed_s,
                indexed_s > 0 ? plain_s / indexed_s : 0.0);
    for (size_t i = 0; i < indexed->size(); ++i) {
      const RankedAnswer& a = (*indexed)[i];
      std::printf("  #%zu score=%.4g %s\n", i + 1, a.score,
                  a.tree.ToString(dataset->graph).c_str());
    }
  }
  return 0;
}
