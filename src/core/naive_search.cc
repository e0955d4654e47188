#include "core/naive_search.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/ranker.h"
#include "core/topk.h"
#include "graph/traversal.h"

namespace cirank {

namespace {

// Per-source BFS record: distance and every BFS-level predecessor, so all
// shortest paths can be reconstructed.
struct Reach {
  uint32_t dist = kUnreachable;
  std::vector<NodeId> predecessors;
};

// All shortest paths (as node sequences from source to target), capped.
void EnumeratePaths(const std::map<NodeId, Reach>& reach, NodeId source,
                    NodeId target, int64_t cap,
                    std::vector<std::vector<NodeId>>* out) {
  // Depth-first over predecessor lists.
  struct Frame {
    NodeId node;
    size_t next_pred;
  };
  std::vector<Frame> stack{{target, 0}};
  std::vector<NodeId> chain{target};
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.node == source) {
      out->emplace_back(chain.rbegin(), chain.rend());
      if (static_cast<int64_t>(out->size()) >= cap) return;
      stack.pop_back();
      chain.pop_back();
      continue;
    }
    const Reach& r = reach.at(top.node);
    if (top.next_pred >= r.predecessors.size()) {
      stack.pop_back();
      chain.pop_back();
      continue;
    }
    NodeId pred = r.predecessors[top.next_pred++];
    stack.push_back({pred, 0});
    chain.push_back(pred);
  }
}

}  // namespace

Result<std::vector<Jtt>> EnumerateAnswers(const Graph& graph,
                                          const InvertedIndex& index,
                                          const Query& query,
                                          const EnumerateOptions& options,
                                          ExecutionContext* ctx) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (query.size() > Query::kMaxKeywords) {
    return Status::InvalidArgument("at most 31 keywords are supported");
  }

  const uint32_t radius = (options.max_diameter + 1) / 2;

  // Step 1: BFS from every non-free node to radius ceil(D/2), recording all
  // shortest-path predecessors (Sec. IV-A).
  std::map<NodeId, KeywordMask> source_mask;
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    for (NodeId v : index.MatchingNodes(query.keywords[i])) {
      source_mask[v] |= KeywordMask{1} << i;
    }
  }

  std::map<NodeId, std::map<NodeId, Reach>> reach;
  for (const auto& [s, mask] : source_mask) {
    (void)mask;
    std::map<NodeId, Reach>& r = reach[s];
    r[s].dist = 0;
    std::deque<NodeId> frontier{s};
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop_front();
      const uint32_t du = r[u].dist;
      if (du >= radius) continue;
      for (const Edge& e : graph.out_edges(u)) {
        auto it = r.find(e.to);
        if (it == r.end()) {
          Reach& nr = r[e.to];
          nr.dist = du + 1;
          nr.predecessors.push_back(u);
          frontier.push_back(e.to);
        } else if (it->second.dist == du + 1) {
          it->second.predecessors.push_back(u);  // another shortest path
        }
      }
    }
  }

  // Step 2: collect, per potential root, the sources that reach it.
  std::map<NodeId, std::vector<NodeId>> sources_at_root;
  for (const auto& [s, r] : reach) {
    for (const auto& [v, info] : r) {
      (void)info;
      sources_at_root[v].push_back(s);
    }
  }

  const KeywordMask all =
      query.empty() ? 0 : (KeywordMask{1} << query.size()) - 1;
  std::set<std::string> seen;
  std::vector<Jtt> answers;
  auto budget_left = [&] {
    return (options.max_answers == 0 ||
            static_cast<int64_t>(answers.size()) < options.max_answers) &&
           (ctx == nullptr || !ctx->ShouldStop());
  };

  for (const auto& [root, srcs] : sources_at_root) {
    if (!budget_left()) break;
    KeywordMask covered = 0;
    for (NodeId s : srcs) covered |= source_mask.at(s);
    if ((covered & all) != all) continue;

    // Group reachable sources by keyword.
    std::vector<std::vector<NodeId>> per_keyword(query.size());
    for (NodeId s : srcs) {
      const KeywordMask m = source_mask.at(s);
      for (size_t i = 0; i < query.size(); ++i) {
        if (m & (KeywordMask{1} << i)) per_keyword[i].push_back(s);
      }
    }

    // Enumerate keyword -> source combinations (odometer), capped.
    std::vector<size_t> pick(query.size(), 0);
    int64_t combos = 0;
    for (;;) {
      if (!budget_left()) break;
      if (++combos > options.max_combinations_per_root) break;
      std::set<NodeId> chosen;
      for (size_t i = 0; i < query.size(); ++i) {
        chosen.insert(per_keyword[i][pick[i]]);
      }

      // Enumerate shortest paths per chosen source and union them.
      std::vector<std::vector<std::vector<NodeId>>> path_options;
      for (NodeId s : chosen) {
        path_options.emplace_back();
        EnumeratePaths(reach.at(s), s, root, options.max_paths_per_source,
                       &path_options.back());
      }
      std::vector<size_t> ppick(path_options.size(), 0);
      for (;;) {
        if (!budget_left()) break;
        std::set<std::pair<NodeId, NodeId>> undirected;
        std::set<NodeId> nodes{root};
        for (size_t i = 0; i < path_options.size(); ++i) {
          const std::vector<NodeId>& path = path_options[i][ppick[i]];
          for (size_t j = 0; j + 1 < path.size(); ++j) {
            undirected.insert({std::min(path[j], path[j + 1]),
                               std::max(path[j], path[j + 1])});
          }
          for (NodeId v : path) nodes.insert(v);
        }
        if (undirected.size() + 1 == nodes.size()) {
          // The union is a tree; orient it from the root.
          std::vector<std::pair<NodeId, NodeId>> edges;
          std::set<NodeId> placed{root};
          std::deque<NodeId> tree_frontier{root};
          while (!tree_frontier.empty()) {
            NodeId u = tree_frontier.front();
            tree_frontier.pop_front();
            for (const auto& [a, b] : undirected) {
              NodeId other = kInvalidNode;
              if (a == u && !placed.count(b)) other = b;
              if (b == u && !placed.count(a)) other = a;
              if (other == kInvalidNode) continue;
              edges.emplace_back(u, other);
              placed.insert(other);
              tree_frontier.push_back(other);
            }
          }
          Result<Jtt> tree = Jtt::Create(root, std::move(edges));
          if (tree.ok() && tree->Diameter() <= options.max_diameter &&
              tree->IsReduced(query, index) &&
              tree->CoversAllKeywords(query, index) &&
              seen.insert(tree->CanonicalKey()).second) {
            answers.push_back(std::move(tree).value());
            // A tree that exhausts the budget is still kept; the next
            // budget_left() check ends the enumeration.
            if (ctx != nullptr) (void)ctx->ChargeCandidates();
          }
        }
        // Advance the path odometer.
        size_t d = 0;
        while (d < ppick.size()) {
          if (++ppick[d] < path_options[d].size()) break;
          ppick[d] = 0;
          ++d;
        }
        if (d == ppick.size()) break;
      }

      // Advance the source odometer.
      size_t d = 0;
      while (d < pick.size()) {
        if (++pick[d] < per_keyword[d].size()) break;
        pick[d] = 0;
        ++d;
      }
      if (d == pick.size()) break;
    }
  }

  return answers;
}

namespace {

// The "naive" executor: the paper's Sec. IV-A algorithm decomposed into the
// pipeline stages. Prepare builds the ranker and enumerates the answer pool
// (BFS + path combination), charging each tree to the budget as it is
// found; Expand scores the pool under the selected ranker, checking the
// deadline between trees; Emit ranks the collected answers. Registered
// under other names, it is also the pool-scoring baseline executors
// (MakePinnedRankerExecutor).
class NaiveExecutor final : public SearchExecutor {
 public:
  NaiveExecutor(std::string name, const TreeScorer& scorer, const Query& query,
                const NaiveSearchOptions& options,
                const SearchOptions& search_options)
      : name_(std::move(name)),
        scorer_(scorer),
        query_(query),
        options_(options),
        search_options_(search_options),
        answers_(static_cast<size_t>(options.k)) {}

  std::string_view name() const override { return name_; }

  Status Prepare(ExecutionContext& ctx) override {
    // Pool scoring never consults UpperBound, so the ranker is built without
    // per-query bound state (null query in the env).
    CIRANK_ASSIGN_OR_RETURN(
        ranker_,
        RankerRegistry::Global().Create(
            search_options_.ranker, RankerEnv{&scorer_, nullptr,
                                              search_options_}));
    ctx.stats().ranker = std::string(ranker_->name());
    EnumerateOptions enum_options;
    enum_options.max_diameter = options_.max_diameter;
    enum_options.max_combinations_per_root = options_.max_combinations_per_root;
    enum_options.max_paths_per_source = options_.max_paths_per_source;
    CIRANK_ASSIGN_OR_RETURN(
        pool_, EnumerateAnswers(scorer_.model().graph(), scorer_.index(),
                                query_, enum_options, &ctx));
    return Status::OK();
  }

  Status Expand(ExecutionContext& ctx) override {
    for (Jtt& tree : pool_) {
      // The pool holds only trees already charged, so a budget stop still
      // scores all of them; a deadline cuts the scoring short.
      if (ctx.stop_reason() != ExecutionContext::StopReason::kCandidateBudget &&
          ctx.ShouldStop()) {
        return ctx.stop_status();
      }
      const double score = ranker_->ScoreAnswer(tree, query_);
      if (answers_.Offer(std::move(tree), score)) ++ctx.stats().answers_found;
    }
    return Status::OK();
  }

  Result<std::vector<RankedAnswer>> Emit(ExecutionContext& ctx) override {
    (void)ctx;
    return answers_.Take();
  }

 private:
  const std::string name_;
  const TreeScorer& scorer_;
  const Query& query_;
  const NaiveSearchOptions options_;
  const SearchOptions search_options_;
  std::unique_ptr<Ranker> ranker_;
  std::vector<Jtt> pool_;
  TopKAnswers answers_;
};

Result<std::unique_ptr<SearchExecutor>> MakeNamedNaiveExecutor(
    std::string name, const ExecutorEnv& env,
    const SearchOptions& search_options) {
  CIRANK_RETURN_IF_ERROR(ValidateExecutorEnv(env));
  NaiveSearchOptions options;
  options.k = env.options.k;
  options.max_diameter = env.options.max_diameter;
  std::unique_ptr<SearchExecutor> executor = std::make_unique<NaiveExecutor>(
      std::move(name), *env.scorer, *env.query, options, search_options);
  return executor;
}

}  // namespace

Result<std::unique_ptr<SearchExecutor>> MakeNaiveExecutor(
    const ExecutorEnv& env) {
  return MakeNamedNaiveExecutor("naive", env, env.options);
}

Result<std::unique_ptr<SearchExecutor>> MakePinnedRankerExecutor(
    const ExecutorEnv& env, const std::string& ranker) {
  SearchOptions search_options = env.options;
  search_options.ranker = ranker;
  return MakeNamedNaiveExecutor(ranker, env, search_options);
}

Result<std::vector<RankedAnswer>> NaiveSearch(const TreeScorer& scorer,
                                              const Query& query,
                                              const NaiveSearchOptions& options,
                                              SearchStats* stats) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (query.size() > Query::kMaxKeywords) {
    return Status::InvalidArgument("at most 31 keywords are supported");
  }
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");
  SearchOptions search_options;
  search_options.k = options.k;
  search_options.max_diameter = options.max_diameter;
  NaiveExecutor executor("naive", scorer, query, options, search_options);
  ExecutionContext ctx(ExecutionLimits{});
  return RunSearchPipeline(executor, ctx, stats);
}

Result<std::vector<RankedAnswer>> ExhaustiveSearch(
    const TreeScorer& scorer, const Query& query,
    const ExhaustiveSearchOptions& options) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (query.size() > Query::kMaxKeywords) {
    return Status::InvalidArgument("at most 31 keywords are supported");
  }
  if (options.k <= 0) return Status::InvalidArgument("k must be positive");

  const Graph& graph = scorer.model().graph();
  const InvertedIndex& index = scorer.index();
  TopKAnswers answers(static_cast<size_t>(options.k));

  // BFS over tree space: every connected subtree up to max_nodes, dedup by
  // canonical key.
  std::set<std::string> seen;
  std::deque<Jtt> frontier;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    Jtt t(v);
    if (seen.insert(t.CanonicalKey()).second) frontier.push_back(t);
  }

  while (!frontier.empty()) {
    Jtt t = std::move(frontier.front());
    frontier.pop_front();

    if (t.Diameter() <= options.max_diameter &&
        t.IsReduced(query, index) && t.CoversAllKeywords(query, index)) {
      TreeScore ts = scorer.Score(t, query);
      answers.Offer(t, ts.score);
    }

    if (t.size() >= options.max_nodes) continue;
    for (NodeId v : t.nodes()) {
      for (const Edge& e : graph.out_edges(v)) {
        if (t.contains(e.to)) continue;
        std::vector<std::pair<NodeId, NodeId>> edges = t.edges();
        edges.emplace_back(v, e.to);
        Result<Jtt> grown = Jtt::Create(t.root(), std::move(edges));
        if (!grown.ok()) continue;
        if (grown->Diameter() > options.max_diameter) continue;
        if (seen.insert(grown->CanonicalKey()).second) {
          frontier.push_back(std::move(grown).value());
        }
      }
    }
  }

  return answers.Take();
}

}  // namespace cirank
