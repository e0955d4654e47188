// Candidate trees for the branch-and-bound search (Sec. IV-B) and the
// grow/merge expansion operators. A candidate is a rooted tree covering at
// least one query keyword; the expansion invariant is that a candidate can
// only connect to the rest of a larger tree through its root.
//
// A candidate is flat and trivially destructible: a fixed header plus two
// arrays, its node ids (ascending) and its edges in derivation order. Every
// structural fact the search prunes on (diameter, height, non-root leaves,
// coverage, identity hash) is kept incrementally by grow and merge, so no
// step rebuilds or walks a whole tree to learn them. Keyword masks and
// emissions come from the per-query QueryNodeTable. CandidateBuilder builds
// each grow/merge result in reusable scratch buffers; only an admitted
// candidate is copied into the per-query arena (PlaceCandidate), so a
// pruned or duplicate one costs no allocation. Answers leave the search as
// Jtts (MaterializeJtt).
#ifndef CIRANK_CORE_CANDIDATE_H_
#define CIRANK_CORE_CANDIDATE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/jtt.h"
#include "core/node_map.h"
#include "core/scorer.h"
#include "util/arena.h"

namespace cirank {

// Bitmask over query keyword positions (limited to 31 keywords).
using KeywordMask = uint32_t;

// Keyword coverage mask of a single node.
KeywordMask NodeKeywordMask(NodeId v, const Query& query,
                            const InvertedIndex& index);

// One tree edge, oriented away from the candidate's root, with both
// directed graph weights (0 when the graph lacks that direction).
struct CandidateEdge {
  NodeId parent = kInvalidNode;
  NodeId child = kInvalidNode;
  double w_down = 0.0;  // w(parent -> child)
  double w_up = 0.0;    // w(child -> parent)
};

struct Candidate {
  NodeId root = kInvalidNode;
  uint32_t size = 0;  // node count
  uint32_t diameter = 0;
  uint32_t height = 0;  // the root's eccentricity
  uint32_t non_root_leaves = 0;
  KeywordMask covered = 0;
  // max(ce, pe); filled by the ranker when the candidate is admitted.
  double upper_bound = 0.0;
  // Order-independent hash of the undirected edge set (wrapping sum of
  // per-edge hashes); with the root it identifies the candidate.
  uint64_t edge_hash = 0;
  const NodeId* nodes = nullptr;         // `size` ids, ascending
  const CandidateEdge* edges = nullptr;  // `size - 1` edges, derivation order

  std::span<const CandidateEdge> tree_edges() const {
    return {edges, size - 1};
  }
  bool IsComplete(KeywordMask all) const { return (covered & all) == all; }
  bool contains(NodeId v) const;
  // Identity hash: root plus edge set. Equal trees hash equally; the
  // converse is confirmed by SameCandidate.
  uint64_t Hash() const;
};
static_assert(std::is_trivially_destructible_v<Candidate>);

// Exact identity: same root and same undirected edge set (two derivations
// of one rooted tree are one candidate; the same tree at another root is
// another).
bool SameCandidate(const Candidate& a, const Candidate& b);

// Per-query facts about the nodes a candidate can contain, built once per
// query and read-only afterwards. Only non-free nodes are stored; every
// other node has mask 0 and emission 0. Keeps no reference to the query it
// was built from.
class QueryNodeTable {
 public:
  struct Source {
    NodeId node;
    double emission;
  };

  QueryNodeTable(const TreeScorer& scorer, const Query& query);

  size_t num_keywords() const { return sources_.size(); }
  KeywordMask all_keywords() const { return all_; }

  // Non-free nodes, ascending: the search's seeds.
  const std::vector<NodeId>& non_free() const { return non_free_; }

  KeywordMask mask(NodeId v) const {
    const Info* info = info_.Find(v);
    return info == nullptr ? 0 : info->mask;
  }
  // RwmpModel::Emission of v for the query.
  double emission(NodeId v) const {
    const Info* info = info_.Find(v);
    return info == nullptr ? 0.0 : info->emission;
  }

  // En(k): the nodes matching keyword k with a positive emission, in
  // posting order.
  const std::vector<Source>& sources(size_t keyword) const {
    return sources_[keyword];
  }

 private:
  struct Info {
    KeywordMask mask = 0;
    double emission = 0.0;
  };

  KeywordMask all_ = 0;
  std::vector<NodeId> non_free_;
  NodeMap<Info> info_;
  std::vector<std::vector<Source>> sources_;
};

// Builds seeds, grows and merges into scratch buffers owned by the
// builder. A result stays valid until the next Seed/Grow/Merge call on the
// same builder; inputs must not be the builder's own scratch result. Not
// thread-safe: one builder per executor thread.
class CandidateBuilder {
 public:
  // Both references must outlive the builder.
  CandidateBuilder(const Graph& graph, const QueryNodeTable& nodes);
  CandidateBuilder(const Graph&, QueryNodeTable&&) = delete;

  // Single-node candidate.
  const Candidate& Seed(NodeId v);

  // Tree growing: `new_root` becomes the root, with `c` as its single
  // child subtree. `new_root` must not already be in `c` (CHECKed).
  // Height h becomes h+1 and diameter d becomes max(d, h+1).
  const Candidate& Grow(const Candidate& c, NodeId new_root);

  // Tree merging: one tree whose root children are the union of both
  // inputs'. Null when the roots differ, the node sets overlap beyond the
  // root, or -- with `strict_coverage_growth`, the paper's phrasing of the
  // merge rule -- the merged coverage does not strictly exceed both
  // inputs. The strict rule can make some valid answers unreachable (e.g.
  // two sibling branches with identical keyword masks), so the search
  // defaults to the relaxed rule and prunes non-viable results instead.
  // Height becomes max(ha, hb) and diameter max(da, db, ha+hb).
  const Candidate* Merge(const Candidate& a, const Candidate& b,
                         bool strict_coverage_growth);

  // Whether the last result can still expand into a valid answer: its
  // non-root degree-1 nodes (which never gain edges -- only the root does)
  // are matchable to distinct query keywords. Every rooted subtree of a
  // valid answer satisfies this, so pruning on it preserves completeness
  // while bounding candidate trees to at most |Q|+1 leaves. A grow inherits
  // its input's viability (the input must be viable, as every admitted
  // candidate is), except that a grown seed needs a non-free seed.
  bool viable() const { return viable_; }

  // Definition 3 for a complete candidate: its degree-<=1 nodes are
  // matchable to distinct keywords (Jtt::IsReduced on the flat form).
  bool IsReduced(const Candidate& c);

 private:
  // Collects the masks of c's non-root leaves (plus the root when
  // `with_degree1_root` and it has exactly one child) into masks_; false
  // when there are more than |Q| of them.
  bool CollectLeafMasks(const Candidate& c, bool with_degree1_root);
  // Bipartite matching of masks_ to distinct keywords.
  bool MasksMatchable() const;

  const Graph* graph_;
  const QueryNodeTable* nodes_;
  Candidate scratch_;
  bool viable_ = false;
  std::vector<NodeId> node_buf_;
  std::vector<CandidateEdge> edge_buf_;
  std::vector<KeywordMask> masks_;
};

// Copies c's two arrays into `arena` and returns a header pointing at the
// copies, valid until the arena is reset. The header itself is a plain
// value; the executors embed it in their arena-placed entries.
Candidate PlaceCandidate(const Candidate& c, Arena& arena);

// The candidate's tree as a Jtt: Jtt::Create(root, edges in derivation
// order).
Jtt MaterializeJtt(const Candidate& c);

// Recomputes c's stored facts from its materialized Jtt: ValidateJtt,
// diameter, height, non-root leaves, coverage and edge hash. The executors
// run it on every admitted candidate in debug builds.
[[nodiscard]] Status ValidateCandidate(const Candidate& c,
                                       const QueryNodeTable& nodes);

// A flat candidate equal to `tree` rooted at tree.root(), its arrays in
// `arena` and every stored fact recomputed from the Jtt. For tests and
// benchmarks that start from a Jtt; the search builds candidates
// incrementally instead.
Candidate CandidateFromJtt(const Jtt& tree, const Graph& graph,
                           const QueryNodeTable& nodes, Arena& arena);

// Dedup set of admitted candidates: open addressing on Candidate::Hash(),
// where a hash match is confirmed by SameCandidate before it counts, so
// two different trees that collide are both admitted. Stores pointers;
// the candidates must outlive the set. Not thread-safe.
class CandidateSet {
 public:
  // The stored candidate equal to `c`, or null.
  const Candidate* Find(const Candidate& c) const;
  // Adds `c`, which must not be present.
  void Insert(const Candidate* c);
  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    const Candidate* candidate = nullptr;
  };
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace cirank

#endif  // CIRANK_CORE_CANDIDATE_H_
