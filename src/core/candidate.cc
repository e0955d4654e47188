#include "core/candidate.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace cirank {

namespace {

// splitmix64's finalizer.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Hash of one undirected edge; a tree's edge hash is the wrapping sum.
uint64_t EdgeHash(NodeId a, NodeId b) {
  const uint64_t lo = std::min(a, b);
  const uint64_t hi = std::max(a, b);
  return Mix64((lo << 32) | hi);
}

// Augmenting-path step of the keyword matching: tries to give mask `i` a
// keyword of its own, displacing earlier owners when they can move.
bool Augment(size_t i, const std::vector<KeywordMask>& masks,
             KeywordMask* visited, int* owner) {
  for (KeywordMask rest = masks[i]; rest != 0; rest &= rest - 1) {
    const int k = __builtin_ctz(rest);
    const KeywordMask bit = KeywordMask{1} << k;
    if (*visited & bit) continue;
    *visited |= bit;
    if (owner[k] < 0 ||
        Augment(static_cast<size_t>(owner[k]), masks, visited, owner)) {
      owner[k] = static_cast<int>(i);
      return true;
    }
  }
  return false;
}

// Hop distance from the root of every node of `tree`, by index into
// tree.nodes(): one BFS over the Jtt's own adjacency.
std::vector<uint32_t> RootDepths(const Jtt& tree) {
  constexpr uint32_t kUnreached = static_cast<uint32_t>(-1);
  std::vector<uint32_t> depth(tree.size(), kUnreached);
  std::vector<size_t> order{tree.IndexOf(tree.root())};
  depth[order[0]] = 0;
  for (size_t qi = 0; qi < order.size(); ++qi) {
    for (uint32_t nb : tree.NeighborIndices(order[qi])) {
      if (depth[nb] != kUnreached) continue;
      depth[nb] = depth[order[qi]] + 1;
      order.push_back(nb);
    }
  }
  return depth;
}

// The stored facts of a candidate, recomputed from its tree and the root
// depths: the reference the incremental rules are checked against.
Candidate FactsOf(const Jtt& tree, const std::vector<uint32_t>& depth,
                  const QueryNodeTable& nodes) {
  Candidate c;
  c.root = tree.root();
  c.size = static_cast<uint32_t>(tree.size());
  c.diameter = tree.Diameter();
  for (size_t i = 0; i < tree.size(); ++i) {
    c.height = std::max(c.height, depth[i]);
    if (depth[i] > 0 && tree.NeighborIndices(i).size() == 1) {
      ++c.non_root_leaves;
    }
    c.covered |= nodes.mask(tree.nodes()[i]);
  }
  for (const auto& [a, b] : tree.edges()) c.edge_hash += EdgeHash(a, b);
  return c;
}

}  // namespace

KeywordMask NodeKeywordMask(NodeId v, const Query& query,
                            const InvertedIndex& index) {
  CIRANK_DCHECK(query.size() <= 31);
  KeywordMask mask = 0;
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    if (index.TermFrequency(v, query.keywords[i]) > 0) {
      mask |= KeywordMask{1} << i;
    }
  }
  return mask;
}

bool Candidate::contains(NodeId v) const {
  return std::binary_search(nodes, nodes + size, v);
}

uint64_t Candidate::Hash() const {
  return Mix64(edge_hash ^ (uint64_t{root} * 0x9E3779B97F4A7C15ull));
}

bool SameCandidate(const Candidate& a, const Candidate& b) {
  if (a.root != b.root || a.size != b.size ||
      !std::equal(a.nodes, a.nodes + a.size, b.nodes)) {
    return false;
  }
  // One node set under one root: the trees agree iff every non-root node
  // has the same parent.
  for (const CandidateEdge& ea : a.tree_edges()) {
    bool same_parent = false;
    for (const CandidateEdge& eb : b.tree_edges()) {
      if (eb.child == ea.child) {
        same_parent = eb.parent == ea.parent;
        break;
      }
    }
    if (!same_parent) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// QueryNodeTable

QueryNodeTable::QueryNodeTable(const TreeScorer& scorer, const Query& query)
    : sources_(query.size()) {
  CIRANK_DCHECK(query.size() <= 31);
  all_ = query.empty() ? 0 : (KeywordMask{1} << query.size()) - 1;
  const InvertedIndex& index = scorer.index();
  std::vector<std::vector<NodeId>> matching(query.size());
  for (size_t k = 0; k < query.keywords.size(); ++k) {
    matching[k] = index.MatchingNodes(query.keywords[k]);
    non_free_.insert(non_free_.end(), matching[k].begin(), matching[k].end());
  }
  std::sort(non_free_.begin(), non_free_.end());
  non_free_.erase(std::unique(non_free_.begin(), non_free_.end()),
                  non_free_.end());

  info_ = NodeMap<Info>(non_free_.size());
  for (NodeId v : non_free_) {
    Info& info = info_.FindOrInsert(v);
    info.mask = NodeKeywordMask(v, query, index);
    info.emission = scorer.model().Emission(v, query, index);
  }
  for (size_t k = 0; k < matching.size(); ++k) {
    for (NodeId v : matching[k]) {
      const double e = emission(v);
      if (e > 0.0) sources_[k].push_back(Source{v, e});
    }
  }
}

// ---------------------------------------------------------------------------
// CandidateBuilder

CandidateBuilder::CandidateBuilder(const Graph& graph,
                                   const QueryNodeTable& nodes)
    : graph_(&graph), nodes_(&nodes) {}

const Candidate& CandidateBuilder::Seed(NodeId v) {
  node_buf_.assign(1, v);
  edge_buf_.clear();
  scratch_ = Candidate{};
  scratch_.root = v;
  scratch_.size = 1;
  scratch_.covered = nodes_->mask(v);
  scratch_.nodes = node_buf_.data();
  scratch_.edges = edge_buf_.data();
  viable_ = true;  // seeds are non-free nodes
  return scratch_;
}

const Candidate& CandidateBuilder::Grow(const Candidate& c, NodeId new_root) {
  const NodeId* end = c.nodes + c.size;
  const NodeId* pos = std::lower_bound(c.nodes, end, new_root);
  CIRANK_CHECK(pos == end || *pos != new_root)
      << "grow adds node " << new_root << " already in the tree";
  node_buf_.clear();
  node_buf_.insert(node_buf_.end(), c.nodes, pos);
  node_buf_.push_back(new_root);
  node_buf_.insert(node_buf_.end(), pos, end);

  edge_buf_.assign(c.edges, c.edges + (c.size - 1));
  edge_buf_.push_back(CandidateEdge{new_root, c.root,
                                    graph_->edge_weight(new_root, c.root),
                                    graph_->edge_weight(c.root, new_root)});

  scratch_ = Candidate{};
  scratch_.root = new_root;
  scratch_.size = c.size + 1;
  scratch_.height = c.height + 1;
  scratch_.diameter = std::max(c.diameter, c.height + 1);
  // The old root gains a parent: it becomes a leaf only if it was alone.
  scratch_.non_root_leaves = c.size == 1 ? 1 : c.non_root_leaves;
  scratch_.covered = c.covered | nodes_->mask(new_root);
  scratch_.edge_hash = c.edge_hash + EdgeHash(new_root, c.root);
  scratch_.nodes = node_buf_.data();
  scratch_.edges = edge_buf_.data();
  viable_ = c.size > 1 || nodes_->mask(c.root) != 0;
  return scratch_;
}

const Candidate* CandidateBuilder::Merge(const Candidate& a,
                                         const Candidate& b,
                                         bool strict_coverage_growth) {
  if (a.root != b.root) return nullptr;
  const KeywordMask merged_mask = a.covered | b.covered;
  if (strict_coverage_growth &&
      (merged_mask == a.covered || merged_mask == b.covered)) {
    return nullptr;
  }
  // One walk over both sorted node arrays: the union, and the sanity check
  // (cycle avoidance) that they share only the root.
  node_buf_.clear();
  uint32_t i = 0;
  uint32_t j = 0;
  while (i < a.size && j < b.size) {
    if (a.nodes[i] == b.nodes[j]) {
      if (a.nodes[i] != a.root) return nullptr;
      node_buf_.push_back(a.nodes[i]);
      ++i;
      ++j;
    } else if (a.nodes[i] < b.nodes[j]) {
      node_buf_.push_back(a.nodes[i++]);
    } else {
      node_buf_.push_back(b.nodes[j++]);
    }
  }
  node_buf_.insert(node_buf_.end(), a.nodes + i, a.nodes + a.size);
  node_buf_.insert(node_buf_.end(), b.nodes + j, b.nodes + b.size);

  edge_buf_.assign(a.edges, a.edges + (a.size - 1));
  edge_buf_.insert(edge_buf_.end(), b.edges, b.edges + (b.size - 1));

  scratch_ = Candidate{};
  scratch_.root = a.root;
  scratch_.size = static_cast<uint32_t>(node_buf_.size());
  scratch_.height = std::max(a.height, b.height);
  scratch_.diameter =
      std::max({a.diameter, b.diameter, a.height + b.height});
  scratch_.non_root_leaves = a.non_root_leaves + b.non_root_leaves;
  scratch_.covered = merged_mask;
  scratch_.edge_hash = a.edge_hash + b.edge_hash;
  scratch_.nodes = node_buf_.data();
  scratch_.edges = edge_buf_.data();
  viable_ = scratch_.size == 1 ||
            (CollectLeafMasks(scratch_, /*with_degree1_root=*/false) &&
             MasksMatchable());
  return &scratch_;
}

bool CandidateBuilder::IsReduced(const Candidate& c) {
  if (c.size == 1) {
    masks_.assign(1, nodes_->mask(c.root));
    return MasksMatchable();
  }
  return CollectLeafMasks(c, /*with_degree1_root=*/true) && MasksMatchable();
}

bool CandidateBuilder::CollectLeafMasks(const Candidate& c,
                                        bool with_degree1_root) {
  const size_t limit = nodes_->num_keywords();
  const std::span<const CandidateEdge> edges = c.tree_edges();
  masks_.clear();
  uint32_t root_children = 0;
  for (const CandidateEdge& e : edges) {
    if (e.parent == c.root) ++root_children;
    // Edges point away from the root, so a non-root node is a leaf exactly
    // when it is nobody's parent (trees are small: a linear scan beats
    // sorting).
    const bool is_parent =
        std::any_of(edges.begin(), edges.end(),
                    [&](const CandidateEdge& f) { return f.parent == e.child; });
    if (is_parent) continue;
    if (masks_.size() == limit) return false;
    masks_.push_back(nodes_->mask(e.child));
  }
  if (with_degree1_root && root_children == 1) {
    if (masks_.size() == limit) return false;
    masks_.push_back(nodes_->mask(c.root));
  }
  return true;
}

bool CandidateBuilder::MasksMatchable() const {
  if (masks_.size() > nodes_->num_keywords()) return false;
  for (KeywordMask m : masks_) {
    if (m == 0) return false;  // matches nothing
  }
  int owner[32];
  std::fill(owner, owner + 32, -1);
  for (size_t i = 0; i < masks_.size(); ++i) {
    KeywordMask visited = 0;
    if (!Augment(i, masks_, &visited, owner)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Placement, materialization and audits

Candidate PlaceCandidate(const Candidate& c, Arena& arena) {
  Candidate placed = c;
  NodeId* nodes = arena.AllocateArray<NodeId>(c.size);
  std::copy(c.nodes, c.nodes + c.size, nodes);
  placed.nodes = nodes;
  CandidateEdge* edges = arena.AllocateArray<CandidateEdge>(c.size - 1);
  std::copy(c.edges, c.edges + (c.size - 1), edges);
  placed.edges = edges;
  return placed;
}

Jtt MaterializeJtt(const Candidate& c) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(c.size - 1);
  for (const CandidateEdge& e : c.tree_edges()) {
    edges.emplace_back(e.parent, e.child);
  }
  Result<Jtt> tree = Jtt::Create(c.root, std::move(edges));
  CIRANK_CHECK_OK(tree.status());
  return std::move(tree).value();
}

Status ValidateCandidate(const Candidate& c, const QueryNodeTable& nodes) {
  std::vector<std::pair<NodeId, NodeId>> edge_list;
  edge_list.reserve(c.size - 1);
  for (const CandidateEdge& e : c.tree_edges()) {
    edge_list.emplace_back(e.parent, e.child);
  }
  CIRANK_ASSIGN_OR_RETURN(Jtt tree, Jtt::Create(c.root, std::move(edge_list)));
  CIRANK_RETURN_IF_ERROR(ValidateJtt(tree));
  if (!std::equal(tree.nodes().begin(), tree.nodes().end(), c.nodes)) {
    return Status::Internal("candidate node array is not its sorted node set");
  }
  const std::vector<uint32_t> depth = RootDepths(tree);
  for (const CandidateEdge& e : c.tree_edges()) {
    if (depth[tree.IndexOf(e.parent)] + 1 != depth[tree.IndexOf(e.child)]) {
      return Status::Internal("candidate edge does not point away from the root");
    }
  }
  const Candidate facts = FactsOf(tree, depth, nodes);
  auto mismatch = [](const char* what, uint64_t stored, uint64_t actual) {
    return Status::Internal(std::string("candidate ") + what + " is " +
                            std::to_string(stored) + ", its tree's is " +
                            std::to_string(actual));
  };
  if (c.diameter != facts.diameter) {
    return mismatch("diameter", c.diameter, facts.diameter);
  }
  if (c.height != facts.height) return mismatch("height", c.height, facts.height);
  if (c.non_root_leaves != facts.non_root_leaves) {
    return mismatch("non-root leaf count", c.non_root_leaves,
                    facts.non_root_leaves);
  }
  if (c.covered != facts.covered) {
    return mismatch("coverage", c.covered, facts.covered);
  }
  if (c.edge_hash != facts.edge_hash) {
    return mismatch("edge hash", c.edge_hash, facts.edge_hash);
  }
  return Status::OK();
}

Candidate CandidateFromJtt(const Jtt& tree, const Graph& graph,
                           const QueryNodeTable& nodes, Arena& arena) {
  const std::vector<uint32_t> depth = RootDepths(tree);
  Candidate c = FactsOf(tree, depth, nodes);
  std::vector<CandidateEdge> edges;
  edges.reserve(tree.edges().size());
  for (auto [a, b] : tree.edges()) {
    // Orient each edge away from the root.
    if (depth[tree.IndexOf(a)] > depth[tree.IndexOf(b)]) std::swap(a, b);
    edges.push_back(
        CandidateEdge{a, b, graph.edge_weight(a, b), graph.edge_weight(b, a)});
  }
  c.nodes = tree.nodes().data();
  c.edges = edges.data();
  return PlaceCandidate(c, arena);
}

// ---------------------------------------------------------------------------
// CandidateSet

const Candidate* CandidateSet::Find(const Candidate& c) const {
  if (slots_.empty()) return nullptr;
  const uint64_t hash = c.Hash();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i].candidate != nullptr;
       i = (i + 1) & mask) {
    if (slots_[i].hash == hash && SameCandidate(*slots_[i].candidate, c)) {
      return slots_[i].candidate;
    }
  }
  return nullptr;
}

void CandidateSet::Insert(const Candidate* c) {
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(64, 2 * slots_.size()));
  }
  const uint64_t hash = c->Hash();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].candidate != nullptr) i = (i + 1) & mask;
  slots_[i] = Slot{hash, c};
  ++size_;
}

void CandidateSet::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.candidate == nullptr) continue;
    size_t i = s.hash & mask;
    while (slots_[i].candidate != nullptr) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace cirank
