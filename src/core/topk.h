// The one answer order and the top-k accumulator every executor ranks
// through, plus branch-and-bound's arena entry of an admitted candidate and
// its per-root merge registry. The shard gather folds per-shard lists
// through the same accumulator, so the merged list applies the search's own
// dedup and tie-breaking rules — the sharded differential tests depend on
// that.
#ifndef CIRANK_CORE_TOPK_H_
#define CIRANK_CORE_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bnb_search.h"
#include "core/candidate.h"
#include "core/node_map.h"
#include "util/check.h"

namespace cirank {

// One admitted candidate, placed in the per-query arena (stable address,
// released wholesale at query end; trivially destructible, so the release
// runs no destructor). `chain_bound` is the Theorem-1 audit value: the
// minimum upper bound along the candidate's grow/merge derivation, within
// which every answer derived from it must score (Lemma 1).
// `next_same_root` links RootRegistry's chain.
struct AdmittedCandidate {
  Candidate c;
  double chain_bound = 0.0;
  const AdmittedCandidate* next_same_root = nullptr;
};

// The merge partners of Alg. 1's Smerge step: admitted candidates grouped
// by root, each group in admission order, chained through the arena
// entries. A merge pass takes a Prefix — the group as it stands when the
// pass starts — and walks exactly that many entries, so merges admitted
// during the walk are not revisited and nothing is copied: bnb's merge
// pass walks a prefix while Admit appends to the same chain. Not
// thread-safe.
class RootRegistry {
 public:
  class Prefix {
   public:
    class Iterator {
     public:
      Iterator(const AdmittedCandidate* e, uint32_t left) : e_(e), left_(left) {}
      const AdmittedCandidate& operator*() const { return *e_; }
      Iterator& operator++() {
        // The last entry's link may still be written by an Append.
        if (--left_ > 0) e_ = e_->next_same_root;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return left_ != o.left_; }

     private:
      const AdmittedCandidate* e_;
      uint32_t left_;
    };

    Prefix(const AdmittedCandidate* first, uint32_t count)
        : first_(first), count_(count) {}
    Iterator begin() const { return Iterator(first_, count_); }
    Iterator end() const { return Iterator(nullptr, 0); }

   private:
    const AdmittedCandidate* first_;
    uint32_t count_;
  };

  void Append(AdmittedCandidate* e) {
    bool inserted = false;
    Chain& chain = chains_.FindOrInsert(e->c.root, &inserted);
    if (inserted) {
      chain.first = e;
    } else {
      chain.last->next_same_root = e;
    }
    chain.last = e;
    ++chain.count;
  }

  Prefix At(NodeId root) const {
    const Chain* chain = chains_.Find(root);
    return chain == nullptr ? Prefix(nullptr, 0)
                            : Prefix(chain->first, chain->count);
  }

 private:
  struct Chain {
    AdmittedCandidate* first = nullptr;
    AdmittedCandidate* last = nullptr;
    uint32_t count = 0;
  };
  NodeMap<Chain> chains_;
};

// The answer order: score descending, then canonical tree key ascending, so
// equal scores break the same way in every ranked list. TopKAnswers keeps
// its answers in this order and EvaluateRanker ranks its pools by it.
inline bool RanksBefore(double score_a, const Jtt& a, double score_b,
                        const Jtt& b) {
  if (score_a != score_b) return score_a > score_b;
  return a.CanonicalKey() < b.CanonicalKey();
}

// Maintains the current top-k answers, deduplicated by canonical tree key
// and kept in RanksBefore order. NOT thread-safe. A duplicate keeps the
// instance offered first, so a caller whose offer order depends on the
// derivation (bnb) offers canonical forms (see Jtt::Canonicalized): the
// bytes of the final result then do not depend on which derivation reached
// a tree first.
class TopKAnswers {
 public:
  explicit TopKAnswers(size_t k) : k_(k) {}

  // Returns true when the answer is new (not a duplicate tree). Once the
  // accumulator is full, the pruning threshold MinScore() is monotonically
  // non-decreasing over any sequence of offers; the DCHECK below is the
  // machine-checked half of that property (the property test drives it
  // with offers in schedule-dependent order).
  bool Offer(Jtt tree, double score) {
    std::string key = tree.CanonicalKey();
    if (!seen_.insert(std::move(key)).second) return false;
    const bool was_full = Full();
    const double old_threshold = MinScore();
    answers_.push_back(RankedAnswer{std::move(tree), score});
    std::sort(answers_.begin(), answers_.end(),
              [](const RankedAnswer& a, const RankedAnswer& b) {
                return RanksBefore(a.score, a.tree, b.score, b.tree);
              });
    if (answers_.size() > k_) answers_.resize(k_);
    if (was_full) {
      CIRANK_DCHECK(MinScore() >= old_threshold)
          << "top-k pruning threshold decreased from " << old_threshold
          << " to " << MinScore();
    }
    return true;
  }

  bool Full() const { return answers_.size() >= k_; }
  size_t size() const { return answers_.size(); }
  double MinScore() const {
    return answers_.empty() ? 0.0 : answers_.back().score;
  }
  std::vector<RankedAnswer> Take() { return std::move(answers_); }

 private:
  size_t k_;
  std::vector<RankedAnswer> answers_;
  std::set<std::string> seen_;
};

}  // namespace cirank

#endif  // CIRANK_CORE_TOPK_H_
