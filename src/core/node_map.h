// Open-addressing NodeId -> V map for per-query search state: the node
// table, the bound calculator's per-root memo and the executors' per-root
// merge registries. Linear probing over one flat slot array (power-of-two
// capacity, load factor at most 1/2), keyed by the node id with
// kInvalidNode marking an empty slot. Lookups are a multiply, a shift and a
// probe or two, with no per-entry heap node to free at query end.
#ifndef CIRANK_CORE_NODE_MAP_H_
#define CIRANK_CORE_NODE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace cirank {

template <typename V>
class NodeMap {
 public:
  explicit NodeMap(size_t expected_size = 0) {
    size_t capacity = kMinCapacity;
    while (capacity < 2 * expected_size) capacity *= 2;
    Rehash(capacity);
  }

  size_t size() const { return size_; }

  // The value stored for `key`, or null when absent.
  const V* Find(NodeId key) const {
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kInvalidNode) return nullptr;
    }
  }
  V* Find(NodeId key) {
    return const_cast<V*>(static_cast<const NodeMap&>(*this).Find(key));
  }

  // The value stored for `key`, value-initialized first when absent;
  // `*inserted` (when non-null) reports which. The reference is valid until
  // the next insertion.
  V& FindOrInsert(NodeId key, bool* inserted = nullptr) {
    CIRANK_DCHECK(key != kInvalidNode);
    if (2 * (size_ + 1) > slots_.size()) Rehash(2 * slots_.size());
    size_t i = Home(key);
    for (; slots_[i].key != kInvalidNode; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        if (inserted != nullptr) *inserted = false;
        return slots_[i].value;
      }
    }
    slots_[i].key = key;
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return slots_[i].value;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    NodeId key = kInvalidNode;
    V value{};
  };

  // Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(NodeId key) const {
    return static_cast<size_t>((uint64_t{key} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.key == kInvalidNode) continue;
      size_t i = Home(s.key);
      while (slots_[i].key != kInvalidNode) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace cirank

#endif  // CIRANK_CORE_NODE_MAP_H_
