// Monotonic arena allocator for per-query scratch state. The search
// pipeline creates one Arena per query (owned by ExecutionContext) and
// places admitted candidates, with their node and edge arrays, into it;
// everything is released wholesale when the query ends instead of paying a
// heap round-trip per candidate. Only trivially destructible values may be
// placed (New and AllocateArray static_assert it), so releasing a query's
// state frees a handful of blocks and runs no destructor: a per-query
// teardown cost cannot creep back without a compile error.
//
// Thread-safety: none. An arena belongs to one query's ExecutionContext and
// is used only on the thread that runs the query.
#ifndef CIRANK_UTIL_ARENA_H_
#define CIRANK_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace cirank {

class Arena {
 public:
  // `block_bytes` is the payload size of each chained block; allocations
  // larger than a block get a dedicated oversized block.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes < kMinBlockBytes ? kMinBlockBytes
                                                  : block_bytes) {}
  ~Arena() { Reset(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Raw aligned storage, valid until Reset()/destruction. `align` must be a
  // power of two. Zero-byte requests return a unique non-null pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  // Constructs a T inside the arena. T must be trivially destructible: the
  // arena never runs destructors.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena::New requires a trivially destructible T");
    void* slot = Allocate(sizeof(T), alignof(T));
    return ::new (slot) T(std::forward<Args>(args)...);
  }

  // Uninitialized array of `n` Ts (T must be trivially destructible).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "AllocateArray requires a trivially destructible T");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // Releases every block. The arena is reusable afterwards.
  void Reset();

  // Total bytes handed out to callers (excludes block slack).
  size_t bytes_used() const { return bytes_used_; }
  // Total bytes reserved from the system heap across all blocks.
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  static constexpr size_t kMinBlockBytes = 256;

  struct Block {
    char* data = nullptr;
    size_t size = 0;
  };

  // Adds a block of at least `min_bytes` payload and points the bump cursor
  // at it.
  void AddBlock(size_t min_bytes);

  size_t block_bytes_;
  std::vector<Block> blocks_;
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace cirank

#endif  // CIRANK_UTIL_ARENA_H_
