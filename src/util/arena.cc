#include "util/arena.h"

#include <cstdlib>

#include "util/check.h"

namespace cirank {

void* Arena::Allocate(size_t bytes, size_t align) {
  CIRANK_CHECK(align != 0 && (align & (align - 1)) == 0)
      << "alignment must be a power of two, got " << align;
  if (bytes == 0) bytes = 1;

  uintptr_t p = reinterpret_cast<uintptr_t>(cursor_);
  uintptr_t aligned = (p + align - 1) & ~(uintptr_t{align} - 1);
  if (cursor_ == nullptr ||
      aligned + bytes > reinterpret_cast<uintptr_t>(limit_)) {
    // A fresh block is max_align-aligned, so only the size needs headroom.
    AddBlock(bytes + align);
    p = reinterpret_cast<uintptr_t>(cursor_);
    aligned = (p + align - 1) & ~(uintptr_t{align} - 1);
  }
  cursor_ = reinterpret_cast<char*>(aligned + bytes);
  bytes_used_ += bytes;
  return reinterpret_cast<void*>(aligned);
}

void Arena::AddBlock(size_t min_bytes) {
  const size_t size = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
  char* data = static_cast<char*>(::operator new(size));
  blocks_.push_back(Block{data, size});
  bytes_reserved_ += size;
  cursor_ = data;
  limit_ = data + size;
}

void Arena::Reset() {
  for (const Block& b : blocks_) ::operator delete(b.data);
  blocks_.clear();
  cursor_ = nullptr;
  limit_ = nullptr;
  bytes_used_ = 0;
  bytes_reserved_ = 0;
}

}  // namespace cirank
