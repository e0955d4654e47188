// Unit tests for the monotonic per-query Arena (util/arena.h): alignment,
// accounting, oversized allocations, and reuse across Reset().
#include "util/arena.h"

#include <cstdint>
#include <set>

#include <gtest/gtest.h>

namespace cirank {
namespace {

TEST(ArenaTest, AllocateReturnsAlignedDistinctMemory) {
  Arena arena;
  std::set<void*> seen;
  for (size_t align : {1u, 2u, 4u, 8u, 16u, 64u}) {
    for (int i = 0; i < 16; ++i) {
      void* p = arena.Allocate(24, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align=" << align;
      EXPECT_TRUE(seen.insert(p).second);
    }
  }
}

TEST(ArenaTest, ZeroByteAllocationsAreNonNull) {
  Arena arena;
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  EXPECT_NE(a, nullptr);
  EXPECT_NE(b, nullptr);
}

TEST(ArenaTest, AccountingTracksBytesAndBlocks) {
  Arena arena(/*block_bytes=*/1024);
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.num_blocks(), 0u);
  (void)arena.Allocate(100, 1);
  EXPECT_GE(arena.bytes_used(), 100u);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
  // Filling past the block size chains a new block.
  for (int i = 0; i < 20; ++i) (void)arena.Allocate(100, 1);
  EXPECT_GT(arena.num_blocks(), 1u);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  Arena arena(/*block_bytes=*/256);
  char* big = static_cast<char*>(arena.Allocate(1 << 20, 1));
  ASSERT_NE(big, nullptr);
  // The whole range must be writable.
  big[0] = 'a';
  big[(1 << 20) - 1] = 'z';
  EXPECT_GE(arena.bytes_reserved(), static_cast<size_t>(1 << 20));
}

TEST(ArenaTest, AllocateArrayIsUsable) {
  Arena arena;
  int64_t* xs = arena.AllocateArray<int64_t>(257);
  for (int i = 0; i < 257; ++i) xs[i] = i * i;
  EXPECT_EQ(xs[256], 256 * 256);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(xs) % alignof(int64_t), 0u);
}

TEST(ArenaTest, ResetAllowsReuse) {
  Arena arena;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) (void)arena.New<int>(i);
    EXPECT_GE(arena.bytes_used(), 100 * sizeof(int));
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    EXPECT_EQ(arena.num_blocks(), 0u);
  }
}

}  // namespace
}  // namespace cirank
