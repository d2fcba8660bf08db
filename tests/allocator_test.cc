#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "tensor/allocator.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace causalformer {
namespace {

TEST(CpuAllocatorTest, ReturnsAlignedMemory) {
  auto& alloc = CpuAllocator::Global();
  for (const size_t bytes : {1u, 7u, 64u, 1000u, 4096u}) {
    void* p = alloc->Allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % kTensorAlignment, 0u);
    alloc->Deallocate(p, bytes);
  }
}

TEST(TensorBufferTest, AlignmentAndCount) {
  TensorBuffer buf(CpuAllocator::Global(), 13);
  EXPECT_EQ(buf.count(), 13);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % kTensorAlignment, 0u);
  // AVX2 aligned loads need 32 bytes; the cache-line alignment covers it.
  EXPECT_GE(kTensorAlignment, 32u);
}

TEST(ArenaAllocatorTest, ReusesSameClassBlocks) {
  ArenaAllocator arena;
  void* a = arena.Allocate(100);  // -> 128B class
  arena.Deallocate(a, 100);
  void* b = arena.Allocate(120);  // same class, must come from the pool
  EXPECT_EQ(a, b);
  arena.Deallocate(b, 120);

  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.allocs, 2);
  EXPECT_EQ(stats.parent_allocs, 1);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.outstanding, 0);
  EXPECT_GT(stats.pooled_bytes, 0);
}

TEST(ArenaAllocatorTest, DifferentClassesDoNotMix) {
  ArenaAllocator arena;
  void* small = arena.Allocate(64);
  arena.Deallocate(small, 64);
  void* large = arena.Allocate(4096);
  EXPECT_NE(small, large);  // 4096B request cannot reuse the 64B block
  arena.Deallocate(large, 4096);
  EXPECT_EQ(arena.stats().parent_allocs, 2);
}

TEST(ArenaAllocatorTest, ResetReturnsPooledBlocksToParent) {
  auto tracking = std::make_shared<TrackingAllocator>();
  ArenaAllocator arena(tracking);
  void* p = arena.Allocate(256);
  arena.Deallocate(p, 256);
  EXPECT_EQ(arena.stats().pooled_bytes, 256);
  arena.Reset();
  EXPECT_EQ(arena.stats().pooled_bytes, 0);
  EXPECT_EQ(tracking->allocate_calls(), 1);
  EXPECT_EQ(tracking->deallocate_calls(), 1);
  // After Reset the pool is cold again: the next request hits the parent.
  void* q = arena.Allocate(256);
  EXPECT_EQ(tracking->allocate_calls(), 2);
  arena.Deallocate(q, 256);
}

TEST(ArenaAllocatorTest, CrossThreadAllocAndFree) {
  // Buffers allocated on one thread may be released from another (a detect
  // worker hands results to the caller). Hammer the arena from several
  // threads; run under TSan in CI.
  auto arena = std::make_shared<ArenaAllocator>();
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&arena, t] {
      for (int r = 0; r < kRounds; ++r) {
        const size_t bytes = 64u << ((t + r) % 6);
        void* p = arena->Allocate(bytes);
        ASSERT_NE(p, nullptr);
        arena->Deallocate(p, bytes);
      }
    });
  }
  for (auto& w : workers) w.join();
  const ArenaStats stats = arena->stats();
  EXPECT_EQ(stats.allocs, kThreads * kRounds);
  EXPECT_EQ(stats.outstanding, 0);
}

TEST(ArenaAllocatorTest, FreesPastTheCapGoToTheParent) {
  auto tracking = std::make_shared<TrackingAllocator>();
  ArenaAllocator arena(tracking);
  constexpr size_t kBlock = size_t{1} << 20;  // 1 MiB: exactly one class
  const int64_t fit = kArenaMaxPooledBytes / static_cast<int64_t>(kBlock);
  std::vector<void*> blocks;
  for (int64_t i = 0; i < fit + 2; ++i) {
    blocks.push_back(arena.Allocate(kBlock));
  }
  for (void* p : blocks) arena.Deallocate(p, kBlock);
  // The pool fills to the cap; the two releases past it reach the parent.
  const ArenaStats stats = arena.stats();
  EXPECT_EQ(stats.pooled_bytes, kArenaMaxPooledBytes);
  EXPECT_EQ(stats.parent_frees, 2);
  EXPECT_EQ(stats.outstanding, 0);
  EXPECT_EQ(tracking->deallocate_calls(), 2);
  // Pooled blocks still serve the next requests without a parent call.
  void* again = arena.Allocate(kBlock);
  EXPECT_EQ(tracking->allocate_calls(), fit + 2);
  arena.Deallocate(again, kBlock);
}

TEST(ArenaAllocatorTest, TotalsTrackLiveArenas) {
  const ArenaTotals before = TotalArenaStats();
  {
    ArenaAllocator arena;
    void* held = arena.Allocate(256);
    void* parked = arena.Allocate(1024);
    arena.Deallocate(parked, 1024);
    const ArenaTotals during = TotalArenaStats();
    EXPECT_EQ(during.arenas, before.arenas + 1);
    EXPECT_EQ(during.stats.outstanding, before.stats.outstanding + 1);
    EXPECT_EQ(during.stats.pooled_bytes, before.stats.pooled_bytes + 1024);
    arena.Deallocate(held, 256);
  }
  // A destroyed arena leaves the totals.
  const ArenaTotals after = TotalArenaStats();
  EXPECT_EQ(after.arenas, before.arenas);
  EXPECT_EQ(after.stats.pooled_bytes, before.stats.pooled_bytes);
}

TEST(ScopedAllocatorTest, InstallsAndRestoresPerThread) {
  auto arena = std::make_shared<ArenaAllocator>();
  EXPECT_EQ(CurrentAllocator()->name(), "cpu");
  {
    ScopedAllocator guard(arena);
    EXPECT_EQ(CurrentAllocator()->name(), "cpu-arena");
    {
      auto inner = std::make_shared<TrackingAllocator>();
      ScopedAllocator nested(inner);
      EXPECT_EQ(CurrentAllocator()->name(), "tracking");
    }
    EXPECT_EQ(CurrentAllocator()->name(), "cpu-arena");
    // Another thread sees the default: the scope is thread-local.
    std::thread([] {
      EXPECT_EQ(CurrentAllocator()->name(), "cpu");
    }).join();
  }
  EXPECT_EQ(CurrentAllocator()->name(), "cpu");
}

TEST(ScopedAllocatorTest, TensorsDrawFromTheInstalledAllocator) {
  auto tracking = std::make_shared<TrackingAllocator>();
  const int64_t before = tracking->allocate_calls();
  {
    ScopedAllocator guard(tracking);
    Tensor t = Tensor::Zeros(Shape{4, 4});
    EXPECT_EQ(tracking->allocate_calls(), before + 1);
    // Zeros must clear recycled (dirty) memory.
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
  }
  Tensor outside = Tensor::Zeros(Shape{4, 4});
  EXPECT_EQ(tracking->allocate_calls(), before + 1);
}

TEST(ArenaAllocatorTest, BufferMayOutliveScopeAndFreeLater) {
  auto arena = std::make_shared<ArenaAllocator>();
  Tensor survivor;
  {
    ScopedAllocator guard(arena);
    survivor = Tensor::Full(Shape{8}, 3.0f);
  }
  // The buffer still reads correctly after the scope ended...
  EXPECT_EQ(survivor.data()[0], 3.0f);
  EXPECT_EQ(arena->stats().outstanding, 1);
  // ...and releasing it parks the block back in the arena's pool.
  survivor = Tensor();
  EXPECT_EQ(arena->stats().outstanding, 0);
  EXPECT_GT(arena->stats().pooled_bytes, 0);
}

TEST(DetectArenaTest, EachThreadGetsItsOwnArena) {
  ArenaAllocator* here = DetectArena().get();
  EXPECT_EQ(DetectArena().get(), here);  // stable within a thread
  std::shared_ptr<ArenaAllocator> other;
  std::thread([&other] { other = DetectArena(); }).join();
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other.get(), here);
}

TEST(DetectArenaTest, CrossThreadFreeReturnsToOwningArena) {
  // Thread A allocates from its arena and exits; the outstanding block keeps
  // that arena alive.
  std::shared_ptr<ArenaAllocator> arena_a;
  Tensor block;
  std::thread([&] {
    arena_a = DetectArena();
    ScopedAllocator guard(DetectArena());
    block = Tensor::Empty(Shape{1000});  // 4000 bytes: the 4 KiB class
  }).join();
  ASSERT_EQ(arena_a->stats().outstanding, 1);

  // Thread B releases it: the block parks in A's pool, not B's.
  std::shared_ptr<ArenaAllocator> arena_b;
  std::thread([&] {
    arena_b = DetectArena();
    block = Tensor();
  }).join();
  EXPECT_NE(arena_b, arena_a);
  EXPECT_EQ(arena_b->stats().pooled_bytes, 0);
  const ArenaStats a = arena_a->stats();
  EXPECT_EQ(a.outstanding, 0);
  EXPECT_EQ(a.pooled_bytes, 4096);
  EXPECT_EQ(a.parent_frees, 0);

  // A's next same-class request reuses the block.
  void* again = arena_a->Allocate(4000);
  EXPECT_EQ(arena_a->stats().pool_hits, 1);
  EXPECT_EQ(arena_a->stats().parent_allocs, 1);
  arena_a->Deallocate(again, 4000);
}

// The tentpole acceptance test: after a warm-up request, a steady-state
// detect performs zero allocations through to the parent allocator — every
// tensor the pass creates recycles through DetectArena()'s free lists. The
// detector installs DetectArena() itself, so the assertion reads that arena's
// parent_allocs counter directly.
TEST(DetectArenaTest, SteadyStateDetectDoesZeroMallocs) {
  Rng rng(7);
  data::SyntheticOptions sopt;
  sopt.length = 80;
  const data::Dataset dataset =
      data::GenerateSynthetic(data::SyntheticStructure::kFork, sopt, &rng);

  core::ModelOptions mopt;
  mopt.num_series = dataset.num_series();
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 1;
  mopt.d_ffn = 8;
  core::CausalityTransformer model(mopt, &rng);

  core::TrainOptions topt;
  topt.max_epochs = 1;
  Tensor windows;
  core::TrainCausalityTransformer(&model, dataset.series, topt, &rng,
                                  &windows);

  const core::DetectorOptions dopts;
  // Warm-up request: populates the arena's size-class pools.
  const auto first = core::DetectCausalGraph(model, windows, dopts);
  ASSERT_GT(first.scores.num_series(), 0);

  const int64_t warm = DetectArena()->stats().parent_allocs;
  const auto second = core::DetectCausalGraph(model, windows, dopts);
  EXPECT_EQ(DetectArena()->stats().parent_allocs, warm)
      << "steady-state detect reached the parent allocator";

  // Same request, same result: recycled (dirty) arena blocks must not leak
  // stale values into a repeated detection.
  const int n = first.scores.num_series();
  ASSERT_EQ(second.scores.num_series(), n);
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      EXPECT_EQ(first.scores.at(from, to), second.scores.at(from, to));
    }
  }
}

}  // namespace
}  // namespace causalformer
