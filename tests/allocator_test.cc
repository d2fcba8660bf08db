#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
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

// After a warm-up request, a steady-state detect takes nothing from its
// pools' parents: every tensor buffer the pass creates recycles through
// DetectArena()'s free lists and every tensor object through the thread's
// tensor pool. (What the detect still allocates on the heap is counted in
// alloc_budget_test.) The detector installs DetectArena() itself, so the
// assertion reads that arena's parent_allocs counter directly.
TEST(DetectArenaTest, SteadyStateDetectRefillsNoPool) {
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
  const int64_t warm_objects = TensorPoolStats().parent_allocs;
  const auto second = core::DetectCausalGraph(model, windows, dopts);
  EXPECT_EQ(DetectArena()->stats().parent_allocs, warm)
      << "steady-state detect reached the parent allocator";
  EXPECT_EQ(TensorPoolStats().parent_allocs, warm_objects)
      << "steady-state detect allocated a tensor object";

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

// The server's shape of cross-thread traffic: its poll thread decodes each
// request's windows into a tensor, and an executor drops the tensor after the
// detect. The objects go back to the poll thread's pool, which reuses them
// once its own free list runs dry, and a pool whose thread exits is adopted
// by the next thread, so a late release still parks. Run under TSan in CI.
TEST(TensorPoolTest, WindowsDecodedOnOneThreadAndDroppedOnAnother) {
  constexpr int kRounds = 6;
  constexpr int kWindows = 40;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Tensor> queue;  // decoded, not yet detected
  int dropped = 0;
  bool done = false;

  std::thread exec([&] {
    for (;;) {
      Tensor window;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        window = std::move(queue.front());
        queue.pop_front();
      }
      EXPECT_EQ(window.data()[0], window.data()[window.numel() - 1]);
      window = Tensor();  // released on this thread
      std::lock_guard<std::mutex> lock(mu);
      ++dropped;
      cv.notify_all();
    }
  });

  int64_t refills_after_first_round = -1;
  std::thread poll([&] {
    for (int round = 0; round < kRounds; ++round) {
      if (round == 1) {
        refills_after_first_round = TensorPoolStats().parent_allocs;
      }
      // A round's windows are all live at once before the executor sees
      // them, so the first round leaves enough objects for every later one.
      std::vector<Tensor> decoded;
      for (int w = 0; w < kWindows; ++w) {
        decoded.push_back(Tensor::Full(Shape{4, 4, 8}, static_cast<float>(w)));
      }
      std::unique_lock<std::mutex> lock(mu);
      for (Tensor& window : decoded) queue.push_back(std::move(window));
      cv.notify_all();
      // Wait for the executor, so the next round reuses what it released.
      cv.wait(lock, [&] { return dropped == (round + 1) * kWindows; });
    }
    // Outlive this thread: the executor drops these after it exits.
    std::lock_guard<std::mutex> lock(mu);
    for (int w = 0; w < kWindows; ++w) {
      queue.push_back(Tensor::Full(Shape{4, 4, 8}, 1.0f));
    }
    cv.notify_all();
  });
  poll.join();
  // The later rounds ran on released objects alone.
  EXPECT_EQ(TensorPoolStats().parent_allocs, refills_after_first_round);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  }
  exec.join();
  EXPECT_EQ(dropped, (kRounds + 1) * kWindows);

  // A new thread adopts the exited one's pool and its parked objects.
  const int64_t before = TensorPoolStats().parent_allocs;
  std::thread([] {
    std::vector<Tensor> held;
    for (int w = 0; w < kWindows; ++w) held.push_back(Tensor::Zeros(Shape{8}));
  }).join();
  EXPECT_EQ(TensorPoolStats().parent_allocs, before);
}

// AddressSanitizer sees pooled memory: a parked arena block and a parked
// tensor object are poisoned, so reading one through a stale pointer is a
// reported use-after-poison, not a silent read of recycled data.
#if defined(__SANITIZE_ADDRESS__)
#define CF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CF_TEST_ASAN 1
#endif
#endif

TEST(ArenaAllocatorDeathTest, ReadingAReleasedBufferIsReported) {
#ifndef CF_TEST_ASAN
  GTEST_SKIP() << "only AddressSanitizer builds see poisoned blocks";
#else
  auto arena = std::make_shared<ArenaAllocator>();
  const float* stale_data = nullptr;
  const Shape* stale_shape = nullptr;
  {
    ScopedAllocator guard(arena);
    Tensor t = Tensor::Full(Shape{64}, 2.0f);
    stale_data = t.data();
    stale_shape = &t.impl()->shape;
  }  // t released: its buffer parks in the arena, its object in the pool
  EXPECT_DEATH(
      {
        const volatile float v = stale_data[3];
        (void)v;
      },
      "use-after-poison");
  EXPECT_DEATH(
      {
        const volatile int rank = stale_shape->ndim();
        (void)rank;
      },
      "use-after-poison");
#endif
}

}  // namespace
}  // namespace causalformer
