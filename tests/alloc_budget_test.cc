// Heap-allocation budget of a warm detect.
//
// This binary replaces the global operator new and counts its calls on the
// calling thread, so it runs apart from the other suites. A detect draws its
// tensor buffers from the thread's DetectArena and its tensor objects from
// the thread's tensor pool; what is left on the heap is the per-batch
// bookkeeping and the returned DetectionResults. The budgets hold that down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/detector.h"
#include "tensor/allocator.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace {

// Zero-initialised, so reading it needs no thread-local constructor call.
thread_local int64_t t_news = 0;

void* CountedAlloc(std::size_t bytes) {
  ++t_news;
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t bytes, std::align_val_t align) {
  ++t_news;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = bytes == 0 ? a : (bytes + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line: an inlined operator delete would show the compiler free()
// paired with operator new and trip -Wmismatched-new-delete.
__attribute__((noinline)) void Release(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new[](std::size_t bytes) { return CountedAlloc(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return CountedAlignedAlloc(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return CountedAlignedAlloc(bytes, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}

namespace causalformer {
namespace {

core::ModelOptions Geometry(int64_t n, int64_t t, int64_t d, int64_t ffn) {
  core::ModelOptions m;
  m.num_series = n;
  m.window = t;
  m.d_model = d;
  m.d_qk = d;
  m.heads = 2;
  m.d_ffn = ffn;
  return m;
}

struct Count {
  int64_t news = 0;           ///< most operator new calls in one detect
  int64_t parent_allocs = 0;  ///< arena and pool refills over every detect
};

// Operator new calls of a warm DetectCausalGraphBatched over `requests`
// (each [windows, N, T]): the most any of five detects made, after two
// warm-up detects.
Count CountDetect(const core::ModelOptions& mopt, int requests,
                  int64_t windows) {
  Rng rng(11);
  const core::CausalityTransformer model(mopt, &rng);
  std::vector<Tensor> batch;
  for (int r = 0; r < requests; ++r) {
    batch.push_back(
        Tensor::Randn(Shape{windows, mopt.num_series, mopt.window}, &rng));
  }
  const core::DetectorOptions dopts;
  for (int warm = 0; warm < 2; ++warm) {
    EXPECT_EQ(core::DetectCausalGraphBatched(model, batch, dopts).size(),
              batch.size());
  }

  constexpr int kReps = 5;
  const int64_t arena_before = DetectArena()->stats().parent_allocs;
  const int64_t pool_before = TensorPoolStats().parent_allocs;
  Count count;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t news_before = t_news;
    {
      const std::vector<core::DetectionResult> results =
          core::DetectCausalGraphBatched(model, batch, dopts);
      EXPECT_EQ(results.size(), batch.size());
    }
    count.news = std::max(count.news, t_news - news_before);
  }
  count.parent_allocs = (DetectArena()->stats().parent_allocs - arena_before) +
                        (TensorPoolStats().parent_allocs - pool_before);
  std::printf("N=%lld T=%lld requests=%d: %lld operator new calls per detect\n",
              static_cast<long long>(mopt.num_series),
              static_cast<long long>(mopt.window), requests,
              static_cast<long long>(count.news));
  return count;
}

// One cold_serving request: four N=4, T=8 windows at d=16.
TEST(AllocBudgetTest, OneServingRequest) {
  const Count c = CountDetect(Geometry(4, 8, 16, 16), 1, 4);
  EXPECT_LE(c.news, 100);
  EXPECT_EQ(c.parent_allocs, 0) << "a warm detect refilled a pool";
}

// A full micro-batch of sixteen such requests: the count grows with the
// requests (their results), not with the tape.
TEST(AllocBudgetTest, SixteenServingRequests) {
  const Count c = CountDetect(Geometry(4, 8, 16, 16), 16, 4);
  EXPECT_LE(c.news, 460);
  EXPECT_EQ(c.parent_allocs, 0) << "a warm detect refilled a pool";
}

// One stream_fmri15 window: N=15, T=16 at d=32.
TEST(AllocBudgetTest, OneFmriWindow) {
  const Count c = CountDetect(Geometry(15, 16, 32, 32), 1, 1);
  EXPECT_LE(c.news, 200);
  EXPECT_EQ(c.parent_allocs, 0) << "a warm detect refilled a pool";
}

}  // namespace
}  // namespace causalformer
