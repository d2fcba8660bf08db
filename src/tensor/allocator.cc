#include "tensor/allocator.h"

#include <algorithm>
#include <cstdlib>

#include "util/logging.h"

namespace causalformer {

namespace {

// Every live ArenaAllocator, for the summed arena gauges. Leaked, so an
// arena destroyed during static teardown (kept alive by a static tensor)
// still finds it.
struct ArenaList {
  std::mutex mu;
  std::vector<const ArenaAllocator*> arenas;
};

ArenaList& LiveArenas() {
  static ArenaList* list = new ArenaList();
  return *list;
}

}  // namespace

// ---- CpuAllocator ------------------------------------------------------------

void* CpuAllocator::Allocate(size_t bytes) {
  if (bytes == 0) bytes = kTensorAlignment;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const size_t rounded =
      (bytes + kTensorAlignment - 1) / kTensorAlignment * kTensorAlignment;
  void* ptr = std::aligned_alloc(kTensorAlignment, rounded);
  CF_CHECK(ptr != nullptr) << "CpuAllocator: out of memory allocating "
                           << rounded << " bytes";
  return ptr;
}

void CpuAllocator::Deallocate(void* ptr, size_t /*bytes*/) { std::free(ptr); }

const std::shared_ptr<Allocator>& CpuAllocator::Global() {
  static const std::shared_ptr<Allocator>* instance =
      new std::shared_ptr<Allocator>(std::make_shared<CpuAllocator>());
  return *instance;
}

// ---- ArenaAllocator ----------------------------------------------------------

ArenaAllocator::ArenaAllocator(std::shared_ptr<Allocator> parent)
    : parent_(std::move(parent)) {
  CF_CHECK(parent_ != nullptr);
  ArenaList& list = LiveArenas();
  std::lock_guard<std::mutex> lock(list.mu);
  list.arenas.push_back(this);
}

ArenaAllocator::~ArenaAllocator() {
  {
    // Leave the list first, so a concurrent scrape never reads a dying arena.
    ArenaList& list = LiveArenas();
    std::lock_guard<std::mutex> lock(list.mu);
    list.arenas.erase(
        std::find(list.arenas.begin(), list.arenas.end(), this));
  }
  Reset();
}

int ArenaAllocator::ClassIndex(size_t bytes) {
  // Smallest power-of-two class (>= 64B) that holds `bytes`.
  int cls = 0;
  while (ClassBytes(cls) < bytes) ++cls;
  CF_CHECK_LT(cls, kNumClasses) << "arena allocation too large: " << bytes;
  return cls;
}

void* ArenaAllocator::Allocate(size_t bytes) {
  const int cls = ClassIndex(bytes == 0 ? 1 : bytes);
  const size_t cls_bytes = ClassBytes(cls);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.allocs;
    ++stats_.outstanding;
    auto& list = free_[static_cast<size_t>(cls)];
    if (!list.empty()) {
      void* ptr = list.back();
      list.pop_back();
      ++stats_.pool_hits;
      stats_.pooled_bytes -= static_cast<int64_t>(cls_bytes);
      return ptr;
    }
    ++stats_.parent_allocs;
  }
  // Parent call outside the lock: it may be slow (mmap) and needs no state.
  return parent_->Allocate(cls_bytes);
}

void ArenaAllocator::Deallocate(void* ptr, size_t bytes) {
  const int cls = ClassIndex(bytes == 0 ? 1 : bytes);
  const int64_t cls_bytes = static_cast<int64_t>(ClassBytes(cls));
  {
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.outstanding;
    if (stats_.pooled_bytes + cls_bytes <= kArenaMaxPooledBytes) {
      free_[static_cast<size_t>(cls)].push_back(ptr);
      stats_.pooled_bytes += cls_bytes;
      return;
    }
    ++stats_.parent_frees;
  }
  // The pool is at its cap: the block goes home instead of parking.
  parent_->Deallocate(ptr, static_cast<size_t>(cls_bytes));
}

DeviceTag ArenaAllocator::device() const { return parent_->device(); }

void ArenaAllocator::Reset() {
  std::array<std::vector<void*>, kNumClasses> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(free_);
    stats_.pooled_bytes = 0;
  }
  for (int cls = 0; cls < kNumClasses; ++cls) {
    for (void* ptr : drained[static_cast<size_t>(cls)]) {
      parent_->Deallocate(ptr, ClassBytes(cls));
    }
  }
}

ArenaStats ArenaAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---- TrackingAllocator -------------------------------------------------------

TrackingAllocator::TrackingAllocator(std::shared_ptr<Allocator> parent)
    : parent_(std::move(parent)) {
  CF_CHECK(parent_ != nullptr);
}

void* TrackingAllocator::Allocate(size_t bytes) {
  allocate_calls_.fetch_add(1, std::memory_order_relaxed);
  allocated_bytes_.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
  return parent_->Allocate(bytes);
}

void TrackingAllocator::Deallocate(void* ptr, size_t bytes) {
  deallocate_calls_.fetch_add(1, std::memory_order_relaxed);
  parent_->Deallocate(ptr, bytes);
}

DeviceTag TrackingAllocator::device() const { return parent_->device(); }

// ---- Scoped current allocator ------------------------------------------------

namespace {

// Innermost scoped allocator per thread; empty means the global CPU default.
thread_local std::shared_ptr<Allocator> t_current;

}  // namespace

const std::shared_ptr<Allocator>& CurrentAllocator() {
  if (t_current) return t_current;
  return CpuAllocator::Global();
}

ScopedAllocator::ScopedAllocator(std::shared_ptr<Allocator> alloc) {
  CF_CHECK(alloc != nullptr);
  prev_ = std::move(t_current);
  t_current = std::move(alloc);
}

ScopedAllocator::~ScopedAllocator() { t_current = std::move(prev_); }

const std::shared_ptr<ArenaAllocator>& DetectArena() {
  thread_local const std::shared_ptr<ArenaAllocator> arena =
      std::make_shared<ArenaAllocator>();
  return arena;
}

ArenaTotals TotalArenaStats() {
  ArenaTotals totals;
  ArenaList& list = LiveArenas();
  std::lock_guard<std::mutex> lock(list.mu);
  for (const ArenaAllocator* arena : list.arenas) {
    const ArenaStats s = arena->stats();
    ++totals.arenas;
    totals.stats.allocs += s.allocs;
    totals.stats.pool_hits += s.pool_hits;
    totals.stats.parent_allocs += s.parent_allocs;
    totals.stats.parent_frees += s.parent_frees;
    totals.stats.outstanding += s.outstanding;
    totals.stats.pooled_bytes += s.pooled_bytes;
  }
  return totals;
}

// ---- TensorBuffer ------------------------------------------------------------

TensorBuffer::TensorBuffer(std::shared_ptr<Allocator> alloc, int64_t count)
    : alloc_(std::move(alloc)), count_(count) {
  CF_CHECK(alloc_ != nullptr);
  CF_CHECK_GE(count, 0) << "negative tensor element count";
  const int64_t bytes = count * static_cast<int64_t>(sizeof(float));
  CF_CHECK_LT(bytes, kMaxTensorBytes)
      << "tensor of " << count << " elements exceeds the size cap";
  ptr_ = static_cast<float*>(
      alloc_->Allocate(static_cast<size_t>(count) * sizeof(float)));
}

TensorBuffer::~TensorBuffer() {
  if (ptr_ != nullptr) {
    alloc_->Deallocate(ptr_, static_cast<size_t>(count_) * sizeof(float));
  }
}

}  // namespace causalformer
