#ifndef CAUSALFORMER_TENSOR_ALLOCATOR_H_
#define CAUSALFORMER_TENSOR_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// CPU allocators and the TensorBuffer that Tensor storage rides on
/// (in the style of cavs' Allocator/TensorBufferBase split).
///
/// Every Tensor owns a TensorBuffer obtained from an Allocator. The default
/// allocator is a process-wide aligned CPU allocator; hot paths (the batched
/// detector, the trainer) install their thread's DetectArena() via
/// ScopedAllocator so the per-request batch tensors are recycled through
/// size-class free lists. Each thread has its own arena, so concurrent
/// executors never share an allocator lock. The tensor objects themselves
/// (shape, buffer handle and tape node) come from a per-thread pool in
/// tensor.cc, so a warm detect takes neither a buffer nor a tensor object
/// from the heap: what it still allocates is per-batch bookkeeping and the
/// DetectionResults it returns, which tests/alloc_budget_test.cc holds to a
/// budget.
///
/// Buffers keep a shared_ptr to the allocator they came from, so a buffer may
/// be released from any thread and at any time after its allocating scope
/// ended — it returns to the arena that allocated it, and the allocator
/// outlives its last buffer by construction. A block parked in an arena's
/// free list is poisoned for AddressSanitizer until it is handed out again.

namespace causalformer {

/// Alignment of every tensor buffer in bytes: one cache line, which also
/// satisfies the 32-byte requirement of AVX2 aligned loads.
constexpr size_t kTensorAlignment = 64;

/// Hard cap on a single tensor's byte size (1 TiB). Catches index-arithmetic
/// overflow bugs (negative or absurd element counts) at construction time
/// instead of as a wild pointer deep inside a kernel.
constexpr int64_t kMaxTensorBytes = int64_t{1} << 40;

/// Abstract memory source for tensor buffers.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Returns a block of at least `bytes` bytes aligned to kTensorAlignment.
  /// Never returns nullptr (aborts on exhaustion).
  virtual void* Allocate(size_t bytes) = 0;

  /// Releases a block previously returned by Allocate with the same `bytes`.
  virtual void Deallocate(void* ptr, size_t bytes) = 0;

  /// Human-readable allocator name (metrics, debug strings).
  virtual std::string name() const = 0;
};

/// Plain aligned CPU allocator (the process-wide default).
class CpuAllocator : public Allocator {
 public:
  void* Allocate(size_t bytes) override;
  void Deallocate(void* ptr, size_t bytes) override;
  std::string name() const override { return "cpu"; }

  /// The shared process-wide instance.
  static const std::shared_ptr<Allocator>& Global();
};

/// Cap on the bytes one ArenaAllocator keeps parked in its free lists
/// (32 MiB). A release that would push the pool past it goes to the parent
/// allocator instead, so an arena's memory stays bounded. It never binds on
/// the serving path: the warm detect working set is about 0.7 MiB at the
/// cold serving geometry, 2.7 MiB for a full 256-window batch and 5 MiB at
/// the paper-like geometry (N=15, T=16, d=32, 32 windows).
constexpr int64_t kArenaMaxPooledBytes = int64_t{32} << 20;

/// Counters exposed by ArenaAllocator::stats().
struct ArenaStats {
  int64_t allocs = 0;         ///< Allocate() calls served
  int64_t pool_hits = 0;      ///< served from a free list (no parent call)
  int64_t parent_allocs = 0;  ///< blocks obtained from the parent allocator
  int64_t parent_frees = 0;   ///< releases sent to the parent (pool at cap)
  int64_t outstanding = 0;    ///< blocks currently handed out
  int64_t pooled_bytes = 0;   ///< bytes parked in free lists
};

/// Pooled arena: rounds requests up to power-of-two size classes and keeps a
/// free list per class. A released block parks in its class list and the next
/// same-class request reuses it, so a steady-state workload that allocates
/// recurring tensor geometries (the serving detect path) stops calling the
/// parent allocator entirely after warm-up. Parked bytes are capped at
/// kArenaMaxPooledBytes; releases past the cap free to the parent. A parked
/// block is poisoned for AddressSanitizer, so a read through a released
/// tensor's buffer is reported instead of seeing recycled data.
/// Thread-safe: blocks may be allocated and released from different threads
/// (each arena has its own mutex, uncontended when one thread owns it).
class ArenaAllocator : public Allocator {
 public:
  explicit ArenaAllocator(
      std::shared_ptr<Allocator> parent = CpuAllocator::Global());
  /// Returns all pooled blocks to the parent. Outstanding blocks keep the
  /// arena alive through their buffer's shared_ptr, so none exist here.
  ~ArenaAllocator() override;

  void* Allocate(size_t bytes) override;
  void Deallocate(void* ptr, size_t bytes) override;
  std::string name() const override { return "cpu-arena"; }

  /// Returns pooled (free) blocks to the parent allocator. Outstanding blocks
  /// are unaffected and will re-enter the (now empty) pool when released.
  void Reset();

  /// Snapshot of the pool counters.
  ArenaStats stats() const;

 private:
  static constexpr int kNumClasses = 40;  // classes 6..45 -> 64B..32TiB
  static int ClassIndex(size_t bytes);    // smallest class holding `bytes`
  static size_t ClassBytes(int cls) { return size_t{1} << (cls + 6); }

  const std::shared_ptr<Allocator> parent_;
  mutable std::mutex mu_;
  std::array<std::vector<void*>, kNumClasses> free_;
  ArenaStats stats_;
};

/// Pass-through allocator that counts the calls reaching its parent — test
/// instrumentation for what reaches an allocator's parent.
class TrackingAllocator : public Allocator {
 public:
  explicit TrackingAllocator(
      std::shared_ptr<Allocator> parent = CpuAllocator::Global());

  void* Allocate(size_t bytes) override;
  void Deallocate(void* ptr, size_t bytes) override;
  std::string name() const override { return "tracking"; }

  /// Number of Allocate() calls that reached this allocator.
  int64_t allocate_calls() const { return allocate_calls_.load(); }
  /// Number of Deallocate() calls that reached this allocator.
  int64_t deallocate_calls() const { return deallocate_calls_.load(); }
  /// Total bytes requested across all Allocate() calls.
  int64_t allocated_bytes() const { return allocated_bytes_.load(); }

 private:
  const std::shared_ptr<Allocator> parent_;
  std::atomic<int64_t> allocate_calls_{0};
  std::atomic<int64_t> deallocate_calls_{0};
  std::atomic<int64_t> allocated_bytes_{0};
};

/// The allocator new tensors on this thread draw from: the innermost live
/// ScopedAllocator, or CpuAllocator::Global() when none is installed.
const std::shared_ptr<Allocator>& CurrentAllocator();

/// RAII: installs `alloc` as this thread's CurrentAllocator for its lifetime.
/// Nests; destruction restores the previous allocator.
class ScopedAllocator {
 public:
  explicit ScopedAllocator(std::shared_ptr<Allocator> alloc);
  ~ScopedAllocator();

  ScopedAllocator(const ScopedAllocator&) = delete;
  ScopedAllocator& operator=(const ScopedAllocator&) = delete;

 private:
  std::shared_ptr<Allocator> prev_;
};

/// The calling thread's arena, which the detector and trainer install on
/// their hot paths: per-request batch tensors of recurring geometry recycle
/// through it. Created on the thread's first call; each thread gets its own,
/// so the serving executors allocate without contending. The thread holds
/// one reference until it exits; buffers still out keep the arena alive.
const std::shared_ptr<ArenaAllocator>& DetectArena();

/// Counters summed over every live ArenaAllocator (the per-thread detect
/// arenas and any other), with how many there are.
struct ArenaTotals {
  int64_t arenas = 0;  ///< live ArenaAllocator instances
  ArenaStats stats;    ///< their counters, summed field by field
};

/// Snapshot of ArenaTotals for metrics and debug state. Takes the mutex of
/// the live-arena list, which is otherwise touched only when an arena is
/// created or destroyed, plus each arena's own mutex in turn.
ArenaTotals TotalArenaStats();

/// A contiguous float32 block owned by an Allocator. Move-constructible, not
/// copyable: each tensor object holds its own buffer inline.
class TensorBuffer {
 public:
  /// Allocates room for `count` floats from `alloc` (checked: count >= 0 and
  /// total bytes < kMaxTensorBytes).
  TensorBuffer(std::shared_ptr<Allocator> alloc, int64_t count);
  ~TensorBuffer();

  TensorBuffer(TensorBuffer&& other) noexcept;
  TensorBuffer& operator=(TensorBuffer&&) = delete;
  TensorBuffer(const TensorBuffer&) = delete;
  TensorBuffer& operator=(const TensorBuffer&) = delete;

  /// The element storage, aligned to kTensorAlignment.
  float* data() const { return ptr_; }
  /// Element capacity.
  int64_t count() const { return count_; }
  /// The allocator this buffer came from (outlives the buffer).
  Allocator* allocator() const { return alloc_.get(); }

 private:
  std::shared_ptr<Allocator> alloc_;
  float* ptr_ = nullptr;
  int64_t count_ = 0;
};

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_ALLOCATOR_H_
