#ifndef CAUSALFORMER_UTIL_THREAD_POOL_H_
#define CAUSALFORMER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/function_ref.h"

/// \file
/// A small fixed-size thread pool plus a ParallelFor helper used by the heavy
/// tensor kernels (matmul, causal convolution, attention combine). The pool
/// is created lazily and shared process-wide; set CF_NUM_THREADS to override
/// the worker count (CF_NUM_THREADS=1 disables parallelism, useful for
/// debugging). Fan-out is decided from the work, not the item count: a
/// kernel call splits only when every task gets at least kMinTaskWork
/// multiply-adds, so the small serving-geometry kernels run inline on their
/// caller and only large (paper-like) detects use the pool.

namespace causalformer {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw. Completion is the caller's to
  /// track (ParallelFor uses a per-call latch).
  void Schedule(std::function<void()> task);

  /// Process-wide pool (created on first use).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  bool shutdown_ = false;
};

/// Minimum work of one ParallelFor task, in multiply-adds (2^18). Below
/// twice this, a call runs inline: queueing a task and waking a worker costs
/// more than the arithmetic it would offload.
extern const int64_t kMinTaskWork;

/// Runs fn(begin, end) over [0, n), where one item costs about `item_cost`
/// multiply-adds. When the total work n * item_cost reaches two tasks of
/// kMinTaskWork, the range splits into up to one chunk per pool worker (each
/// at least kMinTaskWork); the calling thread executes the first chunk itself
/// and a per-call latch tracks the rest, so the call is safe from any number
/// of concurrent threads. Otherwise — and for nested calls from a pool
/// worker, or on a one-worker pool — it is a single inline fn(0, n) on the
/// caller. `fn` is borrowed for the call, so passing a lambda allocates
/// nothing.
void ParallelFor(int64_t n, int64_t item_cost,
                 FunctionRef<void(int64_t, int64_t)> fn);

}  // namespace causalformer

#endif  // CAUSALFORMER_UTIL_THREAD_POOL_H_
