#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/profiler.h"
#include "util/logging.h"

namespace causalformer {
namespace {
// True on pool worker threads; ParallelFor then runs inline to avoid a
// worker blocking in a latch wait on tasks that only it could run.
thread_local bool t_in_worker = false;
}  // namespace

// 2^18 multiply-adds is a few tens of microseconds of arithmetic: enough to
// amortize a queue push and a worker wake-up. At 2^15 the matmuls of a
// 16-request serving batch (N=4, T=8, d=16) still split, and concurrent
// executors contend on the pool queue; at 2^18 no serving-geometry kernel
// splits (up to 256 windows per batch) while the paper-like detect (N=15,
// T=16, d=32, 32 windows) still fans out its causal convolutions.
const int64_t kMinTaskWork = int64_t{1} << 18;

ThreadPool::ThreadPool(int num_threads) {
  CF_CHECK_GT(num_threads, 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      const std::string name = "cf-work-" + std::to_string(i);
      obs::RegisterProfilingThread(name.c_str());
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = [] {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 4;
    if (const char* env = std::getenv("CF_NUM_THREADS")) {
      const int v = std::atoi(env);
      if (v > 0) n = v;
    }
    return new ThreadPool(n);
  }();
  return *pool;
}

namespace {

// Per-call completion latch: each ParallelFor call waits for its own chunks
// only, so concurrent callers (the serving layer's executors detecting at
// once) never wait on each other's tasks.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  int64_t remaining;

  explicit Latch(int64_t count) : remaining(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return remaining == 0; });
  }
};

}  // namespace

void ParallelFor(int64_t n, int64_t item_cost,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  // Items one task needs to reach kMinTaskWork, and how many such tasks the
  // range holds (computed by division, so huge costs cannot overflow).
  const int64_t cost = std::max<int64_t>(item_cost, 1);
  const int64_t min_items = (kMinTaskWork + cost - 1) / cost;
  const int64_t tasks = n / min_items;
  ThreadPool& pool = ThreadPool::Global();
  const int workers = pool.num_threads();
  // Nested calls (a pool task fanning out again) run inline: every worker
  // blocking in a latch wait on tasks only it could run would deadlock.
  if (t_in_worker || workers <= 1 || tasks < 2) {
    fn(0, n);
    return;
  }
  const int64_t chunks = std::min<int64_t>(workers, tasks);
  const int64_t chunk_size = (n + chunks - 1) / chunks;
  Latch latch(chunks - 1);
  for (int64_t c = 1; c < chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min(n, begin + chunk_size);
    if (begin >= end) {
      latch.CountDown();  // rounding left this chunk empty
      continue;
    }
    pool.Schedule([&fn, &latch, begin, end] {
      fn(begin, end);
      latch.CountDown();
    });
  }
  // The caller works on the first chunk instead of idling in the wait.
  fn(0, std::min(n, chunk_size));
  latch.Wait();
}

}  // namespace causalformer
