#ifndef CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_
#define CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "serve/engine_pool.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Shared fixtures of the serving-layer tests (serve_test, serve_stress_test,
// stream_test, wire_test, shard_fault_test): tiny models, the DetectGate
// dispatch-timing lever, the FailpointShard kill/drain-mid-batch
// choreography, and the deterministic concurrency primitives (Barrier,
// ScriptedClock) the stress harness is built on.

namespace causalformer {
namespace serve {
namespace testutil {

inline core::ModelOptions TinyModelOptions(int64_t num_series = 3,
                                           int64_t window = 8) {
  core::ModelOptions opt;
  opt.num_series = num_series;
  opt.window = window;
  opt.d_model = 16;
  opt.d_qk = 16;
  opt.heads = 2;
  opt.d_ffn = 16;
  return opt;
}

inline std::unique_ptr<core::CausalityTransformer> TinyModel(
    uint64_t seed = 7) {
  Rng rng(seed);
  return std::make_unique<core::CausalityTransformer>(TinyModelOptions(),
                                                      &rng);
}

inline Tensor RandomWindows(int64_t b, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(Shape{b, 3, 8}, &rng);
}

inline void ExpectSameDetection(const core::DetectionResult& a,
                                const core::DetectionResult& b) {
  const int n = a.scores.num_series();
  ASSERT_EQ(b.scores.num_series(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(a.scores.at(i, j), b.scores.at(i, j)) << i << "," << j;
      EXPECT_EQ(a.delays[i][j], b.delays[i][j]) << i << "," << j;
    }
  }
  EXPECT_EQ(a.graph.ToString(), b.graph.ToString());
}

// The dispatch-timing lever of the batching, hot-swap, dedup and fault
// tests. Installed through hook() as the engine's
// detect_observer_for_testing, it counts every request the detector is about
// to compute and, while closed, parks the executor before the detect runs:
// the batch sits mid-execution and everything submitted after it stays
// queued, in flight, or parked as a dedup follower until Release(). The gate
// starts open; Close() arms it. It must outlive the engine it is installed
// in, and so it is destroyed after that engine: a held detect therefore
// waits at most kMaxHold, then fails the test and opens the gate, so an
// assertion that returns while the gate is closed cannot hang the engine's
// destructor (which joins its executors).
class DetectGate {
 public:
  static constexpr std::chrono::seconds kMaxHold{60};

  // The observer to install. `then`, when set, runs after the gate lets the
  // detect through (a counting or recording hook of the test's own).
  std::function<void(const CacheKey&)> hook(
      std::function<void(const CacheKey&)> then = nullptr) {
    return [this, then = std::move(then)](const CacheKey& key) {
      Pass();
      if (then) then(key);
    };
  }

  // Holds every detect that reaches the gate from now until Release().
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  // Lets the held detects (and every later one) run.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  // Requests that reached the gate, held or not.
  int arrivals() const { return arrivals_.load(); }

 private:
  void Pass() {
    ++arrivals_;
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, kMaxHold, [this] { return !closed_; })) {
      ADD_FAILURE() << "DetectGate held a detect for " << kMaxHold.count()
                    << " s without Release(); opening it";
      closed_ = false;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  std::atomic<int> arrivals_{0};
};

// Fault-injection choreography for one EnginePool shard: wedge the shard
// mid-batch (the pool's engines share `gate`, installed in their options;
// this closes it, so an executing batch cannot finish), then kill or drain it
// on a helper thread — both block inside the engine teardown until the
// detects are released, which is exactly the window the fault tests assert
// in (followers parked, queue pending, ring already re-homed). Destruction
// releases the gate and joins the helper, so a failing assertion mid-scene
// cannot hang the test.
class FailpointShard {
 public:
  FailpointShard(EnginePool* pool, size_t shard, DetectGate* gate)
      : pool_(pool), shard_(shard), gate_(gate) {
    gate_->Close();
  }

  ~FailpointShard() {
    Release();
    Join();
  }

  // Submits through the shard's pinned frontend and blocks until the shard
  // reports an executing batch — held at the gate.
  std::future<DiscoveryResponse> SubmitStuck(DiscoveryRequest request) {
    auto future =
        pool_->shard_frontend(shard_)->SubmitAsync(std::move(request));
    WaitExecuting();
    return future;
  }

  // Spins until the shard's batcher reports at least one executing batch.
  void WaitExecuting() {
    while (pool_->shard_stats()[shard_].engine.batcher.active_batches < 1) {
      std::this_thread::yield();
    }
  }

  // Launches KillShard/DrainShard on the helper thread. It blocks in the
  // engine teardown (kill) or the quiesce poll (drain) until the gate is
  // released; the ring re-homes the shard's keys immediately though —
  // spin on pool()->router().is_live(shard()) turning false to sequence.
  void KillAsync() {
    StartOp([this] { return pool_->KillShard(shard_); });
  }
  void DrainAsync() {
    StartOp([this] { return pool_->DrainShard(shard_); });
  }

  // Lets the wedged batch (and everything queued behind it) run.
  void Release() { gate_->Release(); }

  // Waits for the pending kill/drain and returns its Status.
  Status Join() {
    if (op_.joinable()) op_.join();
    return status_;
  }

  EnginePool* pool() { return pool_; }
  size_t shard() const { return shard_; }

 private:
  void StartOp(std::function<Status()> fn) {
    ASSERT_FALSE(op_.joinable()) << "one kill/drain at a time";
    op_ = std::thread([this, fn = std::move(fn)] { status_ = fn(); });
  }

  EnginePool* pool_;
  const size_t shard_;
  DetectGate* gate_;
  std::thread op_;
  Status status_;
};

// A reusable (generation-counted) thread barrier: Wait() blocks until
// `parties` threads have arrived, then releases them all. The stress harness
// uses it to line K submitter threads up on the same instant so their
// submissions genuinely race instead of trickling in.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties), waiting_(0) {}

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int parties_;
  int waiting_;
  uint64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

// A deterministic, thread-safe test clock: time stands still until the test
// advances it. Installed via ScoreCacheOptions/EngineOptions
// `cache_clock_for_testing`, it makes TTL expiry a scripted event instead of
// a wall-clock race — the stress harness uses it to force "cached result
// just expired, identical queries must coalesce in flight, not recompute K
// times".
class ScriptedClock {
 public:
  explicit ScriptedClock(double start = 0) : now_(start) {}

  double Now() const {
    std::lock_guard<std::mutex> lock(mu_);
    return now_;
  }

  void Advance(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ += seconds;
  }

  // The clock as the std::function the cache options expect. The returned
  // callable references this clock; keep it alive for the cache's lifetime.
  std::function<double()> fn() {
    return [this] { return Now(); };
  }

 private:
  mutable std::mutex mu_;
  double now_;
};

}  // namespace testutil
}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_TESTS_SERVE_TEST_UTIL_H_
