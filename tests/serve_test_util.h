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
#include <utility>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "serve/inference_engine.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Shared fixtures of the serving-layer tests (serve_test, serve_stress_test,
// stream_test, wire_test): tiny models, the DetectGate dispatch-timing lever,
// and the deterministic concurrency primitives (Barrier, ScriptedClock) the
// stress harness is built on.

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

// A DiscoveryCallback that fulfils a promise whose future lands in
// `*future`: tests that drive the callback-form layers (MicroBatcher,
// ScoreCache) directly read results back the way SubmitAsync callers do.
inline DiscoveryCallback FutureCallback(std::future<DiscoveryResponse>* future) {
  auto promise = std::make_shared<std::promise<DiscoveryResponse>>();
  *future = promise->get_future();
  return [promise](DiscoveryResponse response) {
    promise->set_value(std::move(response));
  };
}

// The dispatch-timing lever of the batching, hot-swap, dedup and teardown
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
// advances it. Installed as an obs::Clock (an Observability bundle's, or a
// ScoreCacheOptions'), it makes TTL expiry a scripted event instead of a
// wall-clock race — the stress harness uses it to force "cached result just
// expired, identical queries must coalesce in flight, not recompute K
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

  // The clock as the std::function an obs::Clock wraps. The returned
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
