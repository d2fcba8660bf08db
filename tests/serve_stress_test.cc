#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "serve/engine_pool.h"
#include "serve/inference_engine.h"
#include "serve/inflight.h"
#include "serve/model_registry.h"
#include "serve/score_cache.h"
#include "serve_test_util.h"

// The serving-layer concurrency/stress harness: K threads hammer one
// InferenceEngine with identical and near-identical (epsilon-perturbed)
// queries while a detector call-counting hook proves the dedup invariant —
// detector invocations equal *unique* (model generation, window hash,
// options) keys, never submissions — and every follower receives
// bit-identical scores. The leader-error, engine-teardown and
// unload-while-parked fan-in paths are exercised explicitly. Timing is
// controlled, not raced: testutil::Barrier lines submitters up on one
// instant, testutil::DetectGate freezes detection so submissions provably
// overlap in flight, and testutil::ScriptedClock makes TTL expiry a scripted
// event. Run under ThreadSanitizer in CI (the `tsan` job).

namespace causalformer {
namespace serve {
namespace {

using testutil::Barrier;
using testutil::DetectGate;
using testutil::ExpectSameDetection;
using testutil::RandomWindows;
using testutil::ScriptedClock;
using testutil::TinyModel;
using testutil::TinyModelOptions;

// Thread-safe recorder behind EngineOptions::detect_observer_for_testing:
// one count per key the detector actually computed.
class DetectCounter {
 public:
  std::function<void(const CacheKey&)> hook() {
    return [this](const CacheKey& key) {
      std::lock_guard<std::mutex> lock(mu_);
      ++total_;
      keys_.insert(KeyString(key));
    };
  }

  int total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  size_t unique_keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_.size();
  }

 private:
  static std::string KeyString(const CacheKey& key) {
    return key.model + "/" + std::to_string(key.generation) + "/" +
           std::to_string(key.windows.lo) + ":" +
           std::to_string(key.windows.hi) + "/" + key.options;
  }

  mutable std::mutex mu_;
  int total_ = 0;
  std::set<std::string> keys_;
};

// Spin until `predicate` holds (bounded); the harness uses it to await
// asynchronous counters without sleeping fixed amounts.
template <typename Pred>
bool SpinUntil(Pred predicate,
               std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ServeStressTest, IdenticalConcurrentRequestsRunOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;  // no cache: only in-flight dedup can coalesce
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 8;
  const Tensor windows = RandomWindows(2, 900);

  // Freeze detection so every submission provably overlaps in flight, then
  // release K submitters through one barrier.
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = windows;
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(request));
    });
  }
  for (auto& c : clients) c.join();

  // All K submissions are in: exactly one leader, K-1 parked followers.
  const auto parked = engine.dedup_stats();
  EXPECT_EQ(parked.leaders, 1u);
  EXPECT_EQ(parked.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(parked.in_flight, 1u);

  gate.Release();
  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());

  // The detector ran exactly once — one invocation, one unique key — and
  // every caller got the *same* shared result object: bit-identical scores
  // by construction (ExpectSameDetection double-checks the values).
  EXPECT_EQ(counter.total(), 1);
  EXPECT_EQ(counter.unique_keys(), 1u);
  int followers = 0;
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.result, nullptr);
    EXPECT_EQ(r.result.get(), responses.front().result.get());
    ExpectSameDetection(*r.result, *responses.front().result);
    if (r.deduped) ++followers;
  }
  EXPECT_EQ(followers, kThreads - 1);

  // The engine-wide snapshot surfaces the same gauges the wire StatsResult
  // reports, and the table drained.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.dedup.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.dedup.in_flight, 0u);
}

TEST(ServeStressTest, EpsilonPerturbedRequestsNeverCoalesce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 6;
  const Tensor windows = RandomWindows(2, 901);

  // Thread t perturbs either its options epsilon or one window value by the
  // smallest representable step — work the detector must NOT coalesce.
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest request;
      request.model = "m";
      request.windows = windows.Clone();
      if (t % 2 == 0) {
        float epsilon = request.options.epsilon;
        for (int step = 0; step <= t; ++step) {
          epsilon = std::nextafterf(epsilon, 1.0f);
        }
        request.options.epsilon = epsilon;
      } else {
        float& cell = request.windows.data()[t];
        cell = std::nextafterf(cell, 2.0f * cell + 1.0f);
      }
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(request));
    });
  }
  for (auto& c : clients) c.join();

  // Every perturbed request is its own leader; nothing parked on anything.
  EXPECT_EQ(engine.dedup_stats().leaders, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(engine.dedup_stats().hits, 0u);

  gate.Release();
  for (auto& f : futures) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.deduped);
  }
  // K distinct keys, K distinct detector invocations.
  EXPECT_EQ(counter.total(), kThreads);
  EXPECT_EQ(counter.unique_keys(), static_cast<size_t>(kThreads));
}

// The leader-error fan-in path at the table level, fully deterministic: K
// followers park, the leader completes with an error, and every follower
// receives that same error (counted as failed fan-ins) — never a hang, never
// a broken promise.
TEST(ServeStressTest, FollowersFanInOnLeaderError) {
  InFlightTable table;
  CacheKey key{"m", {7, 9}, "o", 1};
  InFlightTicket leader = table.Join(key);
  ASSERT_TRUE(leader.leader);

  constexpr int kFollowers = 5;
  Barrier barrier(kFollowers + 1);
  std::vector<std::future<DiscoveryResponse>> futures(kFollowers);
  std::vector<std::thread> threads;
  for (int t = 0; t < kFollowers; ++t) {
    threads.emplace_back([&, t] {
      barrier.Wait();
      InFlightTicket ticket = table.Join(key);
      EXPECT_FALSE(ticket.leader);
      futures[static_cast<size_t>(t)] = std::move(ticket.follower);
    });
  }
  barrier.Wait();
  for (auto& t : threads) t.join();
  EXPECT_EQ(table.stats().hits, static_cast<uint64_t>(kFollowers));

  DiscoveryResponse failure;
  failure.status = Status::Internal("leader exploded");
  table.Complete(leader.entry, failure);
  // Completion is idempotent: a second resolve must not double-fan.
  table.Complete(leader.entry, failure);

  for (auto& f : futures) {
    const DiscoveryResponse r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kInternal);
    EXPECT_TRUE(r.deduped);
  }
  EXPECT_EQ(table.stats().failed_fanins, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(table.stats().in_flight, 0u);
}

// The leader-cancelled path end to end: the engine shuts down while the
// leader is still queued behind a stuck batch and K followers are parked on
// it. Every caller — leader and followers alike — must resolve with the same
// deterministic shutdown error; nobody hangs on a dead leader.
TEST(ServeStressTest, EngineTeardownFailsParkedFollowersDeterministically) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.batcher.max_in_flight_batches = 1;  // one stuck batch blocks the queue
  opts.detect_observer_for_testing = gate.hook();
  auto engine = std::make_unique<InferenceEngine>(&registry, opts);

  gate.Close();
  // Occupy the sole executor with an unrelated query, held at the gate.
  DiscoveryRequest occupier;
  occupier.model = "m";
  occupier.windows = RandomWindows(1, 910);
  auto occupier_future = engine->SubmitAsync(std::move(occupier));
  ASSERT_TRUE(SpinUntil([&] { return engine->batcher_stats().batches == 1; }));

  // The leader queues behind it; followers park on the leader.
  constexpr int kFollowers = 4;
  const Tensor windows = RandomWindows(2, 911);
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int t = 0; t < kFollowers + 1; ++t) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows;
    futures.push_back(engine->SubmitAsync(std::move(request)));
  }
  EXPECT_EQ(engine->dedup_stats().hits, static_cast<uint64_t>(kFollowers));

  // Tear the engine down on a side thread: its batcher marks shutdown and
  // orphans the queued leader immediately, then blocks joining the stuck
  // executor until the gate releases. The sleep biases the race heavily
  // toward the orphan path, but on a crawling host (TSan CI) the executor
  // may still win and run the leader's batch — so the hard assertion is
  // the consistency contract, not which path won: nobody hangs, and the
  // leader and every parked follower observe the *same* outcome.
  std::thread teardown([&] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate.Release();
  teardown.join();

  // The occupier was mid-execution and completes normally.
  EXPECT_TRUE(occupier_future.get().status.ok());
  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());  // must not hang
  for (const auto& r : responses) {
    EXPECT_EQ(r.status.code(), responses.front().status.code())
        << r.status.ToString();
    if (r.status.ok()) {
      // Executor won the race: everyone shares the leader's result.
      EXPECT_EQ(r.result.get(), responses.front().result.get());
    } else {
      // Orphan path (the overwhelmingly common case): the deterministic
      // shutdown rejection, fanned to every caller.
      EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
          << r.status.ToString();
    }
  }
}

// The unload-while-parked path: followers park on a leader pinned to model
// generation G; the model is hot-swapped to a different architecture while
// everything is still queued. The leader runs on the pinned handle, and the
// followers fan in on that pinned result — same 3-series scores, no
// NotFound, no geometry abort against the 5-series successor.
TEST(ServeStressTest, UnloadWhileParkedFollowersGetPinnedModelResult) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  gate.Close();
  constexpr int kCallers = 5;
  const Tensor windows = RandomWindows(2, 912);
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int t = 0; t < kCallers; ++t) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows;
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }
  EXPECT_EQ(engine.dedup_stats().hits, static_cast<uint64_t>(kCallers - 1));

  // Swap "m" to a different architecture while leader + followers are
  // parked/queued.
  ASSERT_TRUE(engine.UnloadModel("m").ok());
  Rng rng(13);
  ASSERT_TRUE(registry
                  .Register("m", std::make_unique<core::CausalityTransformer>(
                                     TinyModelOptions(5, 12), &rng))
                  .ok());
  gate.Release();

  std::vector<DiscoveryResponse> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const auto& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.result->scores.num_series(), 3);
    EXPECT_EQ(r.result.get(), responses.front().result.get());
  }
  EXPECT_EQ(counter.total(), 1);
}

// ScriptedClock-driven TTL: a cached result that just expired must NOT make
// K identical queries recompute K times — the first re-query leads, the rest
// coalesce in flight. Detector invocations stay at exactly two (initial fill
// + one re-lead).
TEST(ServeStressTest, ExpiredCacheEntryRefillsThroughDedupOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  ScriptedClock clock(100.0);
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 16;
  opts.cache_ttl_seconds = 10.0;
  opts.cache_clock_for_testing = clock.fn();
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  DiscoveryRequest request;
  request.model = "m";
  request.windows = RandomWindows(2, 913);
  ASSERT_TRUE(engine.Discover(request).status.ok());
  EXPECT_EQ(counter.total(), 1);
  EXPECT_TRUE(engine.Discover(request).cache_hit);  // young entry: cached

  clock.Advance(11.0);  // scripted expiry: the entry is now stale

  constexpr int kThreads = 6;
  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::future<DiscoveryResponse>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      DiscoveryRequest copy = request;
      barrier.Wait();
      futures[static_cast<size_t>(t)] = engine.SubmitAsync(std::move(copy));
    });
  }
  for (auto& c : clients) c.join();
  gate.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

  // One expiry-triggered recompute total, not one per caller.
  EXPECT_EQ(counter.total(), 2);
  EXPECT_EQ(engine.cache_stats().expirations, 1u);
  EXPECT_EQ(engine.dedup_stats().hits, static_cast<uint64_t>(kThreads - 1));
}

// Shape-bucketed batching: requests with two different detector-option sets
// arrive interleaved while the sole executor is stuck. Each option set must
// coalesce into one homogeneous full batch — riders join across the
// interleaving, which single-queue head-grouping could only do by scanning
// past incompatible traffic.
TEST(ServeStressTest, InterleavedOptionSetsFormHomogeneousFullBatches) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.batcher.max_in_flight_batches = 1;
  opts.detect_observer_for_testing = gate.hook();
  InferenceEngine engine(&registry, opts);

  gate.Close();
  DiscoveryRequest occupier;
  occupier.model = "m";
  occupier.windows = RandomWindows(1, 920);
  auto occupier_future = engine.SubmitAsync(std::move(occupier));
  ASSERT_TRUE(SpinUntil([&] { return engine.batcher_stats().batches == 1; }));

  // 4 requests per option set, submitted alternating A, B, A, B, ...
  constexpr int kPerSet = 4;
  std::vector<std::future<DiscoveryResponse>> set_a;
  std::vector<std::future<DiscoveryResponse>> set_b;
  for (int i = 0; i < kPerSet; ++i) {
    DiscoveryRequest a;
    a.model = "m";
    a.windows = RandomWindows(2, 921 + static_cast<uint64_t>(i));
    set_a.push_back(engine.SubmitAsync(std::move(a)));

    DiscoveryRequest b;
    b.model = "m";
    b.windows = RandomWindows(2, 931 + static_cast<uint64_t>(i));
    b.options.num_clusters = 3;  // different options: must never share a batch
    set_b.push_back(engine.SubmitAsync(std::move(b)));
  }
  // Two pending shape buckets while everything is parked behind the
  // occupier.
  EXPECT_EQ(engine.batcher_stats().shape_buckets, 2);

  gate.Release();
  for (auto& f : set_a) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, kPerSet);  // A rode as one homogeneous batch
  }
  for (auto& f : set_b) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.batch_size, kPerSet);  // so did B
  }
  EXPECT_TRUE(occupier_future.get().status.ok());
  EXPECT_EQ(engine.batcher_stats().shape_buckets, 0);
}

// Adaptive admission at the MicroBatcher level, with a hand-driven executor:
// consecutive sparse (size-1) dispatches shrink the limit to the floor;
// a full batch grows it back. Deterministic — the executor only proceeds
// when the test says so.
TEST(ServeStressTest, AdaptiveAdmissionTracksBatchOccupancy) {
  std::mutex mu;
  std::condition_variable cv;
  int release_budget = 0;
  const auto release_one = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++release_budget;
    }
    cv.notify_all();
  };

  BatcherOptions opts;
  opts.max_batch_requests = 4;
  opts.max_in_flight_batches = 3;
  opts.min_in_flight_batches = 1;
  opts.adaptive_in_flight = true;
  std::atomic<uint64_t> executed{0};
  MicroBatcher batcher(opts, [&](std::vector<BatchItem> items) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release_budget > 0; });
      --release_budget;
    }
    for (auto& item : items) {
      DiscoveryResponse response;
      response.batch_size = static_cast<int>(items.size());
      item.Resolve(std::move(response));
    }
    ++executed;
  });

  const auto submit_one = [&](uint64_t seed) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = RandomWindows(1, seed);
    return batcher.Submit(std::move(request), CacheKey{}, nullptr);
  };

  // Admission opens at the ceiling.
  EXPECT_EQ(batcher.stats().in_flight_limit, 3);

  // Two lone dispatches (occupancy 1/4 each) shrink 3 -> 2 -> 1.
  for (int i = 0; i < 2; ++i) {
    auto future = submit_one(940 + static_cast<uint64_t>(i));
    release_one();
    ASSERT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(batcher.stats().in_flight_limit, 1);
  EXPECT_EQ(batcher.stats().limit_shrinks, 2u);

  // Park one batch in the executor; admission 1 means the next submissions
  // pile up instead of dispatching to the idle peer executors...
  auto parked = submit_one(950);
  ASSERT_TRUE(SpinUntil([&] { return batcher.stats().batches == 3u; }));
  std::vector<std::future<DiscoveryResponse>> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(submit_one(951 + static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(batcher.stats().batches, 3u);  // nothing else dispatched

  // ...and when the parked batch finishes, they ride as one full batch whose
  // occupancy (4/4) grows the limit again.
  release_one();  // the parked singleton
  release_one();  // the coalesced burst
  ASSERT_TRUE(parked.get().status.ok());
  for (auto& f : burst) {
    const DiscoveryResponse r = f.get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.batch_size, 4);
  }
  // Four executions in total: two singles, the parked singleton, the burst.
  ASSERT_TRUE(SpinUntil([&] { return executed.load() == 4u; }));
  EXPECT_EQ(batcher.stats().in_flight_limit, 2);
  EXPECT_GE(batcher.stats().limit_grows, 1u);
}

// Distinct shapes can never coalesce, so adaptive admission must not
// serialize them: once a second shape bucket has pending work, the limit
// is floored at one executor per bucket and climbs back even though every
// batch is sparse.
TEST(ServeStressTest, AdmissionNeverShrinksBelowDistinctPendingShapes) {
  std::mutex mu;
  std::condition_variable cv;
  int release_budget = 0;
  const auto release_one = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++release_budget;
    }
    cv.notify_all();
  };

  BatcherOptions opts;
  opts.max_batch_requests = 4;
  opts.max_in_flight_batches = 2;
  opts.min_in_flight_batches = 1;
  MicroBatcher batcher(opts, [&](std::vector<BatchItem> items) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release_budget > 0; });
      --release_budget;
    }
    for (auto& item : items) item.Resolve(DiscoveryResponse{});
  });

  // Distinct options strings put the two flows in distinct shape buckets.
  const auto submit_shape = [&](const std::string& options, uint64_t seed) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = RandomWindows(1, seed);
    CacheKey key;
    key.model = "m";
    key.options = options;
    return batcher.Submit(std::move(request), std::move(key), nullptr);
  };

  // A lone sparse dispatch with nothing else pending shrinks 2 -> 1.
  {
    auto future = submit_shape("A", 980);
    release_one();
    ASSERT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(batcher.stats().in_flight_limit, 1);

  // Park one shape-A batch; queue shape B and more A behind it.
  auto parked = submit_shape("A", 981);
  ASSERT_TRUE(SpinUntil([&] { return batcher.stats().batches == 2u; }));
  auto b_future = submit_shape("B", 982);
  auto a_future = submit_shape("A", 983);
  EXPECT_EQ(batcher.stats().shape_buckets, 2);

  // Completing the parked batch lets the next dispatch observe a second
  // pending bucket: the floor raises admission back to 2, so both shapes'
  // batches dispatch concurrently — batches reaches 4 while both executors
  // are still parked in the execute hook. (Without the floor, admission
  // would stay at 1 and the A batch could never dispatch before B's
  // executor is released, so this spin would time out.)
  release_one();
  ASSERT_TRUE(SpinUntil([&] { return batcher.stats().batches == 4u; }));
  EXPECT_GE(batcher.stats().limit_grows, 1u);
  release_one();
  release_one();
  ASSERT_TRUE(parked.get().status.ok());
  ASSERT_TRUE(b_future.get().status.ok());
  ASSERT_TRUE(a_future.get().status.ok());
}

// A batch full by the summed-window budget is a *full* batch even when its
// request count is far below max_batch_requests: occupancy must read the
// binding cap, so windows-saturated dispatches grow admission rather than
// shrink it.
TEST(ServeStressTest, WindowsSaturatedBatchesCountAsFullOccupancy) {
  std::mutex mu;
  std::condition_variable cv;
  int release_budget = 0;
  const auto release_one = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++release_budget;
    }
    cv.notify_all();
  };

  BatcherOptions opts;
  opts.max_batch_requests = 8;
  opts.max_batch_windows = 4;  // two B=2 requests saturate the window budget
  opts.max_in_flight_batches = 3;
  opts.min_in_flight_batches = 1;
  MicroBatcher batcher(opts, [&](std::vector<BatchItem> items) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release_budget > 0; });
      --release_budget;
    }
    for (auto& item : items) {
      DiscoveryResponse response;
      response.batch_size = static_cast<int>(items.size());
      item.Resolve(std::move(response));
    }
  });

  const auto submit = [&](int64_t b, uint64_t seed) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = RandomWindows(b, seed);
    return batcher.Submit(std::move(request), CacheKey{}, nullptr);
  };

  // Two lone single-window dispatches (occupancy 1/8 vs 1/4) shrink 3 -> 1.
  for (int i = 0; i < 2; ++i) {
    auto future = submit(1, 990 + static_cast<uint64_t>(i));
    release_one();
    ASSERT_TRUE(future.get().status.ok());
  }
  EXPECT_EQ(batcher.stats().in_flight_limit, 1);

  // Park a batch, queue two 2-window requests behind it; their combined
  // dispatch hits max_batch_windows exactly.
  auto parked = submit(1, 992);
  ASSERT_TRUE(SpinUntil([&] { return batcher.stats().batches == 3u; }));
  auto w1 = submit(2, 993);
  auto w2 = submit(2, 994);
  release_one();
  release_one();
  ASSERT_TRUE(parked.get().status.ok());
  const DiscoveryResponse r1 = w1.get();
  const DiscoveryResponse r2 = w2.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r1.batch_size, 2);  // both rode one windows-saturated batch
  EXPECT_EQ(r2.batch_size, 2);
  // That batch read as full (4/4 windows), not sparse (2/8 requests).
  EXPECT_EQ(batcher.stats().in_flight_limit, 2);
  EXPECT_EQ(batcher.stats().limit_shrinks, 2u);
}

// Mixed identical/perturbed sustained load: K threads × R rounds, half the
// submissions duplicates of a shared hot window, half unique per (thread,
// round). The invariant that matters under load: detector invocations ==
// unique keys, and every response carries the right scores for *its* window
// (spot-checked against a fresh engine).
TEST(ServeStressTest, SustainedMixedLoadComputesEachUniqueKeyOnce) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;  // dedup only; no cache assistance
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  const Tensor hot = RandomWindows(2, 960);

  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::vector<std::future<DiscoveryResponse>>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      barrier.Wait();
      for (int round = 0; round < kRounds; ++round) {
        DiscoveryRequest request;
        request.model = "m";
        request.windows =
            (round % 2 == 0)
                ? hot
                : RandomWindows(2, 961 + static_cast<uint64_t>(t * kRounds +
                                                               round));
        futures[static_cast<size_t>(t)].push_back(
            engine.SubmitAsync(std::move(request)));
      }
    });
  }
  for (auto& c : clients) c.join();
  gate.Release();

  std::shared_ptr<const core::DetectionResult> hot_result;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      const DiscoveryResponse r =
          futures[static_cast<size_t>(t)][static_cast<size_t>(round)].get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (round % 2 == 0) {
        // Every duplicate of the hot window shares one result object.
        if (hot_result == nullptr) {
          hot_result = r.result;
        } else {
          EXPECT_EQ(r.result.get(), hot_result.get());
        }
      }
    }
  }

  // Unique keys: the hot window + one per (thread, odd round).
  const int unique =
      1 + kThreads * (kRounds / 2);
  EXPECT_EQ(counter.total(), unique);
  EXPECT_EQ(counter.unique_keys(), static_cast<size_t>(unique));
  EXPECT_EQ(engine.dedup_stats().hits,
            static_cast<uint64_t>(kThreads * ((kRounds + 1) / 2) - 1));

  // Spot-check the hot window's scores against an independent engine.
  ModelRegistry fresh_registry;
  ASSERT_TRUE(fresh_registry.Register("m", TinyModel()).ok());
  InferenceEngine fresh(&fresh_registry);
  DiscoveryRequest check;
  check.model = "m";
  check.windows = hot;
  const DiscoveryResponse expected = fresh.Discover(std::move(check));
  ASSERT_TRUE(expected.status.ok());
  ExpectSameDetection(*hot_result, *expected.result);
}

// The sharded pool under the mixed identical/unique load: the dedup
// invariant must survive sharding *because* routing follows the full cache
// key — identical keys co-locate on one shard, whose in-flight table
// coalesces them exactly as an unsharded engine would. Proven two ways:
// globally (detector invocations == unique keys) and per shard (each
// shard's dedup leader count == the unique keys the ring assigns it), then
// the hot window's scores are checked bit-identical against an unsharded
// single-engine oracle.
TEST(ServeStressTest, ShardedPoolDedupsPerShardAndMatchesSingleEngineOracle) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  std::mutex keys_mu;
  std::vector<CacheKey> computed_keys;
  EnginePoolOptions popts;
  popts.num_shards = 4;
  popts.engine.cache_capacity = 0;  // dedup only; no cache assistance
  popts.engine.detect_observer_for_testing =
      gate.hook([&, hook = counter.hook()](const CacheKey& key) {
        hook(key);
        std::lock_guard<std::mutex> lock(keys_mu);
        computed_keys.push_back(key);
      });
  EnginePool pool(&registry, popts);

  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  const Tensor hot = RandomWindows(2, 975);

  gate.Close();
  Barrier barrier(kThreads);
  std::vector<std::vector<std::future<DiscoveryResponse>>> futures(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      barrier.Wait();
      for (int round = 0; round < kRounds; ++round) {
        DiscoveryRequest request;
        request.model = "m";
        request.windows =
            (round % 2 == 0)
                ? hot
                : RandomWindows(2, 976 + static_cast<uint64_t>(t * kRounds +
                                                               round));
        futures[static_cast<size_t>(t)].push_back(
            pool.SubmitAsync(std::move(request)));
      }
    });
  }
  for (auto& c : clients) c.join();
  gate.Release();

  std::shared_ptr<const core::DetectionResult> hot_result;
  for (int t = 0; t < kThreads; ++t) {
    for (int round = 0; round < kRounds; ++round) {
      const DiscoveryResponse r =
          futures[static_cast<size_t>(t)][static_cast<size_t>(round)].get();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      if (round % 2 == 0) {
        // Duplicates of the hot window share ONE result object: they all
        // landed on the hot key's shard and coalesced there.
        if (hot_result == nullptr) {
          hot_result = r.result;
        } else {
          EXPECT_EQ(r.result.get(), hot_result.get());
        }
      }
    }
  }

  // Global invariant, exactly as in the unsharded run above.
  const int unique = 1 + kThreads * (kRounds / 2);
  EXPECT_EQ(counter.total(), unique);
  EXPECT_EQ(counter.unique_keys(), static_cast<size_t>(unique));

  // Per-shard invariant: a shard led exactly one in-flight computation per
  // unique key the ring routed to it, and the rows add up to the whole —
  // nothing computed twice, nothing computed on the wrong shard.
  std::vector<uint64_t> expected_leaders(popts.num_shards, 0);
  {
    std::lock_guard<std::mutex> lock(keys_mu);
    for (const CacheKey& key : computed_keys) {
      ++expected_leaders[pool.router().RouteKey(key)];
    }
  }
  const auto rows = pool.shard_stats();
  uint64_t total_routed = 0;
  for (size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(rows[s].engine.dedup.leaders, expected_leaders[s])
        << "shard " << s;
    EXPECT_EQ(rows[s].engine.dedup.in_flight, 0u) << "shard " << s;
    total_routed += rows[s].routed;
  }
  EXPECT_EQ(total_routed, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(pool.stats().dedup.leaders, static_cast<uint64_t>(unique));

  // Bit-identical against the unsharded oracle: sharding changed placement,
  // never arithmetic.
  ModelRegistry fresh_registry;
  ASSERT_TRUE(fresh_registry.Register("m", TinyModel()).ok());
  InferenceEngine fresh(&fresh_registry);
  DiscoveryRequest check;
  check.model = "m";
  check.windows = hot;
  const DiscoveryResponse expected = fresh.Discover(std::move(check));
  ASSERT_TRUE(expected.status.ok());
  ASSERT_NE(hot_result, nullptr);
  ExpectSameDetection(*hot_result, *expected.result);
}

// Dedup off (the bench baseline): identical concurrent queries all compute.
TEST(ServeStressTest, DedupDisabledComputesEverySubmission) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", TinyModel()).ok());
  DetectCounter counter;
  DetectGate gate;
  EngineOptions opts;
  opts.cache_capacity = 0;
  opts.dedup_in_flight = false;
  opts.detect_observer_for_testing = gate.hook(counter.hook());
  InferenceEngine engine(&registry, opts);

  constexpr int kThreads = 4;
  const Tensor windows = RandomWindows(2, 970);
  gate.Close();
  std::vector<std::future<DiscoveryResponse>> futures;
  for (int t = 0; t < kThreads; ++t) {
    DiscoveryRequest request;
    request.model = "m";
    request.windows = windows;
    futures.push_back(engine.SubmitAsync(std::move(request)));
  }
  gate.Release();
  for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  // One key, but every submission computed (they coalesce into batches, so
  // the *batch* count may be lower — the invocation count is per request).
  EXPECT_EQ(counter.total(), kThreads);
  EXPECT_EQ(counter.unique_keys(), 1u);
  EXPECT_EQ(engine.dedup_stats().leaders, 0u);
}

}  // namespace
}  // namespace serve
}  // namespace causalformer
